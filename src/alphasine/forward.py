"""Forward kernel transforms on the half-line and their series form.

t_sine integrates |sin(xy)|^a f(x) over (0, tail_cut]; t_sine_series instead
sums the cosine-expansion coefficients against samples of the Fourier
transform of the even extension of f.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import _pointwise, _scalar, call_vec
from .quad import QuadSpec, integrate, integrate_kernel_split
from .specfun import as_alpha, sine_coeffs

# coefficients summed by t_sine_series unless the caller asks for another count
SERIES_TERMS = 10_000
# fhat values taken in one call_vec by t_sine_series: whole rows of y up to
# 2^16 entries, so each temporary of a chunk holds 512 kB and the few of them
# fit a 2 MiB L2 cache; larger chunks spill it and run slower
_SERIES_CHUNK = 1 << 16


@lru_cache(maxsize=1)
def _series_coeffs(alpha_value: float, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only table c_0..c_terms of t_sine_series for the last
    (alpha, terms) asked for, and the factors 2j, j = 1..terms, of fhat's
    arguments.  Only one pair is kept: at the default 1e4 terms each adds
    160 kB to the process's peak memory."""
    two_j = 2.0 * np.arange(1, terms + 1, dtype=float)
    two_j.setflags(write=False)
    return sine_coeffs(alpha_value, terms).coeffs, two_j


def _on_half_line(f, alpha, y, spec, kernel: str, at_zero):
    """The kernel transform at each y >= 0 (points as in grid._pointwise);
    at_zero() gives the value at y = 0."""

    def curve(ys: np.ndarray) -> np.ndarray:
        out = np.empty(len(ys))
        zero = ys == 0.0
        if zero.any():
            out[zero] = at_zero()
        out[~zero] = integrate_kernel_split(f, alpha, ys[~zero], spec, kernel=kernel)
        return out

    return _pointwise(curve, y, "y", "non-negative")


def t_sine(f, alpha, y, spec: QuadSpec | None = None):
    """The |sin(xy)|^a transform of f at y >= 0."""
    spec = spec or QuadSpec()
    alpha = as_alpha(alpha)

    def at_zero() -> float:
        if alpha > 0.0:
            return 0.0
        if abs(alpha) <= 1e-12:
            # kernel is identically 1
            return integrate(f, spec)
        raise ValueError("t_sine is undefined at y = 0 for -1 < alpha < 0")

    return _on_half_line(f, alpha, y, spec, "sine", at_zero)


def k_cosine(f, alpha, y, spec: QuadSpec | None = None):
    """The |cos(xy)|^a transform of f at y >= 0; at y = 0 the kernel is 1."""
    spec = spec or QuadSpec()
    return _on_half_line(f, alpha, y, spec, "cosine", lambda: integrate(f, spec))


def t_sine_series(
    fhat,
    alpha,
    y,
    terms: int = SERIES_TERMS,
    *,
    fhat_decays: bool = False,
):
    """Series form (c_0/2) fhat(0) + sum_j c_j fhat(2jy) at each y > 0 (points
    as in grid._pointwise).

    The coefficient table of the last (alpha, terms) is cached, so repeated
    calls at one alpha share it.  fhat is taken in one call on whole rows of
    y at a time, about 2^16 values a call (one row if terms is larger).  Each
    y's terms c_j fhat(2jy) form one contiguous row, which numpy sums
    pairwise: a y gives the same bits alone, in an array or in any chunk,
    and the rounding error of its sum grows like
    log2(terms) u sum_j |c_j fhat(2jy)| (Higham 2002, sec. 4.2), not like terms.

    fhat must be the Fourier transform of the even extension of f.  For
    -1 < alpha < 0 the coefficient series diverges, so truncation is only
    meaningful when fhat decays at least like 1/t; the caller certifies that
    with fhat_decays=True, otherwise the call is refused.
    """
    alpha = as_alpha(alpha)
    terms = _scalar(terms, "terms", "count")
    if alpha < 0.0 and not fhat_decays:
        raise ValueError(
            "t_sine_series for -1 < alpha < 0 needs fhat_decays=True "
            "(the coefficient series alone diverges)"
        )

    def sums(ys: np.ndarray) -> np.ndarray:
        c, two_j = _series_coeffs(alpha, terms)
        head = 0.5 * c[0] * float(fhat(0.0))
        rows = max(1, _SERIES_CHUNK // terms)
        out = np.empty(len(ys))
        for start in range(0, len(ys), rows):
            t = np.multiply.outer(ys[start:start + rows], two_j).reshape(-1)
            vals = np.asarray(call_vec(fhat, t), dtype=float).reshape(-1, terms)
            out[start:start + rows] = head + np.sum(vals * c[1:], axis=1)
        return out

    return _pointwise(sums, y, "y", "positive")
