"""Forward kernel transforms on the half-line and their series form.

t_sine integrates |sin(xy)|^a f(x) over (0, tail_cut]; t_sine_series instead
sums the cosine-expansion coefficients against samples of the Fourier
transform of the even extension of f.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import _pointwise, call_vec
from .quad import QuadSpec, integrate, integrate_kernel_split
from .specfun import as_alpha, sine_coeffs

# coefficients summed by t_sine_series unless the caller asks for another count
SERIES_TERMS = 10_000


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
        if alpha.value > 0.0:
            return 0.0
        if abs(alpha.value) <= 1e-12:
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
    as in grid._pointwise); one coefficient table serves every y, and each
    y's sum is one fsum.

    fhat must be the Fourier transform of the even extension of f.  For
    -1 < alpha < 0 the coefficient series diverges, so truncation is only
    meaningful when fhat decays at least like 1/t; the caller certifies that
    with fhat_decays=True, otherwise the call is refused.
    """
    alpha = as_alpha(alpha)
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if alpha.value < 0.0 and not fhat_decays:
        raise ValueError(
            "t_sine_series for -1 < alpha < 0 needs fhat_decays=True "
            "(the coefficient series alone diverges)"
        )

    def sums(ys: np.ndarray) -> np.ndarray:
        c = sine_coeffs(alpha, terms).coeffs
        j = np.arange(1, terms + 1, dtype=float)
        head = 0.5 * c[0] * float(fhat(0.0))
        out = np.empty(len(ys))
        for i, yi in enumerate(ys):
            vals = np.asarray(call_vec(fhat, 2.0 * j * yi), dtype=float)
            out[i] = head + math.fsum((c[1:] * vals).tolist())
        return out

    return _pointwise(sums, y, "y", "positive")
