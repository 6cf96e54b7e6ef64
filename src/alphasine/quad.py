"""Numerical integration by kernel-zero-aware lobe rules.

The |sin(xy)|^a and |cos(xy)|^a kernels vanish like |u|^a at their zeros, so
each half-lobe between a zero and a crest is integrated with a tanh-sinh rule
whose nodes are placed from the piece's own ends; a node's distance u to the
nearer kernel zero comes from the rule, never from a difference of large
floats, so even a piece far shorter than pi keeps its digits.
Weights and kernel powers combine in log space, which keeps the rule finite
arbitrarily close to a = -1.  Every second tanh-sinh node forms the embedded
coarse rule whose disagreement drives refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergence
from .grid import call_vec
from .specfun import as_alpha

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class QuadSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    tail_cut: float = 30.0

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not (self.tail_cut > 0.0):
            raise ValueError("tail_cut must be positive")


def _log_cosh(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return np.where(x >= 0.0, -np.log1p(np.exp(-ax)), x - np.log1p(np.exp(-ax)))


def _ln_sin(u: np.ndarray, ln_u: np.ndarray) -> np.ndarray:
    """log(sin u) for u in (0, pi) given the exact log of u."""
    out = np.empty_like(u)
    small = u < 1e-3
    us = u[small]
    out[small] = ln_u[small] - us * us / 6.0 - us**4 / 180.0
    out[~small] = np.log(np.sin(u[~small]))
    return out


@lru_cache(maxsize=64)
def _lobe_rule(alpha: float, h: float, length: float, off: float):
    """Tanh-sinh rule on a half-lobe piece of the given length whose kernel
    zero lies off beyond one end, its zero end; it does not depend on where
    the piece sits, nor on which side the zero lies.

    Node i is d[i] from the zero end where near[i], else d[i] from the other
    end.  Its distance u to the zero is off plus its distance to the zero end,
    which for the near nodes comes straight from the rule, never from float
    subtraction.  q holds the weights times |sin u|^alpha; the coarse entries
    form the embedded h' = 2h rule.
    """
    s_req = max(16.5, 16.5 / (1.0 + alpha))
    kmax = max(6, int(math.ceil(math.asinh(2.0 * s_req / math.pi) / h)))
    k = np.arange(-kmax, kmax + 1)
    kh = k * h
    s = _HALF_PI * np.sinh(kh)
    lnw = math.log(h * _HALF_PI) + _log_cosh(kh) - 2.0 * _log_cosh(s)
    near = s <= 0.0
    # each node's distance to the nearer end, in log form exact to the end
    ln_d = math.log(length) + _log_sigmoid(-2.0 * np.abs(s))
    d = np.exp(ln_d)
    u = off + np.where(near, d, length - d)
    ln_u = np.log(u) if off else np.where(near, ln_d, np.log(length - d))
    q = np.exp(lnw + math.log(0.5 * length) + alpha * _ln_sin(u, ln_u))
    coarse = k % 2 == 0
    for arr in (d, near, q, coarse):
        arr.setflags(write=False)
    return d, near, q, coarse


def lobe_nodes(alpha: float, h: float, zero_end, other_end, length: float, off: float):
    """The same half-lobe piece (see _lobe_rule) placed between several pairs
    of ends zero_end[i], other_end[i], each pair the given length apart.

    Returns (t, q, coarse): t has one row of nodes per piece; the weights q
    (kernel power included) and the coarse-rule mask are shared by all rows.
    """
    d, near, q, coarse = _lobe_rule(alpha, h, length, off)
    toward = np.sign(other_end - zero_end)[:, None] * d
    t = np.where(near, zero_end[:, None] + toward, other_end[:, None] - toward)
    return t, q, coarse


def _kernel_pieces(phase: float, t_max: float) -> np.ndarray:
    """Rows (zero_end, other_end, length, off) covering (0, t_max] for a
    kernel with zeros at k*pi - phase: the rising (zero to crest) and falling
    (crest to zero) half of each lobe, cut to the interval, with empty pieces
    dropped.  A length is pi/2 or is measured from 0 or t_max, never between
    zeros; off is nonzero only where t_max cuts a falling half."""
    k = np.arange(math.floor((t_max + phase) / math.pi) + 2)
    zero = k * math.pi - phase
    crest = k * math.pi + (_HALF_PI - phase)
    next_zero = (k + 1) * math.pi - phase
    rising = np.column_stack((zero, np.minimum(crest, t_max),
                              np.where(crest <= t_max, _HALF_PI, t_max - zero),
                              np.zeros(len(k))))
    falling = np.column_stack((np.minimum(next_zero, t_max), crest,
                               np.where(next_zero <= t_max, _HALF_PI, t_max - crest),
                               np.maximum(next_zero - t_max, 0.0)))
    rows = np.stack((rising, falling), axis=1).reshape(-1, 4)
    return rows[(rows[:, 2] > 0.0) & (rows[:, 0] >= 0.0)]


def _piece_sums(f, y: float, alpha: float, pieces: np.ndarray, h: np.ndarray):
    """Value and embedded error estimate of each piece at step h: one rule per
    distinct (length, off, h), and f evaluated in one batch."""
    rules, which = np.unique(np.column_stack((pieces[:, 2:], h)), axis=0, return_inverse=True)
    groups = [np.flatnonzero(which == g) for g in range(len(rules))]
    placed = [
        lobe_nodes(alpha, hg, pieces[rows, 0], pieces[rows, 1], length, off)
        for rows, (length, off, hg) in zip(groups, rules)
    ]
    t_all = np.concatenate([t.ravel() for t, _, _ in placed])
    fx = np.asarray(call_vec(f, t_all / y), dtype=float) / y
    value = np.empty(len(h))
    error = np.empty(len(h))
    start = 0
    for rows, (t, q, coarse) in zip(groups, placed):
        contrib = q * fx[start:start + t.size].reshape(t.shape)
        start += t.size
        # compress gives a C-ordered copy, so each row sums as a 1-D array would
        coarse_sum = 2.0 * np.sum(np.compress(coarse, contrib, axis=1), axis=1)
        value[rows] = np.sum(contrib, axis=1)
        error[rows] = np.abs(value[rows] - coarse_sum)
    return value, error


def integrate_kernel_split(
    f,
    alpha,
    y: float,
    spec: QuadSpec | None = None,
    kernel: str = "sine",
) -> float:
    """Integral of |sin(xy)|^a f(x) (or |cos(xy)|^a f(x)) over (0, tail_cut].

    Splits at the kernel zeros x = k pi / y (shifted by pi/(2y) for the
    cosine), integrates every half-lobe with the tanh-sinh rule, and refines
    pieces whose embedded error estimate exceeds the budget.
    """
    spec = spec or QuadSpec()
    alpha = as_alpha(alpha)
    if not (y > 0.0):
        raise ValueError(f"y must be positive, got {y}")
    if kernel not in ("sine", "cosine"):
        raise ValueError(f"kernel must be 'sine' or 'cosine', got {kernel!r}")
    a = alpha.value
    phase = 0.0 if kernel == "sine" else _HALF_PI
    pieces = _kernel_pieces(phase, y * spec.tail_cut)
    if len(pieces) == 0:
        raise ValueError(f"y * tail_cut = {y * spec.tail_cut:.3g} is too small for a kernel piece")
    h = np.full(len(pieces), 0.2)
    value, error = _piece_sums(f, y, a, pieces, h)
    for halvings in range(8):
        total = float(np.sum(value))
        total_err = float(np.sum(error))
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if total_err <= tol:
            return total
        if halvings == 7:
            raise NonConvergence(
                f"integrate_kernel_split: error {total_err:.3e} above tolerance at y={y}"
            )
        bad = error > tol / (2.0 * len(pieces))
        h[bad] *= 0.5
        value[bad], error[bad] = _piece_sums(f, y, a, pieces[bad], h[bad])


def integrate(f, spec: QuadSpec | None = None) -> float:
    """Integral of f over (0, tail_cut]: the lobe rule at a = 0, where the
    kernel |sin|^0 is 1."""
    return integrate_kernel_split(f, 0.0, 1.0, spec)
