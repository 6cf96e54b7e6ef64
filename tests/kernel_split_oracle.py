"""The per-y lobe quadrature that integrated one y per call before the
forward transform took an array of y, kept as the reference the batched
`quad.integrate_kernel_split` is compared with.

Each call splits (0, y * tail_cut] into the kernel's half-lobes, groups the
pieces by (length, offset of the zero, step) with np.unique, builds one
tanh-sinh rule per group with `quad._rules` and places it at each piece of
the group with `quad._place`, and refines the pieces over the error budget
of this one y.  It takes no Gauss pass.
"""

import math

import numpy as np

from alphasine.grid import call_vec
from alphasine.quad import QuadSpec, _place, _rules

_HALF_PI = 0.5 * math.pi


def _kernel_pieces(phase: float, t_max: float) -> np.ndarray:
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
    rules, which = np.unique(np.column_stack((pieces[:, 2:], h)), axis=0, return_inverse=True)
    groups = [np.flatnonzero(which == g) for g in range(len(rules))]
    placed = []
    for rows, (length, off, hg) in zip(groups, rules):
        d, near, w = _rules(alpha, hg, np.array([[length]]), np.array([[off]]))
        placed.append((_place(d, near, pieces[rows, 0], pieces[rows, 1]), w[0, 0], w[1, 0]))
    t_all = np.concatenate([t.ravel() for t, _, _ in placed])
    fx = np.asarray(call_vec(f, t_all / y), dtype=float) / y
    value = np.empty(len(h))
    error = np.empty(len(h))
    start = 0
    for rows, (t, q, q_coarse) in zip(groups, placed):
        fx_rows = fx[start:start + t.size].reshape(t.shape)
        start += t.size
        coarse_sum = np.sum(q_coarse * fx_rows, axis=1)
        value[rows] = np.sum(q * fx_rows, axis=1)
        error[rows] = np.abs(value[rows] - coarse_sum)
    return value, error


def kernel_split_at(f, a: float, y: float, spec: QuadSpec, kernel: str) -> float:
    """Integral of |sin(xy)|^a f(x) (|cos| for the cosine kernel) over
    (0, tail_cut] at one y > 0."""
    phase = 0.0 if kernel == "sine" else _HALF_PI
    pieces = _kernel_pieces(phase, y * spec.tail_cut)
    h = np.full(len(pieces), 0.2)
    value, error = _piece_sums(f, y, a, pieces, h)
    for _ in range(8):
        total = float(np.sum(value))
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if float(np.sum(error)) <= tol:
            return total
        bad = error > tol / (2.0 * len(pieces))
        h[bad] *= 0.5
        value[bad], error[bad] = _piece_sums(f, y, a, pieces[bad], h[bad])
    raise AssertionError(f"the reference did not converge at y={y}")
