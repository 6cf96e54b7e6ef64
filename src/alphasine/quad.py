"""Numerical integration by kernel-zero-aware lobe rules.

The |sin(xy)|^a and |cos(xy)|^a kernels vanish like |u|^a at their zeros, so
the integral is split into half-lobes, each between a zero and a crest.  On
an interior half-lobe the kernel is the fixed weight sin(u)^a on [0, pi/2],
u the distance to the zero, so the singular end lives in the weight of a
Gauss rule (as in QUADPACK's QAWS) and f only has to be smooth on the lobe:
the 16-point rule gives the value, and its difference from the 10-point rule
the error estimate.  Both rules are built once per a from the tanh-sinh
rule below.

A piece the Gauss pair cannot settle, and every piece cut at tail_cut,
takes a tanh-sinh rule whose nodes are placed from the piece's own ends; a
node's distance u to the nearer kernel zero comes from the rule, never from
a difference of large floats, so even a piece far shorter than pi keeps its
digits.  Weights and kernel powers combine in log space, which keeps the rule
finite arbitrarily close to a = -1.  Every second tanh-sinh node forms the
embedded coarse rule whose disagreement drives the halving of its step.

A curve, an array of y, is integrated in one pass: the pieces of every y go
into one table, the interior half-lobes of all of them share one Gauss
pair, and each y keeps its own stopping rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergence
from .grid import _pointwise, call_vec
from .specfun import as_alpha

_HALF_PI = 0.5 * math.pi
# the Gauss pair that takes every interior half-lobe first: G16 is the value
# and |G16 - G10| its error estimate
_GAUSS_N = (16, 10)
# a piece's step h: inf marks the Gauss pass, after which a piece over its
# share takes tanh-sinh at _H_FIRST, then halves its step down to _H_LAST
_GAUSS = math.inf
_H_FIRST = 0.2
_H_LAST = _H_FIRST / 2**7
# y refined together, and nodes placed and evaluated at once: these bound the
# memory of a long curve without changing any value
_Y_BLOCK = 32
_CHUNK_NODES = 16384


@dataclass(frozen=True)
class QuadSpec:
    # a floor only: the relative tolerance scales with the integrand's mass
    abs_tol: float = 1e-300
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


def _kmax(alpha: float, h: float) -> int:
    """Half the node count of the rule at step h: the tanh-sinh sum runs to
    where the weights have fallen below double precision."""
    s_req = max(16.5, 16.5 / (1.0 + alpha))
    return max(6, int(math.ceil(math.asinh(2.0 * s_req / math.pi) / h)))


def _rules(alpha: float, h: float, length: np.ndarray, off: np.ndarray):
    """Tanh-sinh rules on half-lobe pieces, one row per piece: length[i] is
    the piece's length and off[i] how far its kernel zero lies beyond its zero
    end (both columns).  A rule does not depend on where the piece sits, nor
    on which side the zero lies.

    Node j of row i is d[i, j] from the zero end where near[j], else d[i, j]
    from the other end.  Its distance u to the zero is off plus its distance
    to the zero end, which for the near nodes comes straight from the rule,
    never from float subtraction.  q holds the weights times |sin u|^alpha;
    the coarse entries form the embedded h' = 2h rule.
    """
    kmax = _kmax(alpha, h)
    k = np.arange(-kmax, kmax + 1)
    kh = k * h
    s = _HALF_PI * np.sinh(kh)
    lnw = math.log(h * _HALF_PI) + _log_cosh(kh) - 2.0 * _log_cosh(s)
    near = s <= 0.0
    # each node's distance to the nearer end, in log form exact to the end
    ln_d = np.log(length) + _log_sigmoid(-2.0 * np.abs(s))
    d = np.exp(ln_d)
    u = off + np.where(near, d, length - d)
    ln_u = np.where(near, ln_d, np.log(length - d))
    cut = off[:, 0] > 0.0
    ln_u[cut] = np.log(u[cut])
    q = np.exp(lnw + np.log(0.5 * length) + alpha * _ln_sin(u, ln_u))
    return d, near, q, k % 2 == 0


@lru_cache(maxsize=64)
def _lobe_rule(alpha: float, h: float, length: float, off: float):
    """The rule of one piece (see _rules), kept for reuse: d, near, q, coarse
    as 1-D read-only arrays."""
    d, near, q, coarse = _rules(alpha, h, np.array([[length]]), np.array([[off]]))
    d, q = d[0], q[0]
    for arr in (d, near, q, coarse):
        arr.setflags(write=False)
    return d, near, q, coarse


@lru_cache(maxsize=64)
def _gauss_rule(alpha: float, n: int):
    """The n-point Gauss rule for the weight sin(u)^alpha on [0, pi/2]: nodes
    u and weights w, read-only.

    The discretized Stieltjes procedure (Gautschi 1982) takes the recurrence
    of the weight's orthonormal polynomials in x = 4u/pi - 1 from a fine
    tanh-sinh rule as the discrete measure; the eigenvalues of the Jacobi
    matrix are the nodes and mu_0 times the squared first components of its
    eigenvectors the weights (Golub & Welsch 1969).
    """
    # step 0.1, which the fallback uses too: finer rules end nearer the
    # truncation point of _kmax and lose up to 1e-13 in the high moments
    d, near, q, _ = _lobe_rule(alpha, _H_FIRST / 2, _HALF_PI, 0.0)
    x = np.where(near, d, _HALF_PI - d) / (0.5 * _HALF_PI) - 1.0
    mu0 = math.fsum(q)
    diag, off = np.empty(n), np.empty(n)
    p_prev, p, b = np.zeros_like(x), np.full_like(x, mu0**-0.5), 0.0
    for k in range(n):
        diag[k] = np.sum(q * x * p * p)
        r = (x - diag[k]) * p - b * p_prev
        b = off[k] = math.sqrt(np.sum(q * r * r))
        p_prev, p = p, r / b
    theta, v = np.linalg.eigh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    u, w = (theta + 1.0) * (0.5 * _HALF_PI), mu0 * v[0] ** 2
    for arr in (u, w):
        arr.setflags(write=False)
    return u, w


def _place(d, near, zero_end, other_end):
    """Nodes of the pieces between zero_end[i] and other_end[i], one row each,
    from their distances d to the ends (see _rules).  The near nodes are a
    prefix of every row, so each half is written in place by slicing."""
    t = np.sign(other_end - zero_end)[:, None] * d
    cut = np.count_nonzero(near)
    t[:, :cut] += zero_end[:, None]
    np.subtract(other_end[:, None], t[:, cut:], out=t[:, cut:])
    return t


def lobe_nodes(alpha: float, h: float, zero_end, other_end, length: float, off: float):
    """The same half-lobe piece (see _rules) placed between several pairs
    of ends zero_end[i], other_end[i], each pair the given length apart.

    Returns (t, q, coarse): t has one row of nodes per piece; the weights q
    (kernel power included) and the coarse-rule mask are shared by all rows.
    """
    d, near, q, coarse = _lobe_rule(alpha, h, length, off)
    return _place(d, near, zero_end, other_end), q, coarse


def _kernel_pieces(phase: float, t_max: np.ndarray):
    """Rows (zero_end, other_end, length, off) covering (0, t_max[i]] for a
    kernel with zeros at k*pi - phase, and the index i each row belongs to:
    the rising (zero to crest) and falling (crest to zero) half of each lobe,
    cut to the interval, with empty pieces dropped.  A length is pi/2 or is
    measured from 0 or t_max, never between zeros; off is nonzero only where
    t_max cuts a falling half."""
    counts = np.floor((t_max + phase) / math.pi).astype(int) + 2
    owner = np.repeat(np.arange(len(t_max)), counts)
    k = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    t_max = t_max[owner]
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
    owner = np.repeat(owner, 2)
    keep = (rows[:, 2] > 0.0) & (rows[:, 0] >= 0.0)
    return rows[keep], owner[keep]


def _interior(pieces: np.ndarray) -> np.ndarray:
    """Which rows of a piece table are whole half-lobes: length pi/2, off 0."""
    return (pieces[:, 2] == _HALF_PI) & (pieces[:, 3] == 0.0)


def _gauss_sums(f, alpha: float, pieces: np.ndarray, scale: np.ndarray):
    """G16 and |G16 - G10| (see _gauss_rule) on interior half-lobes, where the
    integrand at node t is f(t / scale) / scale.  A node lies its u from the
    piece's zero end, toward the other end.  The nodes of a chunk of pieces
    form one array, a column per piece, so each column sums in the same order
    in any chunk."""
    (u16, w16), (u10, w10) = (_gauss_rule(alpha, n) for n in _GAUSS_N)
    u, w = np.concatenate((u16, u10))[:, None], np.concatenate((w16, w10))[:, None]
    value = np.empty(len(pieces))
    error = np.empty(len(pieces))
    per_chunk = max(1, _CHUNK_NODES // len(u))
    for lo in range(0, len(pieces), per_chunk):
        p, y = pieces[lo:lo + per_chunk], scale[lo:lo + per_chunk]
        x = u * (np.sign(p[:, 1] - p[:, 0]) / y) + p[:, 0] / y
        contrib = w * np.asarray(call_vec(f, x.ravel()), dtype=float).reshape(x.shape)
        g16 = np.sum(contrib[:len(u16)], axis=0)
        value[lo:lo + per_chunk] = g16 / y
        error[lo:lo + per_chunk] = np.abs(g16 - np.sum(contrib[len(u16):], axis=0)) / y
    return value, error


def _piece_sums(f, alpha: float, pieces: np.ndarray, scale: np.ndarray, h: np.ndarray):
    """Value and embedded error estimate of each piece at its step h, where
    the integrand at node t is f(t / scale) / scale.  Interior half-lobes at
    h = _GAUSS take the Gauss pair (see _gauss_sums).  Every piece at a
    tanh-sinh step, an interior half-lobe the Gauss pair left open or a cut
    tail piece, gets its rule row by row from _rules.  Nodes are placed and
    f evaluated in chunks of at most _CHUNK_NODES."""
    value = np.empty(len(h))
    error = np.empty(len(h))
    for step in np.unique(h):
        rows = np.flatnonzero(h == step)
        if step == _GAUSS:
            value[rows], error[rows] = _gauss_sums(f, alpha, pieces[rows], scale[rows])
            continue
        per_chunk = max(1, _CHUNK_NODES // (2 * _kmax(alpha, step) + 1))
        for lo in range(0, len(rows), per_chunk):
            sel = rows[lo:lo + per_chunk]
            p = pieces[sel]
            d, near, q, coarse = _rules(alpha, step, p[:, 2:3], p[:, 3:4])
            y = scale[sel, None]
            x = _place(d, near, p[:, 0], p[:, 1]) / y
            fx = np.asarray(call_vec(f, x.ravel()), dtype=float).reshape(x.shape) / y
            contrib = q * fx
            # compress gives a C-ordered copy, so each row sums as a 1-D array would
            coarse_sum = 2.0 * np.sum(np.compress(coarse, contrib, axis=1), axis=1)
            value[sel] = np.sum(contrib, axis=1)
            error[sel] = np.abs(value[sel] - coarse_sum)
    return value, error


def _totals(f, alpha: float, ys: np.ndarray, phase: float, spec: QuadSpec) -> np.ndarray:
    """The integral at each of ys, refined together.  Each y keeps its own
    stopping rule: a piece is refined while its y has not met its tolerance
    and its error exceeds the y's share of it.  A y's tolerance is rel_tol
    times its integrand's L1 mass, sum |piece value|, so a tiny integral,
    as at small y and large a, keeps its relative digits; abs_tol is a
    floor.  Interior half-lobes start with the Gauss pass and cut tail
    pieces at tanh-sinh step _H_FIRST; a refined piece moves from the Gauss
    pass to _H_FIRST, or halves its step, down to _H_LAST."""
    pieces, owner = _kernel_pieces(phase, ys * spec.tail_cut)
    counts = np.bincount(owner, minlength=len(ys))
    if not counts.all():
        t_max = ys[counts == 0][0] * spec.tail_cut
        raise ValueError(f"y * tail_cut = {t_max:.3g} is too small for a kernel piece")
    starts = np.cumsum(counts) - counts
    h = np.where(_interior(pieces), _GAUSS, _H_FIRST)
    value, error = _piece_sums(f, alpha, pieces, ys[owner], h)
    # the Gauss pass, then the eight tanh-sinh steps _H_FIRST .. _H_LAST
    for rounds in range(9):
        total = np.add.reduceat(value, starts)
        total_err = np.add.reduceat(error, starts)
        mass = np.add.reduceat(np.abs(value), starts)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * mass)
        open_ = ~(total_err <= tol)
        if not open_.any():
            return total
        if rounds == 8:
            i = np.flatnonzero(open_)[0]
            raise NonConvergence(
                f"integrate_kernel_split: error {total_err[i]:.3e} above tolerance at y={ys[i]}"
            )
        bad = open_[owner] & (error > (tol / (2.0 * counts))[owner]) & (h > _H_LAST)
        h[bad] = np.minimum(0.5 * h[bad], _H_FIRST)
        value[bad], error[bad] = _piece_sums(f, alpha, pieces[bad], ys[owner[bad]], h[bad])


def integrate_kernel_split(
    f,
    alpha,
    y,
    spec: QuadSpec | None = None,
    kernel: str = "sine",
):
    """Integral of |sin(xy)|^a f(x) (or |cos(xy)|^a f(x)) over (0, tail_cut],
    at each y > 0 (points as in grid._pointwise).

    Splits at the kernel zeros x = k pi / y (shifted by pi/(2y) for the
    cosine), integrates each interior half-lobe with the Gauss pair for the
    sin(u)^a weight and each piece cut at tail_cut with the tanh-sinh rule,
    and refines pieces whose error estimate exceeds the budget of their y:
    from the Gauss pair to tanh-sinh, then by halving the tanh-sinh step.
    The y run in blocks of _Y_BLOCK, which bounds the memory a long curve
    takes.
    """
    spec = spec or QuadSpec()
    alpha = as_alpha(alpha)
    if kernel not in ("sine", "cosine"):
        raise ValueError(f"kernel must be 'sine' or 'cosine', got {kernel!r}")
    phase = 0.0 if kernel == "sine" else _HALF_PI

    def totals(ys: np.ndarray) -> np.ndarray:
        out = np.empty(len(ys))
        for lo in range(0, len(ys), _Y_BLOCK):
            out[lo:lo + _Y_BLOCK] = _totals(f, alpha.value, ys[lo:lo + _Y_BLOCK], phase, spec)
        return out

    return _pointwise(totals, y, "y", "positive")


def integrate(f, spec: QuadSpec | None = None) -> float:
    """Integral of f over (0, tail_cut]: the lobe rule at a = 0, where the
    kernel |sin|^0 is 1."""
    return integrate_kernel_split(f, 0.0, 1.0, spec)
