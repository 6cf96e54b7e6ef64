"""Numerical integration by kernel-zero-aware lobe rules.

The |sin(xy)|^a and |cos(xy)|^a kernels vanish like |u|^a at their zeros, so
the integral is split at them.  On whole lobes the kernel is the fixed
weight |sin u|^a, u the distance to the first zero, so every singular zero
lives in the weight of a Gauss rule (as in QUADPACK's QAWS) and f only has
to be smooth: the 16-point rule G16 gives the value, and its null rules of
degree 15 and 14, on its own 16 nodes, the error estimate (Berntsen &
Espelid 1991).  The whole lobes of a y start as panels of consecutive
lobes sized in x, not by the kernel: a power of two up to _PANEL_LOBES
lobes, no longer than max(_PANEL_X, its distance from the origin), so the
panels grow away from the origin as the x-scale of a decaying f does, in a
graded mesh (see _panel_layout).  Each takes the 16-point rule for [0, m
pi], m its count of lobes, laid out as a lattice: each node placed from
its zero and y alone.  A panel's first node lies far from its end zeros,
so f is also evaluated at each end zero, once for the two panels that
meet there, and compared with the rule's interpolant extrapolated to it
(the end check, see _lobe_sums).  A panel is kept only
when its estimate meets its share of the tolerance at quadrature
precision, however loose the caller's tolerance; one that fails, as one
holding a kink of f does, halves at its middle zero, and a lobe that fails
splits into its two half-lobes, between a zero and a crest.  The sine's
first lobe starts at x = 0, where f is not evaluated, and takes its
half-lobes with the cut pieces.

Every other piece lies between a zero and a crest and is the interval
[v0, v1] of distances from its zero; that interval alone picks its 16-point
Gauss rule, G16 for sin(v)^a on a whole half-lobe, else Gauss-Jacobi or
Gauss-Legendre (see _gauss_piece_sums).  Before that pass a piece longer
in x than a panel there may be is split to that length (_graded_pieces),
as it would be in the rounds.  A piece the pass leaves over its
share is bisected, as in QUADPACK's QAG, and its halves go back through the
same rules: panels, lobes and pieces refine the same way, by splitting.  A
piece whose rules reach from its zero across the v0 before it splits at
v0 2^j instead, into pieces that evaluate f inside themselves alone (see
_split).  The length of a piece at the cut is its distance from the zero,
taken from the exact y * tail_cut and pi, so a cut within 1e-12 of a zero
keeps the digits the weight v^a needs there.  Which lobes are whole and
which halves are cut is decided in floats: a cut within rounding of a zero
counts as at the zero, so tail_cut = math.pi at y = 1 takes the whole lobe
[0, pi].

Every rule takes one form, (u, w): each node's distance u from its zero
end, and the weight rows (see _frozen).  All are Gauss rules of one family:
GJ(0, a) from its closed-form recurrence (_gauss_jacobi), and the rules for
|sin u|^a, built from the discrete measure of a _MEASURE_N-point GJ(0, a)
rule with the smooth factor (sin v / v)^a folded in (_sine_measure), on
which the sphere's quadrature reference integrates too.

A curve, an array of y, is integrated in blocks of consecutive y that
together hold at most _LOBE_BLOCK lobes; a y with more lobes than that forms
a block of its own.  Within a block the panels of every y share each level
of the halving, the remaining pieces go into one table, and each y keeps
its own stopping rule, so no value depends on the block.
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
# pi/2 as a head of 32 significant bits, so that m times it is exact for
# |m| < 2^21, and the rest; sin(fl(pi)) is pi - fl(pi) to double precision
_HALF_PI_HEAD = math.ldexp(math.floor(math.ldexp(_HALF_PI, 31)), -31)
_HALF_PI_TAIL = (_HALF_PI - _HALF_PI_HEAD) + 0.5 * math.sin(math.pi)
# every Gauss rule: G16 is the value, and the sum of its null rules of these
# degrees on its own nodes the error estimate
_GAUSS_N = 16
_NULL_DEGREES = (15, 14)
# a whole lobe is kept only at quadrature precision: its share of the y's
# tolerance is taken at this relative tolerance when the caller's is looser
_LOBE_REL_TOL = 1e-10
# a piece over its share is bisected for at most _ROUNDS rounds, to 2^-30 of
# its length, which cuts a kink's error by 2^-60 but a step's by 2^-30 only;
# an estimate within _ROUNDING of the piece's |value| is not worth a split
_ROUNDS = 30
_ROUNDING = 16 * np.finfo(float).eps
# lobes of the y refined together, and nodes placed and evaluated at once:
# these bound the memory of a long curve without changing any value.  A
# block keeps arrays per panel and per piece, not per lobe: at peak 23 bytes
# a lobe on a smooth f, 530 on the kinks of 2001 linear samples.  It pays
# the bookkeeping of each panel level and round once, so one block holds a
# curve of 400 y up to y tail_cut = 600 (38,892 lobes)
_LOBE_BLOCK = 65536
_CHUNK_NODES = 8192
# the most consecutive whole lobes of a y that share one Gauss rule (see
# _lobe_sums), and the x-length a panel or piece may reach at the origin; past
# it, the distance of its start from the origin (see _panel_layout)
_PANEL_LOBES = 64
_PANEL_X = 2.0
# nodes of the discrete measure the sin(u)^a rules are built from (see
# _gauss_pair): the Stieltjes procedure integrates p_r^2 x for r <= 16,
# degree 33, times the smooth factor of _sine_measure, and 64 nodes leave
# 94 degrees for that factor, whose Chebyshev coefficients on [0, pi/2]
# fall as 5.8^-k (it is singular at v = pi), far below rounding there
_MEASURE_N = 64


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


def _golub_welsch(diag: np.ndarray, off: np.ndarray, mu0: float):
    """Nodes and weight rows of the Gauss rule whose Jacobi matrix has this
    diagonal and off-diagonal, for a weight of mass mu0: the eigenvalues of
    the matrix are the nodes and mu0 times the squared first components v_0
    of its eigenvectors the weights g (Golub & Welsch 1969).  Row r of the
    eigenvectors is p_r(x) sqrt(g), p_r the weight's orthonormal
    polynomials, so mu0 v_0 v_r = sqrt(mu0) g p_r(x) sums every polynomial
    of degree below r to zero but not p_r: the null rule of degree r
    (Berntsen & Espelid 1991).  The rows are the rule, then the rule less
    its null rules of degree 15 and 14; for G16 these are exact through
    degree 14 and 13 and miss u^15 and u^14."""
    theta, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    g = mu0 * v[0] ** 2
    return theta, np.stack([g] + [g - mu0 * v[0] * v[r] for r in _NULL_DEGREES])


def _frozen(u, w):
    """The rule (u, w): each node's distance u from its zero end, and its
    weight rows, read-only."""
    rule = (u[None, :], w[:, None, :])
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _extrapolation(theta: np.ndarray) -> np.ndarray:
    """Rows of the degree-15 interpolant at the nodes theta in [-1, 1],
    evaluated at x = -1 and x = 1: the Lagrange basis l_j(x) =
    prod_(i != j) (x - theta_i) / (theta_j - theta_i)."""
    other = ~np.eye(len(theta), dtype=bool)
    gap = np.where(other, theta[:, None] - theta, 1.0)
    return np.stack([np.prod(np.where(other, x - theta, 1.0) / gap, axis=1) for x in (-1.0, 1.0)])


def _gauss_jacobi(alpha: float, n: int):
    """Nodes and weight rows (see _golub_welsch) of the n-point Gauss rule
    for the weight u^alpha on [0, 1], the Gauss-Jacobi rule GJ(0, alpha).
    On [0, L] the rule is the same nodes times L and weights times
    L^(alpha + 1), exactly.  At alpha = 0 it is Gauss-Legendre.

    The recurrence has a closed form (Gautschi 2004, section 1.5.5): the
    Jacobi weight (1 - x)^0 (1 + x)^alpha in x = 2u - 1 gives, in u, the
    diagonal (alpha + 1)/(alpha + 2) at k = 0 and
    ((k + alpha)(k + alpha + 1) + k(k + 1)) / (b (b + 2)) above, with
    b = 2k + alpha, and the off-diagonal k (k + alpha) / (b sqrt(b^2 - 1));
    no entry is a difference of nearly equal numbers.  The mass is
    1/(alpha + 1); the weights are scaled to it, since the squared first
    components of the eigenvectors sum to 1 only to about 1e-15."""
    k = np.arange(1, n)
    b = 2 * k + alpha
    diag = np.concatenate((
        [(alpha + 1.0) / (alpha + 2.0)],
        ((k + alpha) * (k + alpha + 1.0) + k * (k + 1.0)) / (b * (b + 2.0))))
    off = k * (k + alpha) / (b * np.sqrt((b + 1.0) * (b - 1.0)))
    mu0 = 1.0 / (alpha + 1.0)
    theta, w = _golub_welsch(diag, off, mu0)
    return theta, w * (mu0 / math.fsum(w[0]))


@lru_cache(maxsize=64)
def _jacobi_rule(alpha: float):
    """G16 for the weight u^alpha on [0, 1], GJ(0, alpha) (see
    _gauss_jacobi), with its two error-estimate partners on its own nodes,
    as one rule (u, w) of 16 nodes (see _frozen).  Read-only."""
    return _frozen(*_gauss_jacobi(alpha, _GAUSS_N))


def _sine_measure(alpha: float, n: int):
    """Nodes v and weights of the n-point rule for the weight sin(v)^alpha
    on [0, pi/2]: GJ(0, alpha) on [0, pi/2], which holds the singular v^alpha
    exactly, with the smooth factor (sin v / v)^alpha folded into its
    weights.  It integrates sin(v)^alpha times a polynomial of degree d as
    closely as a polynomial of degree 2n - 1 - d matches that factor, whose
    nearest singularity lies at v = pi."""
    u, w = _gauss_jacobi(alpha, n)
    v = _HALF_PI * u
    return v, w[0] * (_HALF_PI ** (alpha + 1.0) * (np.sin(v) / v) ** alpha)


@lru_cache(maxsize=64)
def _gauss_pair(alpha: float, span: float):
    """G16 for the weight |sin u|^alpha on [0, span], span pi/2 (a
    half-lobe, singular at u = 0) or m pi (a panel of m whole lobes,
    singular at its m + 1 zeros), with two error-estimate partners on its
    own nodes (see _golub_welsch) and the two rows of the end check, the
    degree-15 interpolant at its nodes extrapolated to u = 0 and u = span
    (see _lobe_sums), as one rule (u, w) of 16 nodes (see _frozen).
    Read-only.

    The discretized Stieltjes procedure (Gautschi 1982) takes the recurrence
    of the weight's orthonormal polynomials p_r in x = 2u/span - 1 from the
    _MEASURE_N-point rule for sin(u)^alpha on [0, pi/2] (_sine_measure) as
    the discrete measure, mirrored about the crest for a whole lobe, where
    the weight is even, and repeated over the lobes of a panel.
    """
    v, q = _sine_measure(alpha, _MEASURE_N)
    lobes = round(span / math.pi)
    x = v / (0.5 * min(span, math.pi)) - 1.0
    if lobes:
        x, q = np.concatenate((x, -x)), np.tile(q, 2 * lobes)
        x = np.concatenate([(x + (2 * j + 1 - lobes)) / lobes for j in range(lobes)])
    mu0 = math.fsum(q)
    diag, off = np.empty((2, _GAUSS_N))
    p_prev, p, b = np.zeros_like(x), np.full_like(x, mu0**-0.5), 0.0
    for k in range(_GAUSS_N):
        diag[k] = np.sum(q * x * p * p)
        r = (x - diag[k]) * p - b * p_prev
        b = off[k] = math.sqrt(np.sum(q * r * r))
        p_prev, p = p, r / b
    theta, w = _golub_welsch(diag, off[:-1], mu0)
    return _frozen((theta + 1.0) * (0.5 * span), np.concatenate((w, _extrapolation(theta))))


def _place(u, zero_end, other_end, scale=1.0):
    """Nodes of the pieces between zero_end[i] and other_end[i], one row each
    and divided by scale[i], from their distances u to the zero end."""
    return (np.sign(other_end - zero_end) / scale)[:, None] * u + (zero_end / scale)[:, None]


def _lobe_counts(phase: float, t_max: np.ndarray) -> np.ndarray:
    """How many lobes of a kernel with zeros at k*pi - phase may meet
    (0, t_max[i]], for each i."""
    return np.floor((t_max + phase) / math.pi).astype(int) + 2


def _runs(start: np.ndarray, count: np.ndarray):
    """The integers start[i], ..., start[i] + count[i] - 1 of every i, in
    order, and the i each belongs to."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, start[owner] + np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)


def _whole_lobes(phase: float, t_max: np.ndarray) -> np.ndarray:
    """How many lobes k = 1, 2, ... of a kernel with zeros at k*pi - phase lie
    whole inside (0, t_max[i]], for each i.  The last is the last k with
    (k + 1) pi - phase <= t_max, compared in floats as _kernel_pieces does,
    and lies within one of _lobe_counts - 3."""
    k = _lobe_counts(phase, t_max) - 3
    k += (k + 2) * math.pi - phase <= t_max
    k -= (k + 1) * math.pi - phase > t_max
    return np.maximum(k, 0)


def _two_product(a: np.ndarray, b: float):
    """a * b as p + e exactly, p the rounded product (Dekker 1971): each
    factor splits into two halves of 26 bits, whose products are exact."""
    def split(x):
        c = 134217729.0 * x  # 2^27 + 1
        hi = c - (c - x)
        return hi, x - hi

    p = a * b
    (a_hi, a_lo), (b_hi, b_lo) = split(a), split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _kernel_pieces(phase: float, t_max: np.ndarray, t_lo: np.ndarray,
                   owner: np.ndarray, k: np.ndarray):
    """Rows (zero_end, other_end, length, off) covering the lobes [k pi -
    phase, (k + 1) pi - phase], k = k[j], of the y owner[j], cut to (0,
    t_max[owner[j]]], and the owner of each row: the rising (zero to crest)
    and falling (crest to zero) half of each lobe, cut to the interval,
    with empty pieces dropped.  A length is
    pi/2 or is measured from 0 or the cut, never between zeros; off is
    nonzero only where the cut falls inside a falling half.  Which halves
    are whole is decided in floats, as for the lobes in _whole_lobes, so a cut
    within rounding of a zero or crest counts as at it.  The cut is
    t_max + t_lo exactly, with t_lo the rounding error of t_max, and a
    length or off at the cut is its distance from the zero or crest."""
    t_max, t_lo = t_max[owner], t_lo[owner]
    zero = k * math.pi - phase
    crest = k * math.pi + (_HALF_PI - phase)
    next_zero = (k + 1) * math.pi - phase
    whole = next_zero <= t_max
    # the cut's distances past the zero, crest and next zero of lobe k, which
    # lie at m pi/2 for m = 2k, 2k + 1 and 2k + 2 (one less for the cosine):
    # m * _HALF_PI_HEAD is exact for |m| < 2^21, and so is its difference
    # from a t_max near it, so a cut within 1e-12 of a zero keeps the digits
    # of its distance, which the weight v^a near a = -1 depends on
    m = 2 * k - round(phase / _HALF_PI) + np.arange(3)[:, None]
    past = (t_max - m * _HALF_PI_HEAD) + (t_lo - m * _HALF_PI_TAIL)
    rows = np.empty((len(k), 2, 4))
    rows[:, 0, 0] = zero
    rows[:, 0, 1] = np.minimum(crest, t_max)
    rows[:, 0, 2] = np.where(crest <= t_max, _HALF_PI, past[0])
    rows[:, 0, 3] = 0.0
    rows[:, 1, 0] = np.minimum(next_zero, t_max)
    rows[:, 1, 1] = crest
    rows[:, 1, 2] = np.where(whole, _HALF_PI, past[1])
    rows[:, 1, 3] = np.where(whole, 0.0, np.maximum(-past[2], 0.0))
    rows = rows.reshape(-1, 4)
    keep = (rows[:, 2] > 0.0) & (rows[:, 0] >= 0.0)
    return rows[keep], np.repeat(owner, 2)[keep]


def _rule_sums(f, x: np.ndarray, w: np.ndarray, scale: np.ndarray):
    """Value and error estimate of each row of nodes x under a rule's
    weights w (see _frozen), where the integrand at node t of row i is
    f(t) / scale[i]: the value is the sum under w[0] and the error the sum
    of its distances to the sums under the partners w[1:3] (see
    _golub_welsch).  The sums under any further rows of w follow, one row
    each.  np.vecdot sums each row on its own, so a row's sums do not
    depend on the rows evaluated with it."""
    fx = np.asarray(call_vec(f, x.ravel()), dtype=float).reshape(x.shape)
    sums = np.vecdot(fx, w) / scale
    rule, partners, rest = sums[0], sums[1:1 + len(_NULL_DEGREES)], sums[1 + len(_NULL_DEGREES):]
    return rule, np.sum(np.abs(rule - partners), axis=0), rest


def _lobe_sums(f, alpha: float, zero: np.ndarray, lobes: np.ndarray, y: np.ndarray,
               ends: np.ndarray):
    """Value and error estimate of the panels [zero[i], zero[i] + lobes[i]
    pi] of 1 to _PANEL_LOBES consecutive whole lobes, where the integrand at
    t is f(t / y[i]) / y[i], by the Gauss rule for |sin u|^a on the panel
    laid out as a lattice: node j of row i is (zero[i] + u_j) / y[i], from
    its zero and y alone, with no piece row.  Rows go in chunks of at most
    _CHUNK_NODES nodes, those of one span together.

    A kink of f nearer an end zero than the rule's first node u_1 is seen
    by no node (u_1 = 0.05 at a = 1.5 on one lobe, 0.33 on 8, 1.40 on 64).
    So every panel is checked at its two end zeros: ends holds the
    integrand there (f / y at the zeros, two rows), and the distance of each
    from the rule's degree-15 interpolant, extrapolated to that zero (see
    _gauss_pair), times the weight's mass u_1^(a+1) / (a+1) between the
    zero and u_1, adds to the error."""
    value, error = np.empty((2, len(zero)))
    for m in np.unique(lobes):
        u, w = _gauss_pair(alpha, m * math.pi)
        band = u[0, 0] ** (alpha + 1.0) / (alpha + 1.0)
        rows = np.flatnonzero(lobes == m)
        for first in range(0, len(rows), _CHUNK_NODES // _GAUSS_N):
            at = rows[first:first + _CHUNK_NODES // _GAUSS_N]
            value[at], error[at], extrapolated = _rule_sums(
                f, (zero[at, None] + u) / y[at, None], w, y[at])
            error[at] += band * np.sum(np.abs(ends[:, at] - extrapolated), axis=0)
    return value, error


def _gauss_piece_sums(f, alpha: float, pieces: np.ndarray, scale: np.ndarray):
    """Value and error estimate of each piece by a 16-point Gauss rule,
    where the integrand at node t is f(t / scale) / scale.  A row (zero_end,
    other_end, length, off) of _kernel_pieces, or a half of one (see
    _totals), is the interval [v0, v1] = [off, off + length] of distances
    from its kernel zero, and that interval alone picks the rule:

    - [0, pi/2], a whole half-lobe, takes G16 for sin(v)^a (_gauss_pair).
      GJ(0, a) with the smooth factor folded in would be as accurate, but
      its null rules see that factor's terms of degree 14 and 15, about
      1e-11 of the mass at a = -0.9 or 4.9, and would split smooth
      half-lobes.
    - v0 < length, a piece near its zero, takes GJ(0, a) (_jacobi_rule) on
      [0, v1] less GJ(0, a) on [0, v0], nothing at v0 = 0, both from the
      zero: they hold the weight v^a exactly, and the smooth factor
      (sin v / v)^a is folded into their weights.  A falling half cut
      within pi/4 of its zero is such a piece, so f is evaluated up to
      v0 <= pi/4 past t_max.
    - v0 >= length, a piece at least its length from its zero, takes
      Gauss-Legendre, GJ(0, 0), on [v0, v1] with the kernel sin(v)^a, which
      is smooth there.

    A piece's value and error sum those of its rows.  Rows go in chunks of
    at most _CHUNK_NODES nodes."""
    n = len(pieces)
    zero_end, other_end, length, v0 = pieces.T
    toward = np.sign(other_end - zero_end)
    half_lobe = (v0 == 0.0) & (length == _HALF_PI)
    jacobi = (v0 < length) & ~half_lobe
    less = np.flatnonzero(jacobi & (v0 > 0.0))
    owner = np.concatenate((np.arange(n), less))
    # a row's node u lies |span| u past its start and lo + |span| u from the
    # zero; a subtracted part has a negative span, which flips its weights'
    # sign
    span = np.concatenate((np.where(jacobi, v0 + length, length), -v0[less]))
    half_lobe, jacobi = np.append(half_lobe, np.zeros(len(less), dtype=bool)), jacobi[owner]
    lo = np.where(jacobi, 0.0, v0[owner])
    start = zero_end[owner] - toward[owner] * (v0[owner] - lo)
    y = scale[owner]
    (u_a, w_a), (u_0, w_0) = _jacobi_rule(alpha), _jacobi_rule(0.0)
    value, error = np.empty((2, len(owner)))
    for half in (True, False):
        rows = np.flatnonzero(half_lobe == half)
        for first in range(0, len(rows), _CHUNK_NODES // _GAUSS_N):
            at = rows[first:first + _CHUNK_NODES // _GAUSS_N]
            if half:
                d, w = _gauss_pair(alpha, _HALF_PI)
            else:
                j = jacobi[at, None]
                u = np.where(j, u_a, u_0)
                d = np.abs(span[at, None]) * u
                kernel = (np.sin(lo[at, None] + d) / np.where(j, u, 1.0)) ** alpha
                w = np.where(j, w_a, w_0) * (span[at, None] * kernel)
            t = _place(d, start[at], other_end[owner[at]], y[at])
            value[at], error[at], _ = _rule_sums(f, t, w, y[at])
    return np.bincount(owner, value, n), np.bincount(owner, error, n)


def _bisect(pieces: np.ndarray) -> np.ndarray:
    """Each row of a piece table (see _kernel_pieces) as two rows of the same
    form: its half at the zero's side, then its far half."""
    halves = np.repeat(pieces, 2, axis=0)
    halves[:, 2] *= 0.5
    far = halves[1::2]  # a view: the far halves are moved in place
    far[:, 0] += np.sign(far[:, 1] - far[:, 0]) * far[:, 2]
    far[:, 3] += far[:, 2]
    return halves


def _split(pieces: np.ndarray):
    """The pieces that refine the rows of a piece table (see _kernel_pieces),
    and the row each comes from.  A row near its zero but not at it,
    0 < v0 < length, has rules that reach from the zero across the v0 before
    its start (see _gauss_piece_sums); it splits at the distances v0 2^j
    from the zero, j = 1, ..., m - 1, with m the fewest that reach its end,
    so each piece lies at least its length from the zero, takes
    Gauss-Legendre and evaluates f inside itself alone.  Every other row is
    bisected (_bisect).  The halves come first, then the pieces of the rows
    near their zero; the pieces of a row keep its order."""
    near = (0.0 < pieces[:, 3]) & (pieces[:, 3] < pieces[:, 2])
    if not near.any():  # the common case, at half the cost of the general one
        return _bisect(pieces), np.repeat(np.arange(len(pieces)), 2)
    zero_end, other_end, length, v0 = pieces[near].T
    m = np.ceil(np.log2(1.0 + length / v0)).astype(int)
    m += np.ldexp(v0, m) - v0 < length
    m -= np.ldexp(v0, m - 1) - v0 >= length
    row, j = _runs(np.zeros(len(m), dtype=int), m)
    start = np.ldexp(v0[row], j) - v0[row]
    end = np.where(j < m[row] - 1, np.ldexp(v0[row], j + 1) - v0[row], length[row])
    toward = np.sign(other_end - zero_end)[row]
    geometric = np.column_stack((zero_end[row] + toward * start, other_end[row], end - start,
                                 np.ldexp(v0[row], j)))
    halved = np.flatnonzero(~near)
    return (np.concatenate((_bisect(pieces[halved]), geometric)),
            np.concatenate((np.repeat(halved, 2), np.flatnonzero(near)[row])))


def _panel_layout(phase: float, ys: np.ndarray, whole: np.ndarray):
    """The first panels of the whole lobes 1, ..., whole[i] of each ys[i], as
    rows (owner, k, lobes) in order of owner and k: the lobes k, ..., k +
    lobes - 1 of ys[owner], and after each y's last panel a row of no lobes
    at its last zero.  A panel whose first zero lies at x_start = (k pi -
    phase) / y holds m lobes, the largest power of two with m pi / y <=
    max(_PANEL_X, x_start), at most _PANEL_LOBES and at most the lobes left,
    and one where no m fits.  So the panels grow with their distance from
    the origin, as the x-scale of a decaying f does, and a y's layout
    depends on that y and its lobes alone, not on the others.

    The sizes at most double from one panel to the next until the cap or
    the lobes left bind, a few passes over the ys; from there on a y's
    panels are the runs of _PANEL_LOBES its lobes left hold, then the binary
    digits of the rest, largest first, each taken in closed form.

    The layout bets on f's scale growing with x.  Against panels of 8 that
    halve, the forward curves of the bench's f1, f2 and f3 (400 y) take
    0.82-0.86 of the time and one y at 1e4 a quarter; an f with structure
    far from the origin fails the large panels there and pays for their
    halving: 1.10-1.17 of the time for cos(3x) e^(-x/8), cos(10x) e^(-x/8)
    and e^(-(x-15)^2) (in process, 2 vCPU)."""
    k, left = np.ones(len(ys), dtype=int), whole.copy()
    rows, live = [], np.flatnonzero(left > 0)
    # the x-length of a panel of each power of two up to the cap, per y
    sizes = 1 << np.arange(_PANEL_LOBES.bit_length())
    lengths = (sizes * math.pi) / ys[:, None]
    while len(live):
        bound = np.maximum(_PANEL_X, (k[live] * math.pi - phase) / ys[live])
        m = sizes[np.maximum(np.count_nonzero(lengths[live] <= bound[:, None], axis=1) - 1, 0)]
        grow = (m < _PANEL_LOBES) & (2 * m <= left[live])
        live, m = live[grow], m[grow]
        rows.append((live, k[live], m))
        k[live] += m
        left[live] -= m
    runs, rest = np.divmod(left, _PANEL_LOBES)
    owner, j = _runs(np.zeros(len(ys), dtype=int), runs)
    rows.append((owner, k[owner] + _PANEL_LOBES * j, np.full(len(owner), _PANEL_LOBES)))
    # the binary digits of the rest, largest first
    digits = rest[:, None] & sizes[-2::-1]
    starts = (k + _PANEL_LOBES * runs)[:, None] + np.cumsum(digits, axis=1) - digits
    owner, j = np.nonzero(digits)
    rows.append((owner, starts[owner, j], digits[owner, j]))
    owner = np.flatnonzero(whole)
    rows.append((owner, whole[owner] + 1, np.zeros(len(owner), dtype=int)))
    owner, k, lobes = (np.concatenate(c) for c in zip(*rows))
    order = np.argsort(owner, kind="stable")  # each y's rows came in order of k
    return owner[order], k[order], lobes[order]


def _graded_pieces(pieces: np.ndarray, owner: np.ndarray, part: np.ndarray, ys: np.ndarray):
    """The piece table (see _kernel_pieces) with each row's owner and share
    of its y's tolerance, its rows longer in x than max(_PANEL_X, x_near),
    x_near their end nearer the origin, split (_split) until none is, as
    panels are laid out (see _panel_layout).  The pieces a row splits into
    share its share equally.  Only the long rows go back through the split,
    and the short ones are joined once at the end."""
    out = []
    while True:
        zero_end, other_end, length = pieces[:, :3].T
        near = np.minimum(zero_end, zero_end + np.sign(other_end - zero_end) * length)
        long = length > np.maximum(_PANEL_X * ys[owner], near)
        if not long.any():
            break
        out.append((pieces[~long], owner[~long], part[~long]))
        pieces, parent = _split(pieces[long])
        owner, part = owner[long][parent], (part[long] / np.bincount(parent))[parent]
    return (np.concatenate(c) for c in zip(*out, (pieces, owner, part)))


def _lobe_pass(f, alpha: float, ys: np.ndarray, phase: float, spec: QuadSpec):
    """The whole-lobe pass of _totals over its block of ys.  Returns the
    value, error and L1 mass of the kept panels summed per y, the pieces
    left for the rounds (every cut piece, and both halves of the sine's
    first lobe and of each lobe that failed) with the y each belongs to, and
    each y's count of pieces in the half-lobe split.

    The whole lobes 1, ..., whole of a y (_whole_lobes) start as panels of
    a power of two up to _PANEL_LOBES lobes from the zero pi - phase on,
    sized in x (_panel_layout); the sine's first lobe starts at x = 0,
    outside (0, t_max], where f may be undefined, and goes with the cut
    pieces.  f is evaluated once at each panel end zero, for both panels
    that meet there (see _lobe_sums).  A panel of m lobes is kept when its
    error meets the share of its 2m half-lobes, at quadrature precision, of
    the mass of the y's kept and current panels.  One that fails halves at
    its middle zero, into panels of floor(m/2) and ceil(m/2) lobes, at one
    evaluation of f; a lobe that fails leaves its two half-lobes to the
    rounds."""
    n, (t_max, t_lo) = len(ys), _two_product(ys, spec.tail_cut)
    count, whole = _lobe_counts(phase, t_max), _whole_lobes(phase, t_max)
    # the lobes left to pieces: the first, from x = 0 for the sine and across
    # it for the cosine, and those past the whole ones
    owner, k = _runs(whole, count - whole)
    k[k == whole[owner]] = 0
    pieces, piece_owner = _kernel_pieces(phase, t_max, t_lo, owner, k)
    # the pieces every y has in the half-lobe split, two per whole lobe
    counts = np.bincount(piece_owner, minlength=n) + 2 * whole
    if not counts.all():
        t_cut = ys[counts == 0][0] * spec.tail_cut
        raise ValueError(f"y * tail_cut = {t_cut:.3g} is too small for a kernel piece")
    tol = 2.0 * min(spec.rel_tol, _LOBE_REL_TOL) / counts

    def at_zeros(owner, k):
        return np.asarray(call_vec(f, (k * math.pi - phase) / ys[owner]), dtype=float) / ys[owner]

    # each y's panel end zeros: one per panel, and one past its last
    owner, k, lobes = _panel_layout(phase, ys, whole)
    ends = at_zeros(owner, k)
    at = np.flatnonzero(lobes)  # each panel's start
    owner, k, lobes, ends = owner[at], k[at], lobes[at], np.stack((ends[at], ends[at + 1]))
    kept, failed = np.zeros((3, n)), [np.empty((2, 0), dtype=int)]
    while len(k):
        value, error = _lobe_sums(f, alpha, k * math.pi - phase, lobes, ys[owner], ends)
        ok = error <= lobes * (tol * (kept[2] + np.bincount(owner, np.abs(value), n)))[owner]
        kept += [np.bincount(owner[ok], v[ok], n) for v in (value, error, np.abs(value))]
        failed.append(np.stack((owner, k))[:, ~ok & (lobes == 1)])
        split = ~ok & (lobes > 1)
        owner, k, lobes, ends = owner[split], k[split], lobes[split], ends[:, split]
        half = lobes // 2
        middle = at_zeros(owner, k + half)
        owner, k, lobes, ends = (np.tile(owner, 2), np.append(k, k + half),
                                 np.append(half, lobes - half),
                                 np.stack((np.append(ends[0], middle), np.append(middle, ends[1]))))
    halves, half_owner = _kernel_pieces(phase, t_max, t_lo, *np.concatenate(failed, axis=1))
    return (*kept, np.concatenate((pieces, halves)), np.append(piece_owner, half_owner), counts)


def _totals(f, alpha: float, ys: np.ndarray, phase: float, spec: QuadSpec) -> np.ndarray:
    """The integral at each of ys, refined together.  Each y keeps its own
    stopping rule: a piece is refined while its y has not met its tolerance
    and its error exceeds its share of it.  A y's tolerance is rel_tol times
    its integrand's L1 mass, the sum of |value| over its lobes and pieces,
    so a tiny integral, as at small y and large a, keeps its relative
    digits; abs_tol is a floor.

    Every whole lobe inside (0, y tail_cut], the sine's first aside, first
    takes a Gauss rule for |sin u|^a (_lobe_pass), in a panel sized in x of
    up to _PANEL_LOBES lobes (_panel_layout), checked at its end zeros, and
    is kept only at quadrature precision: the estimate within the share of
    its halves of min(rel_tol, _LOBE_REL_TOL) times the mass of the y's
    panels.  A kept panel is final; a failed one halves, down to single
    lobes.  A lobe that fails splits into its half-lobes before the first
    round, so they take the path of every other piece: first a split to the
    lengths panels may reach there (_graded_pieces), then the Gauss pass
    (_gauss_piece_sums), and, for a piece over its share, a split (_split),
    the new pieces going back through the Gauss pass, for up to _ROUNDS
    rounds.  A piece of a y split
    into c pieces in the half-lobe split starts with 1/(2c) of the y's
    tolerance, and the pieces a piece splits into share its share equally; a
    piece whose estimate is within _ROUNDING of its |value| is at rounding
    level and is not split again.  A y that meets its tolerance is final,
    and its pieces leave the table."""
    n = len(ys)
    kept_total, kept_error, kept_mass, pieces, piece_owner, counts = _lobe_pass(
        f, alpha, ys, phase, spec)
    pieces, piece_owner, part = _graded_pieces(pieces, piece_owner, 0.5 / counts[piece_owner], ys)
    value, error = _gauss_piece_sums(f, alpha, pieces, ys[piece_owner])
    out, live = np.empty(n), np.ones(n, dtype=bool)
    for rounds in range(_ROUNDS + 1):
        total = kept_total + np.bincount(piece_owner, value, n)
        total_err = kept_error + np.bincount(piece_owner, error, n)
        # a non-finite value, as from f past t_max, is left out of the mass,
        # so the y's other pieces keep finite shares while it is refined
        finite = np.where(np.isfinite(value), np.abs(value), 0.0)
        mass = kept_mass + np.bincount(piece_owner, finite, n)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * mass)
        open_ = live & ~(total_err <= tol)
        out[live & ~open_] = total[live & ~open_]
        live = open_
        if not open_.any():
            return out
        share = np.maximum(tol[piece_owner] * part, _ROUNDING * finite)
        # a non-finite estimate counts as over only where the rule evaluates f
        # past t_max, a difference of two GJ(0, a) rows; no split mends another
        past = (0.0 < pieces[:, 3]) & (pieces[:, 3] < pieces[:, 2])
        bad = open_[piece_owner] & ~(error <= share) & (np.isfinite(error) | past)
        if rounds == _ROUNDS or not bad.any():
            i = np.flatnonzero(open_)[0]
            raise NonConvergence(
                f"integrate_kernel_split: error {total_err[i]:.3e} above tolerance at y={ys[i]}"
            )
        new, parent = _split(pieces[bad])
        new_owner = piece_owner[bad][parent]
        sums = _gauss_piece_sums(f, alpha, new, ys[new_owner])
        keep = open_[piece_owner] & ~bad
        pieces, piece_owner, part, value, error = (
            np.concatenate((old[keep], add)) for old, add in (
                (pieces, new), (piece_owner, new_owner),
                (part, (part[bad] / np.bincount(parent))[parent]),
                (value, sums[0]), (error, sums[1])))


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
    cosine), integrates the whole lobes of each y in panels of a power of
    two up to _PANEL_LOBES consecutive lobes, no longer in x than
    max(_PANEL_X, their distance from the origin) unless one lobe (see
    _panel_layout), each with the 16-point Gauss rule for the |sin u|^a
    weight on the panel; each other half-lobe (the sine's first lobe, from
    x = 0, goes as two) with the one on [0, pi/2] and each piece cut at
    tail_cut with the Gauss-Jacobi rule GJ(0, a), or Gauss-Legendre on a
    falling half cut more than pi/4 from its zero (one cut nearer is its
    whole half-lobe less the part past the cut, so f is evaluated up to
    pi/(4y) past tail_cut), each first split to the length a panel may
    reach there.  It refines what its error estimate leaves open by
    splitting: a panel into halves at its middle zero, a lobe into
    half-lobes, any other piece over the budget of its y at its midpoint, or
    at v0 2^j where its rules reach past it toward its zero, round by round
    (see _totals).  A Gauss rule's estimate comes from its null rules of
    degree 15 and 14 on its own nodes, so it costs no evaluations of f
    beyond the rule's 16; a panel's end check adds one evaluation at each
    end zero, shared by the panels that meet there (see _lobe_sums).  The y
    run in blocks of consecutive y holding at most _LOBE_BLOCK lobes
    together, a y with more lobes alone, which bounds the memory a long
    curve takes; no value depends on the block.
    """
    spec = spec or QuadSpec()
    alpha = as_alpha(alpha)
    if kernel not in ("sine", "cosine"):
        raise ValueError(f"kernel must be 'sine' or 'cosine', got {kernel!r}")
    phase = 0.0 if kernel == "sine" else _HALF_PI

    def totals(ys: np.ndarray) -> np.ndarray:
        out = np.empty(len(ys))
        ends = np.cumsum(_lobe_counts(phase, ys * spec.tail_cut))
        lo = 0
        while lo < len(ys):
            # the y from lo on whose lobes fit in the budget, and at least one
            start = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, start + _LOBE_BLOCK, side="right")))
            out[lo:hi] = _totals(f, alpha.value, ys[lo:hi], phase, spec)
            lo = hi
        return out

    return _pointwise(totals, y, "y", "positive")


def integrate(f, spec: QuadSpec | None = None) -> float:
    """Integral of f over (0, tail_cut]: the lobe rule at a = 0, where the
    kernel |sin|^0 is 1."""
    return integrate_kernel_split(f, 0.0, 1.0, spec)
