"""Integrals of |sin(xy)|^a f(x) and |cos(xy)|^a f(x) over (0, tail_cut],
split at the kernel's zeros.  This docstring is the one account of the
algorithm; the functions below state their contracts.

In t = xy the zeros lie at k pi - phase, phase 0 for the sine and pi/2 for
the cosine, and on the lobe between two of them the kernel is |sin u|^a, u
the distance from its first zero.  So each singular zero sits in the weight
of a Gauss rule, as in QUADPACK's QAWS, and f only has to be smooth.

Rules.  Every rule is a 16-point Gauss rule, G16, in one form (u, w): each
node's distance u from its zero end, and weight rows, the rule and then G16
less its null rules N_r of degree 15 and 14 on the same nodes, and on a
panel's rule of degree 13 and 12 too.  A piece's estimate is e1 = |N15 f| +
|N14 f|, the sum of the rule's distances to the first two (Berntsen &
Espelid 1991), at no evaluation of f beyond the 16; it bounds the error of
a degree-14 rule, not G16's.  A panel's also reads how fast the null rules
fall, their asymptotic branch at critical ratio 1: where f is analytic on
the panel the pairs decay geometrically, by r = e1 / e2 per two degrees
with e2 = |N13 f| + |N12 f|, and G16's error is about e1 r^8.5, so the
estimate is e1 min(1, r)^2.  Where they do not decay it stays e1, and at a
kink they decay slowly if at all, so a kinked panel's estimate stays far
above quadrature precision, if not always above its error (nor is e1).
Pieces keep e1: two more rows, which GJ(0, a) and Gauss-Legendre pieces
weight per piece, would cost more than the failures they spare.

All rules are of one family: GJ(0, a), for u^a on [0, 1], from its
closed-form recurrence, and the rules for |sin u|^a on [0, pi/2] (a
half-lobe) and on [0, m pi] (a panel of m whole lobes), from the Stieltjes
procedure on the _MEASURE_N-point GJ(0, a) rule with the smooth factor
(sin v / v)^a folded into its weights.

Panels.  The lobes of a y that lie whole in (0, y tail_cut], the sine's
first aside, are laid out as panels of m consecutive lobes, m a power of
two up to _PANEL_LOBES, sized in x and not by the kernel: a panel whose
first zero lies at x_start holds the largest m with m pi / y <= x_start
clipped to [_PANEL_X, _PANEL_X_MAX] that fits in the lobes left, or one
lobe where none does.  So panels grow with their distance from the origin,
as the x-scale of a decaying f does, in a graded mesh that depends on y
alone; an f with structure far from the origin pays for halving the large
panels there.  A panel takes the rule for [0, m pi] on a lattice: its node
j is (k pi - phase + u_j) / y, from its first zero k and y alone.

End check.  A panel's first node u_1 lies far from its end zeros (0.05 at
a = 1.5 on one lobe, 0.33 on 8, 1.40 on 64), and a kink of f nearer a zero
is seen by no node.  So f is also evaluated at each end zero, once for the
two panels that meet there, and its distance from the rule's degree-15
interpolant extrapolated to the zero adds to the estimate, weighted by the
kernel's mass u_1^(a+1) / (a+1) between the zero and u_1: the mass the
nodes do not see, which also keeps the extrapolation's rounding (weights of
total size up to 2137 on one lobe at a = 4.5) within 2e-18 of the lobe's.

Halving.  A panel of m lobes is kept when its estimate, the end check
included, meets the share of its 2m half-lobes of min(rel_tol,
_LOBE_REL_TOL) times the mass of its y's kept and current panels.  One
that fails halves at its middle zero into two panels of m/2, at one more
evaluation of f, and a lobe that fails, as one holding a kink does, leaves
its two half-lobes to the pieces.  The sine's first lobe starts at x = 0,
where f is not evaluated, and goes there as two half-lobes too.

Pieces.  Every other part of (0, y tail_cut] lies between a zero and a
crest: a row (zero_end, toward, length, off) of a piece table, which runs
length from zero_end in the direction toward = +1 or -1 and has its kernel
zero off beyond zero_end.  It is the interval [v0, v1] = [off, off + length]
of distances from its zero, and that alone picks its rule:

- [0, pi/2], a whole half-lobe, takes the rule for sin(v)^a there.  GJ(0, a)
  with the smooth factor folded in would be as accurate, but its null rules
  see that factor's terms of degree 14 and 15, about 1e-11 of the mass at
  a = -0.9 or 4.9, and would split smooth half-lobes.
- v0 < length, near its zero, takes GJ(0, a) on [0, v1] less GJ(0, a) on
  [0, v0] (none at v0 = 0), both from the zero, with (sin v / v)^a folded
  into their weights.  Where 0 < v0 < length (_reaches_outside) these
  evaluate f between the zero and the piece: a falling half cut within
  pi/4 of its zero is such a piece, so f is evaluated up to pi/(4y) past
  tail_cut, which spares splitting every such cut.
- v0 >= length takes Gauss-Legendre, GJ(0, 0), on [v0, v1] with the kernel
  sin(v)^a, smooth there.

A piece at the cut has its length and off from the zero or crest to y
tail_cut, taken as the exact sum _two_product gives less m pi/2 in a head
and a tail, so a cut within 1e-12 of a zero keeps the digits that v^a needs
there near a = -1.  Which lobes and halves are whole is decided in floats,
so a cut within rounding of a zero counts as at it: tail_cut = math.pi at
y = 1 takes the whole lobe [0, pi].  Before their first pass, pieces longer
in x than a panel may be there are split to that length, as in the rounds.

Refinement.  Each y stops on its own tolerance, max(abs_tol, rel_tol times
its integrand's L1 mass), the sum of |value| over its panels and pieces, so
a transform as small as y^a at small y keeps its relative digits.  A piece
of a y with c pieces in the half-lobe split starts with 1/(2c) of the
tolerance, and the pieces a piece splits into share its share equally.
Round by round, while its y is open, a piece over its share is split: at
its midpoint, as in QUADPACK's QAG, or, where 0 < v0 < length, at the
distances v0 2^j from its zero into the fewest pieces that each lie at
least their length from it, take Gauss-Legendre and evaluate f inside
themselves alone.  A piece whose estimate is within _ROUNDING of its
|value| is not split again; a y still open after _ROUNDS rounds raises
NonConvergence.

Blocks.  A curve runs in blocks of consecutive y that hold at most
_LOBE_BLOCK lobes together, a y with more alone.  Within a block the panels
of every y share each level of the halving and the pieces one table, and
every row is summed on its own (np.vecdot), so no value depends on the
block or on the chunk a row is evaluated in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergence
from .grid import _pointwise, _scalar, call_vec
from .specfun import as_alpha

_HALF_PI = 0.5 * math.pi
# pi/2 as a head of 32 significant bits, so that m times it is exact for
# |m| < 2^21, and the rest; sin(fl(pi)) is pi - fl(pi) to double precision
_HALF_PI_HEAD = math.ldexp(math.floor(math.ldexp(_HALF_PI, 31)), -31)
_HALF_PI_TAIL = (_HALF_PI - _HALF_PI_HEAD) + 0.5 * math.sin(math.pi)
_GAUSS_N = 16
_NULL_DEGREES = (15, 14)
# a panel's rule also carries these, to read how fast its null rules decay
_DECAY_DEGREES = (13, 12)
# a panel's share is taken at this relative tolerance when the caller's is
# looser: at the CLI's 1e-6 for sampled input, kinked panels would pass with
# an error their estimate understates
_LOBE_REL_TOL = 1e-10
# a piece over its share is bisected for at most _ROUNDS rounds, to 2^-30 of
# its length, which cuts a kink's error by 2^-60 but a step's by 2^-30 only;
# an estimate within _ROUNDING of the piece's |value| is not worth a split
_ROUNDS = 30
_ROUNDING = 16 * np.finfo(float).eps
# these bound the memory of a long curve without changing any value.  A
# block keeps arrays per panel and per piece, not per lobe: at peak 23 bytes
# a lobe on a smooth f, 530 on the kinks of 2001 linear samples.  It pays
# the bookkeeping of each halving level and round once, so one block holds
# a curve of 400 y up to y tail_cut = 600 (38,892 lobes)
_LOBE_BLOCK = 65536
_CHUNK_NODES = 8192
# past _PANEL_X_MAX in x an f whose scale stops growing, as that of
# cos(x) e^{-x/3} does, aliases on a panel's 16 nodes and its estimate can
# fall below its error, so no panel or piece grows longer
_PANEL_LOBES = 64
_PANEL_X = 2.0
_PANEL_X_MAX = 64.0
# the Stieltjes procedure integrates p_r^2 x for r <= 16, degree 33, times
# the smooth factor (sin v / v)^a of _gauss_pair's measure, and 64 nodes
# leave 94 degrees for that factor, whose Chebyshev coefficients on
# [0, pi/2] fall as 5.8^-k (it is singular at v = pi), far below rounding
# there
_MEASURE_N = 64


@dataclass(frozen=True)
class QuadSpec:
    # a floor only: the relative tolerance scales with the integrand's mass
    abs_tol: float = 1e-300
    rel_tol: float = 1e-10
    tail_cut: float = 30.0

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "tail_cut"):
            object.__setattr__(self, name, _scalar(getattr(self, name), name, "positive"))


def _golub_welsch(diag: np.ndarray, off: np.ndarray, mu0: float, degrees=_NULL_DEGREES):
    """Nodes and weight rows of the Gauss rule whose Jacobi matrix has this
    diagonal and off-diagonal, for a weight of mass mu0 (Golub & Welsch
    1969): the rule, then the rule less each null rule of the given degrees.
    Row r of the eigenvectors v is p_r(x) sqrt(g), so mu0 v_0 v_r sums every
    polynomial of degree below r to zero but not p_r: the null rule of
    degree r (Berntsen & Espelid 1991)."""
    theta, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    g = mu0 * v[0] ** 2
    return theta, np.stack([g] + [g - mu0 * v[0] * v[r] for r in degrees])


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
    """Nodes and weight rows (see _golub_welsch) of the n-point rule
    GJ(0, alpha) for the weight u^alpha on [0, 1]; on [0, L] its nodes scale
    by L and its weights by L^(alpha + 1), exactly.  Its recurrence is the
    Jacobi weight's closed form (Gautschi 2004, section 1.5.5) in u = (x +
    1)/2, in which no entry is a difference of nearly equal numbers.  The
    weights are scaled to the mass 1/(alpha + 1), since the squared first
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
    """G16 for u^alpha on [0, 1], GJ(0, alpha), as a read-only rule (u, w)."""
    return _frozen(*_gauss_jacobi(alpha, _GAUSS_N))


@lru_cache(maxsize=64)
def _gauss_pair(alpha: float, span: float):
    """G16 for |sin u|^alpha on [0, span], span pi/2 or m pi, as a read-only
    rule (u, w) whose rows are the rule, its partners of _NULL_DEGREES and
    _DECAY_DEGREES, and two that extrapolate the degree-15 interpolant at its
    nodes to u = 0 and u = span.  Its recurrence comes from the
    discretized Stieltjes procedure (Gautschi 1982) on the _MEASURE_N-point
    GJ(0, alpha) rule on [0, pi/2] with (sin v / v)^alpha folded into its
    weights, mirrored about the crest for a whole lobe and repeated over the
    lobes of a panel."""
    u, w = _gauss_jacobi(alpha, _MEASURE_N)
    v = _HALF_PI * u
    q = w[0] * (_HALF_PI ** (alpha + 1.0) * (np.sin(v) / v) ** alpha)
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
    theta, w = _golub_welsch(diag, off[:-1], mu0, _NULL_DEGREES + _DECAY_DEGREES)
    return _frozen((theta + 1.0) * (0.5 * span), np.concatenate((w, _extrapolation(theta))))


def _place(u, zero_end, toward, scale=1.0):
    """Nodes of the pieces that run from zero_end[i] in the direction
    toward[i] = +1 or -1, one row each and divided by scale[i], from their
    distances u to the zero end."""
    return (toward / scale)[:, None] * u + (zero_end / scale)[:, None]


def _lobe_counts(phase: float, t_max: np.ndarray) -> np.ndarray:
    """How many lobes of a kernel with zeros at k*pi - phase may meet
    (0, t_max[i]], for each i, t_max = y tail_cut; a count past int64 is
    refused."""
    lobes = (t_max + phase) / math.pi
    if not np.all(lobes < 2.0**63):
        raise ValueError(f"y * tail_cut = {np.max(t_max):.3g} has more lobes than int64 holds")
    return np.floor(lobes).astype(int) + 2


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
    """Rows (zero_end, toward, length, off) of the rising and falling halves
    of the lobes [k pi - phase, (k + 1) pi - phase], k = k[j], of the y
    owner[j], cut to (0, t_max + t_lo], t_lo the rounding error of t_max,
    empty ones dropped, and the owner of each row.  A length is pi/2 or is
    measured from 0 or the cut, never between zeros."""
    t_max, t_lo = t_max[owner], t_lo[owner]
    zero = k * math.pi - phase
    crest = k * math.pi + (_HALF_PI - phase)
    next_zero = (k + 1) * math.pi - phase
    whole = next_zero <= t_max
    # the cut's distances past the zero, crest and next zero of lobe k, at
    # m pi/2 for m = 2k, 2k + 1 and 2k + 2 (one less for the cosine)
    m = 2 * k - round(phase / _HALF_PI) + np.arange(3)[:, None]
    past = (t_max - m * _HALF_PI_HEAD) + (t_lo - m * _HALF_PI_TAIL)
    rows = np.empty((len(k), 2, 4))
    rows[:, :, 1] = (1.0, -1.0)
    rows[:, 0, 0] = zero
    rows[:, 0, 2] = np.where(crest <= t_max, _HALF_PI, past[0])
    rows[:, 0, 3] = 0.0
    rows[:, 1, 0] = np.minimum(next_zero, t_max)
    rows[:, 1, 2] = np.where(whole, _HALF_PI, past[1])
    rows[:, 1, 3] = np.where(whole, 0.0, np.maximum(-past[2], 0.0))
    rows = rows.reshape(-1, 4)
    keep = (rows[:, 2] > 0.0) & (rows[:, 0] >= 0.0)
    return rows[keep], np.repeat(owner, 2)[keep]


def _reaches_outside(pieces: np.ndarray) -> np.ndarray:
    """Whether each piece row has its zero 0 < off < length beyond its
    start, so that its GJ(0, a) rules evaluate f between the zero and the
    piece."""
    return (0.0 < pieces[:, 3]) & (pieces[:, 3] < pieces[:, 2])


def _rule_sums(f, x: np.ndarray, w: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The sums of each row of nodes x under every weight row of w, the
    integrand at node t of row i being f(t) / scale[i].  Each row is summed
    on its own."""
    fx = np.asarray(call_vec(f, x.ravel()), dtype=float).reshape(x.shape)
    return np.vecdot(fx, w) / scale


def _null_sum(sums: np.ndarray, first: int = 1) -> np.ndarray:
    """|N_r f| + |N_s f| of two null rules: the rule's sums, row 0, less its
    partners' in rows first and first + 1."""
    return np.sum(np.abs(sums[0] - sums[first:first + 2]), axis=0)


def _lobe_sums(f, alpha: float, zero: np.ndarray, lobes: np.ndarray, y: np.ndarray,
               ends: np.ndarray):
    """Value and error estimate, end check included, of the panels [zero[i],
    zero[i] + lobes[i] pi] in t, the integrand at t being f(t / y[i]) /
    y[i], and ends[:, i] that integrand at the panel's two end zeros."""
    # the rule, its partners, and its two end rows
    sums = np.empty((1 + len(_NULL_DEGREES + _DECAY_DEGREES) + 2, len(zero)))
    band = np.empty(len(zero))
    for m in np.unique(lobes):
        u, w = _gauss_pair(alpha, m * math.pi)
        rows = np.flatnonzero(lobes == m)
        band[rows] = u[0, 0] ** (alpha + 1.0) / (alpha + 1.0)
        for first in range(0, len(rows), _CHUNK_NODES // _GAUSS_N):
            at = rows[first:first + _CHUNK_NODES // _GAUSS_N]
            sums[:, at] = _rule_sums(f, (zero[at, None] + u) / y[at, None], w, y[at])
    e1, e2 = _null_sum(sums), _null_sum(sums, 1 + len(_NULL_DEGREES))
    ratio = np.divide(e1, e2, out=np.ones_like(e1), where=e1 < e2)
    return sums[0], e1 * ratio**2 + band * np.sum(np.abs(ends - sums[-2:]), axis=0)


def _gauss_piece_sums(f, alpha: float, pieces: np.ndarray, scale: np.ndarray):
    """Value and error estimate of each piece row, the integrand at t being
    f(t / scale) / scale, on the rule its interval [off, off + length]
    picks."""
    n = len(pieces)
    zero_end, toward, length, v0 = pieces.T
    half_lobe = (v0 == 0.0) & (length == _HALF_PI)
    jacobi = (v0 < length) & ~half_lobe
    less = np.flatnonzero(_reaches_outside(pieces))
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
                w = w[:1 + len(_NULL_DEGREES)]
            else:
                j = jacobi[at, None]
                u = np.where(j, u_a, u_0)
                d = np.abs(span[at, None]) * u
                kernel = (np.sin(lo[at, None] + d) / np.where(j, u, 1.0)) ** alpha
                w = np.where(j, w_a, w_0) * (span[at, None] * kernel)
            t = _place(d, start[at], toward[owner[at]], y[at])
            sums = _rule_sums(f, t, w, y[at])
            value[at], error[at] = sums[0], _null_sum(sums)
    return np.bincount(owner, value, n), np.bincount(owner, error, n)


def _bisect(pieces: np.ndarray) -> np.ndarray:
    """Each piece row as two rows: its half at the zero's side, then its far
    half, whose zero_end and off move half its length on."""
    halves = np.repeat(pieces, 2, axis=0)
    halves[:, 2] *= 0.5
    far = halves[1::2]  # a view: the far halves are moved in place
    far[:, 0] += far[:, 1] * far[:, 2]
    far[:, 3] += far[:, 2]
    return halves


def _split(pieces: np.ndarray, owner: np.ndarray, part: np.ndarray):
    """The pieces that refine the piece rows of owners owner and shares part
    of their y's tolerance, with the owner and share of each; the pieces of
    a row share its share equally and keep its order.  A row that
    _reaches_outside splits at the distances v0 2^j from its zero, j = 1,
    ..., m - 1, into the fewest pieces that each lie at least their length
    from it; every other row is bisected (_bisect).  The halves come first."""
    near = _reaches_outside(pieces)
    if not near.any():  # the common case, at half the cost of the general one
        new, parent = _bisect(pieces), np.repeat(np.arange(len(pieces)), 2)
    else:
        zero_end, toward, length, v0 = pieces[near].T
        m = np.ceil(np.log2(1.0 + length / v0)).astype(int)
        m += np.ldexp(v0, m) - v0 < length
        m -= np.ldexp(v0, m - 1) - v0 >= length
        row, j = _runs(np.zeros(len(m), dtype=int), m)
        off = np.ldexp(v0[row], j)
        start = off - v0[row]
        # v0 2^j long, the last cut to the row's end, and never longer than
        # off, which a difference of the rounded ends may be
        geometric = np.column_stack((zero_end[row] + toward[row] * start, toward[row],
                                     np.minimum(off, length[row] - start), off))
        halved = np.flatnonzero(~near)
        new = np.concatenate((_bisect(pieces[halved]), geometric))
        parent = np.concatenate((np.repeat(halved, 2), np.flatnonzero(near)[row]))
    return new, owner[parent], (part / np.bincount(parent))[parent]


def _panel_layout(phase: float, ys: np.ndarray, whole: np.ndarray):
    """The first panels of the whole lobes 1, ..., whole[i] of each ys[i], as
    rows (owner, k, lobes) in order of owner and k, each the lobes k, ..., k
    + lobes - 1 of ys[owner], and after each y's last panel a row of no lobes
    at its last zero.

    In closed form: the first panel holds m0 lobes and none more than cap,
    the largest powers of two up to _PANEL_LOBES with m pi / y <= _PANEL_X
    and <= _PANEL_X_MAX, else 1.  Past the first panel x_start admits
    exactly the largest power of two at most k - phase/pi, so the sizes run
    m1, 2 m1, 4 m1, ..., m1 = 2 for the sine at m0 = 1, else m0, each taken
    while below the cap and while it fits in the lobes left; the rest is
    runs of the cap, then the binary digits of what remains, largest first.
    (A size that fits but not twice is the largest binary digit of the
    lobes left, so either way gives the same panels.)"""
    sizes = 1 << np.arange(_PANEL_LOBES.bit_length())
    lengths = (sizes * math.pi) / ys[:, None]
    m0, cap = (sizes[np.maximum(np.count_nonzero(lengths <= x, axis=1) - 1, 0)]
               for x in (_PANEL_X, _PANEL_X_MAX))
    m1 = np.where((m0 == 1) & (phase == 0.0), 2, m0)
    # each y's table of sizes, and how many panels of each it takes
    grow = np.column_stack((m0, m1[:, None] << np.arange(len(sizes) - 1)))
    taken = (grow < cap[:, None]) & (np.cumsum(grow, axis=1) <= whole[:, None])
    runs, rest = np.divmod(whole - np.sum(grow * taken, axis=1), cap)
    size = np.column_stack((grow, cap, np.tile(np.append(sizes[-2::-1], 0), (len(ys), 1))))
    count = np.column_stack((taken, runs, (rest[:, None] & sizes[-2::-1]) > 0, whole > 0))
    lobes = np.repeat(size.ravel(), count.ravel())
    owner = np.repeat(np.arange(len(ys)), np.sum(count, axis=1))
    return owner, 1 + np.cumsum(lobes) - lobes - (np.cumsum(whole) - whole)[owner], lobes


def _graded_pieces(pieces: np.ndarray, owner: np.ndarray, part: np.ndarray, ys: np.ndarray):
    """The piece rows of owners owner and shares part, each split (_split)
    until none is longer in x than its end nearer the origin clipped to
    [_PANEL_X, _PANEL_X_MAX], with the owner and share of each."""
    out = []
    while True:
        zero_end, toward, length = pieces[:, :3].T
        near = np.minimum(zero_end, zero_end + toward * length)
        long = length > np.clip(near, _PANEL_X * ys[owner], _PANEL_X_MAX * ys[owner])
        if not long.any():
            break
        out.append((pieces[~long], owner[~long], part[~long]))
        pieces, owner, part = _split(pieces[long], owner[long], part[long])
    return (np.concatenate(c) for c in zip(*out, (pieces, owner, part)))


def _lobe_pass(f, alpha: float, ys: np.ndarray, phase: float, spec: QuadSpec):
    """The panels of a block of ys: the value, error and L1 mass of the kept
    panels summed per y, the piece rows left (the cut pieces, and the halves
    of the sine's first lobe and of each lobe that failed) with the y each
    belongs to, and each y's count of pieces in the half-lobe split."""
    n, (t_max, t_lo) = len(ys), _two_product(ys, spec.tail_cut)
    count, whole = _lobe_counts(phase, t_max), _whole_lobes(phase, t_max)
    # the lobes left to pieces: the first, from x = 0 for the sine and across
    # it for the cosine, and those past the whole ones
    owner, k = _runs(whole, count - whole)
    k[k == whole[owner]] = 0
    pieces, piece_owner = _kernel_pieces(phase, t_max, t_lo, owner, k)
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
        owner, k, lobes, ends = owner[split], k[split], lobes[split] // 2, ends[:, split]
        middle = at_zeros(owner, k + lobes)
        owner, k, lobes, ends = (np.tile(owner, 2), np.append(k, k + lobes), np.tile(lobes, 2),
                                 np.stack((np.append(ends[0], middle), np.append(middle, ends[1]))))
    halves, half_owner = _kernel_pieces(phase, t_max, t_lo, *np.concatenate(failed, axis=1))
    return (*kept, np.concatenate((pieces, halves)), np.append(piece_owner, half_owner), counts)


def _totals(f, alpha: float, ys: np.ndarray, phase: float, spec: QuadSpec) -> np.ndarray:
    """The integral at each of a block of ys: the panels (_lobe_pass), then
    the pieces, graded (_graded_pieces) and refined round by round until
    every y meets its own tolerance.  Raises NonConvergence naming the first
    y that does not."""
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
        # a non-finite estimate counts as over only where the rules evaluate f
        # outside the piece, as past t_max; no split mends another
        bad = open_[piece_owner] & ~(error <= share) & (np.isfinite(error) | _reaches_outside(pieces))
        if rounds == _ROUNDS or not bad.any():
            i = np.flatnonzero(open_)[0]
            raise NonConvergence(
                f"integrate_kernel_split: error {total_err[i]:.3e} above tolerance at y={ys[i]}"
            )
        new, new_owner, new_part = _split(pieces[bad], piece_owner[bad], part[bad])
        sums = _gauss_piece_sums(f, alpha, new, ys[new_owner])
        keep = open_[piece_owner] & ~bad
        pieces, piece_owner, part, value, error = (
            np.concatenate((old[keep], add)) for old, add in (
                (pieces, new), (piece_owner, new_owner), (part, new_part),
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

    f takes an array of x and is evaluated only at 0 < x <= tail_cut +
    pi/(4y), never at the origin.  Each y stops on its own tolerance,
    rel_tol times the L1 mass of its integrand, abs_tol a floor; one that
    does not converge raises NonConvergence.  The module docstring gives
    the algorithm.
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
            out[lo:hi] = _totals(f, alpha, ys[lo:hi], phase, spec)
            lo = hi
        return out

    return _pointwise(totals, y, "y", "positive")


def integrate(f, spec: QuadSpec | None = None) -> float:
    """Integral of f over (0, tail_cut]: the lobe rule at a = 0, where the
    kernel |sin|^0 is 1."""
    return integrate_kernel_split(f, 0.0, 1.0, spec)
