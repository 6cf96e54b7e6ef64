"""Numerical integration by kernel-zero-aware lobe rules.

The |sin(xy)|^a and |cos(xy)|^a kernels vanish like |u|^a at their zeros, so
the integral is split at them.  On a whole lobe between two zeros the kernel
is the fixed weight sin(u)^a on [0, pi], u the distance to the first zero,
so both singular ends live in the weight of a Gauss rule (as in QUADPACK's
QAWS) and f only has to be smooth on the lobe: the 16-point rule G16 gives
the value, and its null rules of degree 15 and 14, on its own 16 nodes, the
error estimate (Berntsen & Espelid 1991), so a lobe costs 16 evaluations of
f.  The whole lobes of a curve are laid out as a lattice, each node placed
from its lobe's zero and y alone.  A lobe is kept only when its estimate
meets its share of the tolerance at quadrature precision, however loose the
caller's tolerance; a lobe that fails, as one holding a kink of f does,
splits into its two half-lobes, between a zero and a crest.

Every other piece lies between a zero and a crest and is the interval
[v0, v1] of distances from its zero; that interval alone picks its 16-point
Gauss rule, G16 for sin(v)^a on a whole half-lobe, else Gauss-Jacobi or
Gauss-Legendre (see _gauss_piece_sums).  A piece the pass leaves over its
share is bisected, as in QUADPACK's QAG, and its halves go back through the
same rules: lobes and pieces refine the same way, by splitting.  The length
of a piece at the cut is its distance from the zero, taken from the exact
y * tail_cut and pi, so a cut within 1e-12 of a zero keeps the digits the
weight v^a needs there.  Which lobes are whole and which halves are cut is
decided in floats: a cut within rounding of a zero counts as at the zero,
so tail_cut = math.pi at y = 1 takes the whole lobe [0, pi].

Tanh-sinh (_rules) integrates no piece: it is the discrete measure the
sin(u)^a rules are built from, and the sphere's quadrature reference.

A curve, an array of y, is integrated in blocks of consecutive y that
together hold at most _LOBE_BLOCK lobes; a y with more lobes than that forms
a block of its own.  Within a block the whole lobes of every y share one
lattice pass, the remaining pieces go into one table, and each y keeps its
own stopping rule, so no value depends on the block.
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
# these bound the memory of a long curve without changing any value
_LOBE_BLOCK = 8192
_CHUNK_NODES = 8192


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
    s = 18.5 (18.5 / (1 + a) for a < 0), where the dropped tail of the
    weights, about e^{-2s(1+a)}, is below 1e-16 of the mass at every step."""
    s_req = max(18.5, 18.5 / (1.0 + alpha))
    return max(6, int(math.ceil(math.asinh(2.0 * s_req / math.pi) / h)))


def _rules(alpha: float, h: float, length: np.ndarray, off: np.ndarray):
    """Tanh-sinh rules on half-lobe pieces, one row per piece: length[i] is
    the piece's length and off[i] how far its kernel zero lies beyond its zero
    end (both columns).  A rule does not depend on where the piece sits, nor
    on which side the zero lies.

    Returns (d, near, w), the form every lobe rule takes.  Node j of row i is
    d[i, j] from the zero end where near[j], else d[i, j] from the other end.
    Its distance u to the zero is off plus its distance to the zero end, which
    for the near nodes comes straight from the rule, never from float
    subtraction.  w[0] holds the weights times |sin u|^alpha, and w[1] the
    embedded h' = 2h rule: 2 w[0] on every second node, 0 elsewhere.
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
    return d, near, np.stack((q, np.where(k % 2 == 0, 2.0 * q, 0.0)))


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


def _frozen(d, w):
    """The rule (d, near, w) with every node measured from its zero end,
    read-only."""
    rule = (d[None, :], np.ones(_GAUSS_N, dtype=bool), w[:, None, :])
    for arr in rule:
        arr.setflags(write=False)
    return rule


@lru_cache(maxsize=64)
def _gauss_pair(alpha: float, span: float):
    """G16 for the weight sin(u)^alpha on [0, span], span pi/2 (a half-lobe,
    singular at u = 0) or pi (a whole lobe, singular at both ends), with two
    error-estimate partners on its own nodes (see _golub_welsch), as one rule
    (d, near, w) of 16 nodes (see _rules): every node lies its u from the
    zero end.  Read-only.

    The discretized Stieltjes procedure (Gautschi 1982) takes the recurrence
    of the weight's orthonormal polynomials p_r in x = 2u/span - 1 from a
    fine tanh-sinh rule on [0, pi/2] as the discrete measure, mirrored about
    the crest for the whole lobe, where the weight is even.
    """
    d, near, w = _rules(alpha, 0.1, np.array([[_HALF_PI]]), np.array([[0.0]]))
    q = w[0, 0]
    x = np.where(near, d[0], _HALF_PI - d[0]) / (0.5 * span) - 1.0
    if span > _HALF_PI:
        x, q = np.concatenate((x, -x)), np.concatenate((q, q))
    mu0 = math.fsum(q)
    diag, off = np.empty((2, _GAUSS_N))
    p_prev, p, b = np.zeros_like(x), np.full_like(x, mu0**-0.5), 0.0
    for k in range(_GAUSS_N):
        diag[k] = np.sum(q * x * p * p)
        r = (x - diag[k]) * p - b * p_prev
        b = off[k] = math.sqrt(np.sum(q * r * r))
        p_prev, p = p, r / b
    theta, w = _golub_welsch(diag, off[:-1], mu0)
    return _frozen((theta + 1.0) * (0.5 * span), w)


@lru_cache(maxsize=64)
def _jacobi_rule(alpha: float):
    """G16 for the weight u^alpha on [0, 1], the Gauss-Jacobi rule GJ(0,
    alpha), with its two error-estimate partners on its own nodes (see
    _golub_welsch), as one rule (d, near, w) of 16 nodes (see _rules): every
    node lies its u from the zero end.  On [0, L] the rule is the same nodes
    times L and weights times L^(alpha + 1), exactly.  At alpha = 0 it is
    Gauss-Legendre.  Read-only.

    The recurrence has a closed form (Gautschi 2004, section 1.5.5): the
    Jacobi weight (1 - x)^0 (1 + x)^alpha in x = 2u - 1 gives, in u, the
    diagonal (alpha + 1)/(alpha + 2) at k = 0 and
    ((k + alpha)(k + alpha + 1) + k(k + 1)) / (b (b + 2)) above, with
    b = 2k + alpha, and the off-diagonal k (k + alpha) / (b sqrt(b^2 - 1));
    no entry is a difference of nearly equal numbers.  The mass is
    1/(alpha + 1); the weights are scaled to it, since the squared first
    components of the eigenvectors sum to 1 only to about 1e-15."""
    k = np.arange(1, _GAUSS_N)
    b = 2 * k + alpha
    diag = np.concatenate((
        [(alpha + 1.0) / (alpha + 2.0)],
        ((k + alpha) * (k + alpha + 1.0) + k * (k + 1.0)) / (b * (b + 2.0))))
    off = k * (k + alpha) / (b * np.sqrt((b + 1.0) * (b - 1.0)))
    mu0 = 1.0 / (alpha + 1.0)
    theta, w = _golub_welsch(diag, off, mu0)
    return _frozen(theta, w * (mu0 / math.fsum(w[0])))


def _place(d, near, zero_end, other_end, scale=1.0):
    """Nodes of the pieces between zero_end[i] and other_end[i], one row each
    and divided by scale[i], from their distances d to the ends (see _rules).
    The near nodes are a prefix of every row, so each half is written in
    place by slicing."""
    t = (np.sign(other_end - zero_end) / scale)[:, None] * d
    cut = np.count_nonzero(near)
    t[:, :cut] += (zero_end / scale)[:, None]
    np.subtract((other_end / scale)[:, None], t[:, cut:], out=t[:, cut:])
    return t


def _lobe_counts(phase: float, t_max: np.ndarray) -> np.ndarray:
    """How many lobes of a kernel with zeros at k*pi - phase may meet
    (0, t_max[i]], for each i."""
    return np.floor((t_max + phase) / math.pi).astype(int) + 2


def _lobes(phase: float, t_max: np.ndarray):
    """The lobes [k pi - phase, (k + 1) pi - phase] of a kernel with zeros at
    k*pi - phase that may meet (0, t_max[i]]: the index i each belongs to,
    and its k."""
    counts = _lobe_counts(phase, t_max)
    owner = np.repeat(np.arange(len(t_max)), counts)
    k = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, k


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
    """Rows (zero_end, other_end, length, off) covering the lobes k[j] of the
    y owner[j] (see _lobes), cut to (0, t_max[owner[j]]], and the owner of
    each row: the rising (zero to crest) and falling (crest to zero) half of
    each lobe, cut to the interval, with empty pieces dropped.  A length is
    pi/2 or is measured from 0 or the cut, never between zeros; off is
    nonzero only where the cut falls inside a falling half.  Which halves
    are whole is decided in floats, as for the lobes in _lobe_pass, so a cut
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
    weights w (see _rules), where the integrand at node t of row i is
    f(t) / scale[i]: the value is the sum under w[0] and the error the sum
    of its distances to the sums under the partners w[1:] (see
    _golub_welsch).  np.vecdot sums each row on its own, so a row's sums do
    not depend on the rows evaluated with it."""
    fx = np.asarray(call_vec(f, x.ravel()), dtype=float).reshape(x.shape)
    sums = np.vecdot(fx, w) / scale
    return sums[0], np.sum(np.abs(sums[0] - sums[1:]), axis=0)


def _lobe_sums(f, alpha: float, zero: np.ndarray, y: np.ndarray):
    """Value and error estimate of the whole lobes [zero[i], zero[i] + pi],
    where the integrand at t is f(t / y[i]) / y[i], by the whole-lobe Gauss
    rule laid out as a lattice: node j of lobe i is (zero[i] + u_j) / y[i],
    from the lobe's zero and y alone, with no piece row.  Lobes go in chunks
    of at most _CHUNK_NODES nodes."""
    u, _, w = _gauss_pair(alpha, math.pi)
    value, error = np.empty((2, len(zero)))
    per_chunk = _CHUNK_NODES // u.shape[1]
    for lo in range(0, len(zero), per_chunk):
        at = slice(lo, lo + per_chunk)
        value[at], error[at] = _rule_sums(f, (zero[at, None] + u) / y[at, None], w, y[at])
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
    (u_a, near, w_a), (u_0, _, w_0) = _jacobi_rule(alpha), _jacobi_rule(0.0)
    value, error = np.empty((2, len(owner)))
    for half in (True, False):
        rows = np.flatnonzero(half_lobe == half)
        for first in range(0, len(rows), _CHUNK_NODES // _GAUSS_N):
            at = rows[first:first + _CHUNK_NODES // _GAUSS_N]
            if half:
                d, _, w = _gauss_pair(alpha, _HALF_PI)
            else:
                j = jacobi[at, None]
                u = np.where(j, u_a, u_0)
                d = np.abs(span[at, None]) * u
                kernel = (np.sin(lo[at, None] + d) / np.where(j, u, 1.0)) ** alpha
                w = np.where(j, w_a, w_0) * (span[at, None] * kernel)
            t = _place(d, near, start[at], other_end[owner[at]], y[at])
            value[at], error[at] = _rule_sums(f, t, w, y[at])
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


def _lobe_pass(f, alpha: float, ys: np.ndarray, phase: float, spec: QuadSpec):
    """The whole-lobe pass of _totals over its block of ys.  Returns the
    value, error and L1 mass of the kept lobes summed per y, the pieces left
    for the rounds (every cut piece and both halves of each lobe that
    failed) with the y each belongs to, and each y's count of pieces in the
    half-lobe split.  Every per-lobe array is freed on return, before the
    rounds."""
    n, (t_max, t_lo) = len(ys), _two_product(ys, spec.tail_cut)
    owner, k = _lobes(phase, t_max)
    whole = (k * math.pi - phase >= 0.0) & ((k + 1) * math.pi - phase <= t_max[owner])
    pieces, piece_owner = _kernel_pieces(phase, t_max, t_lo, owner[~whole], k[~whole])
    # only the whole lobes are kept: the lattice pass sets the block's peak
    # memory
    lobe_owner, lobe_k = owner[whole], k[whole]
    del owner, k, whole
    # the pieces every y has in the half-lobe split, two per whole lobe
    counts = np.bincount(piece_owner, minlength=n) + 2 * np.bincount(lobe_owner, minlength=n)
    if not counts.all():
        t_cut = ys[counts == 0][0] * spec.tail_cut
        raise ValueError(f"y * tail_cut = {t_cut:.3g} is too small for a kernel piece")
    lobe_value, lobe_error = _lobe_sums(f, alpha, lobe_k * math.pi - phase, ys[lobe_owner])
    share = (2.0 * min(spec.rel_tol, _LOBE_REL_TOL) / counts
             * np.bincount(lobe_owner, np.abs(lobe_value), n))
    kept = lobe_error <= share[lobe_owner]
    if not kept.all():
        halves, half_owner = _kernel_pieces(phase, t_max, t_lo, lobe_owner[~kept], lobe_k[~kept])
        pieces, piece_owner = np.concatenate((pieces, halves)), np.append(piece_owner, half_owner)
    kept_sums = [np.bincount(lobe_owner[kept], v[kept], n)
                 for v in (lobe_value, lobe_error, np.abs(lobe_value))]
    return (*kept_sums, pieces, piece_owner, counts)


def _totals(f, alpha: float, ys: np.ndarray, phase: float, spec: QuadSpec) -> np.ndarray:
    """The integral at each of ys, refined together.  Each y keeps its own
    stopping rule: a piece is refined while its y has not met its tolerance
    and its error exceeds its share of it.  A y's tolerance is rel_tol times
    its integrand's L1 mass, the sum of |value| over its lobes and pieces,
    so a tiny integral, as at small y and large a, keeps its relative
    digits; abs_tol is a floor.

    Every whole lobe inside (0, y tail_cut] first takes the whole-lobe Gauss
    rule (_lobe_pass), and is kept only at quadrature precision: the sum of
    its two null rules within the share of its two halves of min(rel_tol,
    _LOBE_REL_TOL) times the mass of the y's lobes.  A kept lobe is final.
    A lobe that fails splits into its half-lobes before the first round, so
    they take the path of every other piece: the Gauss pass
    (_gauss_piece_sums), and, for a piece over its share, bisection at its
    midpoint, both halves going back through the Gauss pass, for up to
    _ROUNDS rounds.  A piece of a y split into c pieces in the half-lobe
    split starts with 1/(2c) of the y's tolerance, and each half gets half
    its parent's share; a piece whose estimate is within _ROUNDING of its
    |value| is at rounding level and is not split again."""
    n = len(ys)
    kept_total, kept_error, kept_mass, pieces, piece_owner, counts = _lobe_pass(
        f, alpha, ys, phase, spec)
    part = 0.5 / counts[piece_owner]
    value, error = _gauss_piece_sums(f, alpha, pieces, ys[piece_owner])
    for rounds in range(_ROUNDS + 1):
        total = kept_total + np.bincount(piece_owner, value, n)
        total_err = kept_error + np.bincount(piece_owner, error, n)
        # a non-finite value, as from f past t_max, is left out of the mass,
        # so the y's other pieces keep finite shares while it is refined
        finite = np.where(np.isfinite(value), np.abs(value), 0.0)
        mass = kept_mass + np.bincount(piece_owner, finite, n)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * mass)
        open_ = ~(total_err <= tol)
        if not open_.any():
            return total
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
        halves, half_owner = _bisect(pieces[bad]), np.repeat(piece_owner[bad], 2)
        sums = _gauss_piece_sums(f, alpha, halves, ys[half_owner])
        keep = ~bad
        pieces, piece_owner, part, value, error = (
            np.concatenate((old[keep], new)) for old, new in (
                (pieces, halves), (piece_owner, half_owner), (part, np.repeat(0.5 * part[bad], 2)),
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
    cosine), integrates each whole lobe with the 16-point Gauss rule for
    the sin(u)^a weight on [0, pi], each other half-lobe with the one on
    [0, pi/2] and each piece cut at tail_cut with the Gauss-Jacobi rule
    GJ(0, a), or Gauss-Legendre on a falling half cut more than pi/4 from
    its zero (one cut nearer is its whole half-lobe less the part past the
    cut, so f is evaluated up to pi/(4y) past tail_cut), and refines what
    its error estimate leaves open by splitting: a whole lobe into
    half-lobes, any other piece over the budget of its y at its midpoint,
    round by round (see _totals).  A Gauss rule's estimate comes from its
    null rules of degree 15 and 14 on its own nodes, so it costs no
    evaluations of f beyond the rule's 16.  The y run in blocks of
    consecutive y holding at most _LOBE_BLOCK lobes together, a y with more
    lobes alone, which bounds the memory a long curve takes; no value
    depends on the block.
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
