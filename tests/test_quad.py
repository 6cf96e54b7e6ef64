"""Quadrature engine: kernel-zero lobe rules, and the plain integral as the
rule at a = 0."""

import math
import warnings
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alphasine import quad
from alphasine.errors import NonConvergence
from alphasine.grid import SampledFunction, UniformGrid
from alphasine.quad import (_DECAY_DEGREES, _GAUSS_N, _NULL_DEGREES, _PANEL_LOBES, _PANEL_X,
                            _PANEL_X_MAX, QuadSpec, _gauss_pair, _gauss_piece_sums, _jacobi_rule,
                            _kernel_pieces, _lobe_sums, _panel_layout, _place, _split,
                            _whole_lobes, integrate, integrate_kernel_split)
from alphasine.specfun import sin_power_integral

import kernel_split_oracle as oracle
from kernel_split_oracle import _lobes
from conftest import F1_MASS, F2_MASS, f1, f2, f3, sample, t2_f1


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(tail_cut=-1.0)


def test_integrate_closed_forms():
    # over (0, 30]; f3 integrates to (arctan x + x/(1 + x^2))/2
    assert math.isclose(integrate(f1), F1_MASS, rel_tol=1e-13)
    assert math.isclose(integrate(f2), F2_MASS, rel_tol=1e-13)
    assert math.isclose(integrate(f3), 0.5 * (math.atan(30.0) + 30.0 / 901.0), rel_tol=1e-13)
    # the linear interpolant of samples integrates exactly to their trapezoid
    # sum; tolerance and tail_cut as the CLI sets them for CSV input
    samples = sample(f1, 0.0, 20.0, 401)
    val = integrate(samples.eval, QuadSpec(abs_tol=1e-6, rel_tol=1e-6, tail_cut=20.0))
    assert abs(val - np.trapezoid(samples.values, samples.xs)) <= 1e-6


def _edge_oracle(a, y, tail_cut, kernel, f=lambda x: mp.exp(-x), kinks=()):
    """30-digit integral of |sin(xy)|^a f(x) (|cos| for the cosine kernel)
    over (0, tail_cut], for an mpmath function f (e^{-x} by default) that is
    smooth but at the points kinks.

    Each half-lobe, cut to the interval, is integrated in the distance v to
    its zero with v = w^(1/(1+a)), which turns v^a dv into dw/(1+a) and leaves
    a smooth integrand, split at the kinks.  mpmath.quad directly in x is
    badly wrong near a = -1.
    """
    with mp.workdps(30):
        a = mp.mpf(a)
        half = mp.pi / 2
        shift = 0 if kernel == "sine" else 1  # the cosine is the sine shifted by pi/2
        lo = shift * half
        hi = lo + mp.mpf(y) * tail_cut
        total = mp.mpf(0)
        m = shift
        while m * half < hi:
            zero, side = (m * half, 1) if m % 2 == 0 else ((m + 1) * half, -1)
            ends = sorted(abs(u - zero) for u in (max(lo, m * half), min(hi, (m + 1) * half)))
            inner = [abs(lo + c * y - zero) for c in kinks]
            ends = [ends[0], *sorted(v for v in inner if ends[0] < v < ends[1]), ends[1]]

            def g(w):
                v = w ** (1 / (1 + a))
                return mp.sinc(v) ** a * f((zero + side * v - lo) / y)

            total += mp.quad(g, [e ** (1 + a) for e in ends])
            m += 1
        return float(total / ((1 + a) * y))


def _pieces(phase, t_max):
    """Every half-lobe piece of each y, as the engine split them before whole
    lobes took their own pass, for an exact t_max."""
    return _kernel_pieces(phase, t_max, np.zeros(len(t_max)), *_lobes(phase, t_max))


def _ends(pieces):
    """Each row's two ends, from a piece table's rows (zero_end, toward,
    length, off): its zero end, and the end length past it toward the
    crest."""
    zero_end, toward, length = pieces[:, :3].T
    return zero_end, zero_end + toward * length


def _interior(pieces):
    """Which rows of a piece table are whole half-lobes: length pi/2, off 0."""
    return (pieces[:, 2] == 0.5 * math.pi) & (pieces[:, 3] == 0.0)


@lru_cache(maxsize=None)
def _weighted_moment(a, k, span):
    """20-digit integral of |sin u|^a u^k over [0, span], span pi/2 or m pi.
    The whole lobe folds onto [0, pi/2] as u^k + (pi - u)^k.  Below u = 1/2
    the substitution u = v^(1/(1+a)) turns u^a du into dv/(1+a), so mpmath
    sees no singularity; a plain mp.quad misses the mass by 45% at
    a = -0.99.  Lobe j of m lobes is the first shifted by j pi, so its
    moments are sums of the first lobe's by the binomial theorem, every
    term positive."""
    lobes = round(span / math.pi)
    if lobes > 1:
        return math.fsum(math.comb(k, i) * (j * math.pi) ** (k - i)
                         * _weighted_moment(a, i, math.pi)
                         for j in range(lobes) for i in range(k + 1))
    with mp.workdps(20):
        a = mp.mpf(a)
        e = 1 / (1 + a)
        half = mp.mpf(1) / 2
        g = (lambda u: u**k) if span < 2.0 else (lambda u: u**k + (mp.pi - u) ** k)
        near = mp.quad(lambda v: mp.sinc(v**e) ** a * g(v**e), [0, half ** (1 + a)]) * e
        return float(near + mp.quad(lambda u: mp.sin(u) ** a * g(u), [half, mp.pi / 2]))


@lru_cache(maxsize=None)
def _half_lobe_moments(a):
    """The integrals of sin(s)^a s^i over [0, pi/2], i < 2 _GAUSS_N, as
    60-digit mpmath numbers, from the series sin(s)^a = s^a exp(a log(sin s
    / s)): log(sin s / s) has the coefficients (-1)^n 2^(2n-1) B_2n / (n
    (2n)!) in s^2n, the exponential's follow by the recurrence e_n = (a/n)
    sum_k k l_k e_(n-k), and each term integrates in closed form.  The
    series converges as 4^-n at s = pi/2, half its radius pi."""
    terms = 110
    with mp.workdps(60):
        a = mp.mpf(a)
        log = [0] + [(-1) ** n * mp.mpf(2) ** (2 * n - 1) * mp.bernoulli(2 * n)
                     / (n * mp.factorial(2 * n)) for n in range(1, terms)]
        e = [mp.mpf(1)]
        for n in range(1, terms):
            e.append(a / n * mp.fsum(k * log[k] * e[n - k] for k in range(1, n + 1)))
        half = mp.pi / 2
        return [mp.fsum(c * half ** (a + i + 2 * n + 1) / (a + i + 2 * n + 1)
                        for n, c in enumerate(e)) for i in range(2 * _GAUSS_N)]


@lru_cache(maxsize=None)
def _chebyshev_moments(a, span):
    """The integrals of |sin u|^a T_k(2u/span - 1) over [0, span], k <
    2 _GAUSS_N, span pi/2 or m pi, to 25 digits and more.  On each
    half-lobe u = zero + side s, s in [0, pi/2], so T_k is a polynomial in
    s, built by T_(k+1) = 2x T_k - T_(k-1) in 60-digit arithmetic (its
    coefficients reach 1e24 on the half-lobe) and summed against the
    half-lobe's moments."""
    moments = _half_lobe_moments(a)
    with mp.workdps(60):
        out = [mp.mpf(0)] * (2 * _GAUSS_N)
        scale = mp.pi * mp.mpf(span / math.pi)  # span is m pi/2 exactly
        for j in range(round(span / (0.5 * math.pi))):
            zero, side = ((j // 2) * mp.pi, 1) if j % 2 == 0 else ((j + 1) // 2 * mp.pi, -1)
            x0, x1 = 2 * zero / scale - 1, 2 * side / scale  # x = x0 + x1 s
            prev, t = [], [mp.mpf(1)]  # coefficients of T_(k-1) and T_k in s
            for k in range(2 * _GAUSS_N):
                out[k] += mp.fsum(c * m for c, m in zip(t, moments))
                nxt = [2 * x0 * c for c in t] + [0]
                for i, c in enumerate(t):
                    nxt[i + 1] += 2 * x1 * c
                for i, c in enumerate(prev):
                    nxt[i] -= c
                prev, t = t, (nxt if k else [x0, x1])
        return [float(v) for v in out]


def _check_rule(u, w, partners, moments, span, degrees=_NULL_DEGREES):
    # G16 integrates u^k exactly for k < 32.  Each partner, G16 less its null
    # rule of degree r, integrates u^k exactly for k < r and misses u^r by
    # far more than rounding (6.5e-10 relative at least, at a = -0.99 on the
    # whole lobe).  The partners may come in any order: each is matched to
    # its degree by the first power it misses, and every degree is met once.
    # Returns the degree of each partner
    assert len(u) == _GAUSS_N and np.all(np.diff(u) > 0.0) and u[0] > 0.0 and u[-1] < span
    assert np.all(w > 0.0)
    for k in range(2 * _GAUSS_N):
        assert math.isclose(np.dot(w, u**k), moments[k], rel_tol=1e-13), k
    found = []
    for partner in partners:
        r = next((k for k in range(2 * _GAUSS_N)
                  if not math.isclose(np.dot(partner, u**k), moments[k], rel_tol=1e-13)), None)
        assert r is not None and not math.isclose(np.dot(partner, u**r), moments[r],
                                                  rel_tol=1e-11), r
        found.append(r)
    assert sorted(found) == sorted(degrees), found
    return found


@given(a=st.floats(min_value=-0.99, max_value=5.0))
@example(a=-0.99)
@example(a=-0.9)
@example(a=1.5)
@settings(max_examples=6, deadline=None)
def test_gauss_rule_moments(a):
    # GJ(0, a), scaled to [0, L] by nodes L u and weights L^(a+1) w, against
    # the exact moments L^(a+k+1)/(a+k+1) of the weight v^a; the rule is
    # built from its closed-form recurrence
    d, rows = _jacobi_rule(a)
    assert not rows.flags.writeable
    for length in (0.5 * math.pi, 0.3, 1e-3):
        with mp.workdps(30):
            moments = [float(mp.mpf(length) ** (a + k + 1) / (a + k + 1))
                       for k in range(2 * _GAUSS_N)]
        w, *partners = length ** (a + 1) * rows[:, 0]
        _check_rule(length * d[0], w, partners, moments, length)


def _end_rows(rule, span):
    """Which weight rows of a rule are its end check, in whatever order the
    rows come: the row that extrapolates the interpolant at the rule's 16
    nodes to u = 0 reproduces every power (u/span)^k, k < 16, as 0^k there,
    and the row to u = span reproduces each as 1.  Every rule row and
    partner sums the powers to moments of the kernel instead.  Returns the
    two rows' indices, start then end."""
    u, rows = rule
    at = rows[:, 0] @ ((u[0] / span)[:, None] ** np.arange(_GAUSS_N))
    start = np.flatnonzero(np.all(np.abs(at - (np.arange(_GAUSS_N) == 0)) <= 1e-12, axis=1))
    end = np.flatnonzero(np.all(np.abs(at - 1.0) <= 1e-12, axis=1))
    assert len(start) == 1 and len(end) == 1
    return start[0], end[0]


def _partner_rows(rule, span):
    """The indices of a rule's partners: every row but row 0, the rule, and
    its end check (_end_rows)."""
    return np.delete(np.arange(1, len(rule[1])), np.subtract(_end_rows(rule, span), 1))


def _null_rule_rows(rule, span):
    """Each partner's row index by the degree of its null rule, the rule less
    the partner, in whatever order the rows come.  A null rule of degree r
    sums every T_k(2u/span - 1), k < r, to zero but for rounding, and T_r to
    far more: at most 4.3e-15 and at least 0.056 of its total weight over a
    = -0.99, 1.5 and 4.9 on 1 to 64 lobes."""
    u, rows = rule
    vander = np.polynomial.chebyshev.chebvander(2.0 * u[0] / span - 1.0, 2 * _GAUSS_N - 1)
    degrees = {}
    for i in _partner_rows(rule, span):
        null = rows[0, 0] - rows[i, 0]
        degrees[int(np.argmax(np.abs(null @ vander) > 1e-12 * np.sum(np.abs(null))))] = i
    return degrees


def _check_sine_rule(rule, a, span, chebyshev=True):
    # the mass is B(1/2, (a+1)/2) over the whole lobe in closed form, half
    # that over a half-lobe.  Row 0 is the rule, and every row but the end
    # check (_end_rows) is a partner, of _NULL_DEGREES and _DECAY_DEGREES.
    # Past the powers of u, G16 integrates |sin u|^a T_k(2u/span - 1) for
    # k < 32 within 1e-12 of the mass, and each partner for k below its
    # degree.  T_k is bounded by 1 on the span, so it weighs every node,
    # where u^k on [0, pi/2] is too ill-conditioned a basis: a Stieltjes
    # measure too coarse for the rule missed T_31 by 1.4e-5 to 5.0e-3 of the
    # half-lobe's mass while every u^k met 1e-13.  The 60-digit Chebyshev
    # check is the slow part, so callers may skip it
    u, rows = rule
    u, w, partners = u[0], rows[0, 0], rows[_partner_rows(rule, span), 0]
    with mp.workdps(30):
        mass = float(mp.beta(0.5, (a + 1) / 2) * span / mp.pi)
    assert math.isclose(math.fsum(w), mass, rel_tol=1e-13)
    moments = [_weighted_moment(a, k, span) for k in range(2 * _GAUSS_N)]
    degrees = _check_rule(u, w, partners, moments, span, _NULL_DEGREES + _DECAY_DEGREES)
    if not chebyshev:
        return u
    vander = np.polynomial.chebyshev.chebvander(2.0 * u / span - 1.0, 2 * _GAUSS_N - 1)
    exact = np.array(_chebyshev_moments(a, span))
    for weights, degree in zip((w, *partners), (2 * _GAUSS_N, *degrees)):
        gap = np.abs(weights @ vander - exact)[:degree]
        assert np.all(gap <= 1e-12 * mass), (degree, np.max(gap) / mass)
    return u


# every panel size, the powers of two from one lobe up to the cap
_PANEL_SIZES = [1 << e for e in range(_PANEL_LOBES.bit_length())]


# the a at which every sin(u)^a rule is checked, from near -1 to near 5
_SINE_RULE_ALPHAS = (-0.99, -0.9, -0.5, 1.5, 3.0, 4.9)


def _at_every_sine_rule_alpha(test):
    for a in _SINE_RULE_ALPHAS:
        test = example(a=a)(test)
    return test


@given(a=st.floats(min_value=-0.99, max_value=5.0))
@_at_every_sine_rule_alpha
@settings(max_examples=6, deadline=None)
def test_whole_lobe_rule_moments(a):
    # the rule of a one-lobe panel; the weight is even about the crest, so
    # the rule is too, to rounding
    rule = _gauss_pair(a, math.pi)
    u = _check_sine_rule(rule, a, math.pi)
    assert np.max(np.abs(u + u[::-1] - math.pi)) <= 8 * np.finfo(float).eps * math.pi


@given(a=st.floats(min_value=-0.99, max_value=5.0))
@_at_every_sine_rule_alpha
@settings(max_examples=6, deadline=None)
def test_half_lobe_rule_moments(a):
    # G16 for sin(v)^a on [0, pi/2]: its null rules sum sin(v)^a's own
    # powers of v to zero, where GJ(0, a) with (sin v / v)^a folded in left
    # 1e-11 of the mass
    _check_sine_rule(_gauss_pair(a, 0.5 * math.pi), a, 0.5 * math.pi)


@given(a=st.floats(min_value=-0.99, max_value=5.0))
@_at_every_sine_rule_alpha
@settings(max_examples=6, deadline=None)
def test_panel_rule_moments(a):
    # G16 for |sin u|^a on a panel of m whole lobes, [0, m pi], at every
    # panel size above one, the powers of two up to the cap: its mass, its
    # moments and its partners as for a lobe (the Chebyshev moments at the
    # largest size alone), its symmetry about the panel's middle, and its end
    # check
    for m in _PANEL_SIZES[1:]:
        span = m * math.pi
        rule = _gauss_pair(a, span)
        u = _check_sine_rule(rule, a, span, chebyshev=m == _PANEL_LOBES)
        assert np.max(np.abs(u + u[::-1] - span)) <= 16 * np.finfo(float).eps * span, m


# smooth integrands with their derivatives: a Gaussian bump, an oscillating
# decay and a rational function
_SMOOTH = {
    "bump": (lambda x: np.exp(-((x - 1.0) ** 2)),
             lambda x: -2.0 * (x - 1.0) * np.exp(-((x - 1.0) ** 2))),
    "cos_exp": (lambda x: np.cos(x) * np.exp(-x / 3.0),
                lambda x: -(np.sin(x) + np.cos(x) / 3.0) * np.exp(-x / 3.0)),
    "rational": (lambda x: 1.0 / (1.0 + x * x), lambda x: -2.0 * x / (1.0 + x * x) ** 2),
}


def _fine_lobe_sums(f, a, zero, y):
    """Integral of |sin(xy)|^a f(x) over each whole lobe [zero, zero + pi]/y
    by the oracle's tanh-sinh rule at step 0.0125 on its two half-lobes."""
    d, near, w = oracle._rules(a, 0.0125, np.array([[0.5 * math.pi]]), np.array([[0.0]]))
    return sum(np.vecdot(f(oracle._place(d, near, zero_end, zero + 0.5 * math.pi, y)), w[0]) / y
               for zero_end in (zero, zero + math.pi))


@given(a=st.floats(min_value=-0.9, max_value=4.5),
       y=st.floats(min_value=0.3, max_value=10.0),
       name=st.sampled_from(sorted(_SMOOTH)))
@example(a=-0.9, y=0.3, name="bump")
@example(a=4.5, y=10.0, name="cos_exp")
@settings(max_examples=25, deadline=None)
def test_whole_lobe_estimate_bounds_its_error(a, y, name):
    # on every whole lobe in (0, 12], each a panel of one lobe, the
    # estimate, null rules and end check together, bounds how far G16 lies
    # from the fine rule, but for rounding: 1e-14 of the lobe's mass of
    # |f|, and of |x f'| for the nodes, each within an ulp of x, which
    # dominates where cos e^{-x/3} changes sign inside a lobe
    f, df = _SMOOTH[name]
    t_max = np.array([12.0 * y])
    owner, k = _lobes(0.0, t_max)
    zero = k[(k + 1) * math.pi <= t_max[owner]] * math.pi
    ys = np.full(len(zero), y)
    ends = f(np.stack((zero, zero + math.pi)) / ys) / ys
    value, error = _lobe_sums(f, a, zero, np.ones(len(zero), dtype=int), ys, ends)
    exact = _fine_lobe_sums(f, a, zero, ys)
    rounding = _fine_lobe_sums(lambda x: np.abs(f(x)) + np.abs(x * df(x)), a, zero, ys)
    assert len(zero) and np.all(np.abs(value - exact) <= error + 1e-14 * rounding)


def _panel_gaps(name, a, y, zero, lobes):
    """How far G16 lies from the fine rule on the panels [zero, zero +
    lobes pi] of y, and what the panel's estimate allows: the estimate, null
    rules and end check together, and rounding, 1e-14 of the panel's mass of
    |f| and |x f'| (see test_whole_lobe_estimate_bounds_its_error), counted
    in subnormal spacings where f underflows."""
    f, df = _SMOOTH[name]
    ys = np.full(len(zero), y)
    ends = f(np.stack((zero, zero + lobes * math.pi)) / ys) / ys
    value, error = _lobe_sums(f, a, zero, lobes, ys, ends)
    exact, rounding = np.zeros((2, len(zero)))
    for j in range(max(lobes)):
        inside = j < lobes
        lobe = zero[inside] + j * math.pi
        exact[inside] += _fine_lobe_sums(f, a, lobe, ys[inside])
        rounding[inside] += _fine_lobe_sums(lambda x: np.abs(f(x)) + np.abs(x * df(x)), a,
                                            lobe, ys[inside])
    floor = _GAUSS_N * np.finfo(float).smallest_subnormal
    return np.abs(value - exact), error + np.maximum(1e-14 * rounding, floor)


@given(a=st.floats(min_value=-0.9, max_value=4.5),
       y=st.floats(min_value=1.0, max_value=10.0),
       name=st.sampled_from(sorted(_SMOOTH)),
       m=st.sampled_from(_PANEL_SIZES[1:]))
@example(a=-0.9, y=3.2, name="cos_exp", m=_PANEL_LOBES)
@example(a=4.5, y=10.0, name="cos_exp", m=_PANEL_LOBES)
@example(a=4.5, y=10.0, name="rational", m=8)
@example(a=-0.9, y=3.0, name="rational", m=32)
@example(a=2.0, y=9.828125, name="bump", m=2)
@settings(max_examples=25, deadline=None)
def test_panel_estimate_bounds_its_error(a, y, name, m):
    # as for a whole lobe, on every panel of m whole lobes in (0, 30], or in
    # the first three panels' span where that is longer, as it is for the
    # large panels at small y, that the layout may build: one no longer in x
    # than x_start clipped to [_PANEL_X, _PANEL_X_MAX] (see
    # test_panel_layout_tiles_the_whole_lobes; a failed panel only halves).
    # Bump at 88 pi/9.828125 underflows: 2.47e-323 against the fine rule's
    # 1.98e-323, with estimate 0
    t_max = np.array([max(30.0 * y, 3 * m * math.pi)])
    owner, k = _lobes(0.0, t_max)
    zero = k[(k % m == 0) & ((k + m) * math.pi <= t_max[owner])] * math.pi
    zero = zero[(m * math.pi) / y <= np.clip(zero / y, _PANEL_X, _PANEL_X_MAX)]
    assume(len(zero))
    gap, allowed = _panel_gaps(name, a, y, zero, np.full(len(zero), m))
    assert np.all(gap <= allowed)


@pytest.mark.parametrize("a, y", [(0.0, 1.0), (-0.9, 1.35)])
def test_far_panels_resolve_a_fixed_scale(a, y):
    # cos(x) e^{-x/3} keeps its scale however far out: on every first panel
    # the layout builds for it out to tail_cut 420 the estimate bounds the
    # error.  Panels no longer than x_start in x, of 64 lobes from 64 pi and
    # 32 from 32 pi, fell short by up to 2.3 times at these y
    whole = _whole_lobes(0.0, np.array([420.0 * y]))
    _, k, lobes = _panel_layout(0.0, np.array([y]), whole)
    zero, lobes = k[:-1] * math.pi, lobes[:-1]
    assert np.max(lobes * math.pi / y) <= _PANEL_X_MAX
    gap, allowed = _panel_gaps("cos_exp", a, y, zero, lobes)
    assert np.all(gap <= allowed)


def _panel_estimate_parts(f, a, zero, m, y):
    """The value and the parts of the estimate of the panel [zero, zero + m
    pi] of y, each sum taken as the engine takes it (_rule_sums): e1 =
    |N15 f| + |N14 f|, e2 = |N13 f| + |N12 f|, and the end check."""
    span = m * math.pi
    rule = _gauss_pair(a, span)
    sums = quad._rule_sums(f, (zero + rule[0]) / y, rule[1], np.array([y]))[:, 0]
    null = {r: abs(sums[0] - sums[i]) for r, i in _null_rule_rows(rule, span).items()}
    ends = f(np.array([zero, zero + span]) / y) / y
    band = rule[0][0, 0] ** (a + 1.0) / (a + 1.0)
    check = band * np.sum(np.abs(ends - sums[list(_end_rows(rule, span))]))
    return sums[0], null[15] + null[14], null[13] + null[12], check


def _one_panel_sums(f, a, zero, m, y):
    """_lobe_sums on the one panel [zero, zero + m pi] of y."""
    ends = f(np.array([[zero], [zero + m * math.pi]]) / y) / y
    value, error = _lobe_sums(f, a, np.array([zero]), np.array([m]), np.array([y]), ends)
    return value[0], error[0]


def test_smooth_panel_estimate_reads_the_decay_of_its_null_rules():
    # f1 at a = 1.5 on the first panel of y = 5, two lobes from pi: its null
    # rules fall geometrically, e1/e2 = 0.014, so G16's error lies far below
    # e1, the error of a degree-14 rule, and the estimate is e1 (e1/e2)^2 and
    # the end check, 1.86e-15 against e1 = 3.4e-12.  The rest of its panels
    # in (0, 30] keep the estimate within e1 and the end check, and
    # test_panel_estimate_bounds_its_error holds the estimate to the fine rule
    a, y = 1.5, 5.0
    value, e1, e2, check = _panel_estimate_parts(f1, a, math.pi, 2, y)
    sums = _one_panel_sums(f1, a, math.pi, 2, y)
    assert e1 < 0.02 * e2
    assert sums == (value, pytest.approx(e1 * (e1 / e2) ** 2 + check, rel=1e-12, abs=0.0))
    assert sums[1] < 1e-3 * e1
    _, k, lobes = _panel_layout(0.0, np.array([y]), _whole_lobes(0.0, np.array([30.0 * y])))
    for zero, m in zip(k[:-1] * math.pi, lobes[:-1]):
        _, e1, _, check = _panel_estimate_parts(f1, a, zero, m, y)
        assert _one_panel_sums(f1, a, zero, m, y)[1] <= (e1 + check) * (1.0 + 1e-12)


def test_kinked_panel_keeps_its_two_row_estimate():
    # the kink of |x - c| e^{-x} at 0.2 of the lobe [pi, 2 pi] at y = 1 and
    # a = 1.5: its null rules do not decay, e1/e2 = 1.65, so the estimate is
    # e1 and the end check, as before the decay was read
    a, c = 1.5, 1.2 * math.pi
    kink = lambda x: np.abs(x - c) * np.exp(-x)
    value, e1, e2, check = _panel_estimate_parts(kink, a, math.pi, 1, 1.0)
    assert e1 > 1.5 * e2
    assert _one_panel_sums(kink, a, math.pi, 1, 1.0) == (value, pytest.approx(
        e1 + check, rel=1e-12, abs=0.0))


def test_panel_estimate_without_decay_rows_keeps_e1(monkeypatch):
    # where e2 = 0 the estimate stays e1, with no floating-point warning (a
    # RuntimeWarning fails the test): a rule whose partners of degree 13 and
    # 12 are the rule itself has e2 = 0 on f1, and f = 0 has e1 = e2 = 0
    a, y, zero = 1.5, 2.0, math.pi
    rule = _gauss_pair(a, math.pi)
    _, e1, _, check = _panel_estimate_parts(f1, a, zero, 1, y)
    rows, null_rows = rule[1].copy(), _null_rule_rows(rule, math.pi)
    for r in _DECAY_DEGREES:
        rows[null_rows[r]] = rows[0]
    monkeypatch.setattr(quad, "_gauss_pair", lambda alpha, span: (rule[0], rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, error = _lobe_sums(f1, a, np.array([zero]), np.array([1]), np.array([y]),
                                  f1(np.array([[zero], [zero + math.pi]]) / y) / y)
        assert e1 > 0.0 and error[0] == pytest.approx(e1 + check, rel=1e-12, abs=0.0)
        zeros = lambda x: np.zeros_like(x)
        assert _one_panel_sums(zeros, a, zero, 1, y) == (0.0, 0.0)


@given(a=st.floats(min_value=-0.99, max_value=5.0),
       y=st.floats(min_value=0.3, max_value=12.0),
       m=st.sampled_from(_PANEL_SIZES),
       k=st.integers(min_value=1, max_value=40),
       s=st.floats(min_value=0.01, max_value=0.99))
@example(a=1.5, y=1.0, m=1, k=1, s=0.2)
@example(a=0.79, y=2.44, m=64, k=18, s=0.957)
@settings(max_examples=25, deadline=None)
def test_kinked_panel_fails_at_quadrature_precision(a, y, m, k, s):
    # a kink of |x - c| e^{-x/8} at s of the panel [k pi, (k + m) pi] of y
    # stops its null rules' decay, so the estimate stays above
    # _LOBE_REL_TOL times the panel's |value|, the strictest share a panel
    # gets, and the panel halves, down to the lobe that holds the kink and
    # its half-lobes.  Over 60,000 random draws it stayed above 4.6e-9 of
    # |value|, least for a kink in the last lobe of a panel of 64.  The
    # estimate need not bound the error of a kinked panel: it fell short of
    # it by up to 28 times, and e1 alone by up to 2.5 times
    zero = k * math.pi
    c = (zero + s * m * math.pi) / y
    value, error = _one_panel_sums(lambda x: np.abs(x - c) * np.exp(-x / 8.0), a, zero, m, y)
    assert error > quad._LOBE_REL_TOL * abs(value)


@pytest.mark.parametrize("a", [0.0, 1.5, -0.5, -0.9])
def test_tanh_sinh_mass_at_every_step(a):
    # the oracle's rule: the sum runs far enough that a finer step drops no
    # mass: ending at s = 16.5 lost 1.3e-15 to 8.1e-15 of it at h <= 0.05
    with mp.workdps(30):
        mass = float(mp.beta(0.5, (a + 1) / 2) / 2)
    for h in 0.2 / 2 ** np.arange(1, 6):
        w = oracle._rules(a, h, np.array([[0.5 * math.pi]]), np.array([[0.0]]))[2]
        assert math.isclose(math.fsum(w[0, 0]), mass, rel_tol=1e-15), h


def _place_cases():
    rng = np.random.default_rng(5)
    zero_end = rng.uniform(0.0, 50.0, 6)
    other_end = zero_end + np.where(rng.random(6) < 0.5, 1.3, -1.3)
    return rng, zero_end, other_end, (1.0, rng.uniform(0.05, 20.0, 6))


def test_place_writes_both_halves_as_a_where_would():
    # every rule of quad measures each node from its zero end, so _place is
    # the zero-end half of the oracle's two-ended placement, and gives its
    # bits with every node near: a rule of one row shared by every piece,
    # as the whole-lobe Gauss rule is, and GJ(0, a) scaled to each piece's
    # length, one row each
    rng, zero_end, other_end, scales = _place_cases()
    toward = np.sign(other_end - zero_end)
    jacobi = rng.uniform(0.1, 1.3, (6, 1)) * _jacobi_rule(1.5)[0]
    for u in (_gauss_pair(1.5, math.pi)[0], jacobi):
        near = np.ones(u.shape[1], dtype=bool)
        for scale in scales:
            expect = oracle._place(u, near, zero_end, other_end, scale)
            assert np.array_equal(_place(u, zero_end, toward, scale), expect)


def test_oracle_place_writes_both_halves_as_a_where_would():
    # the oracle's tanh-sinh rule measures its near nodes from the zero end
    # and the others from the far end; the near nodes are a prefix of every
    # row, so slicing places each node exactly as choosing between the two
    # full candidate arrays does, for a rule of one row shared by every
    # piece and for one row per piece
    rng, zero_end, other_end, scales = _place_cases()
    shared = oracle._rules(1.5, 0.25, np.array([[1.3]]), np.array([[0.0]]))[:2]
    per_row = oracle._rules(-0.5, 0.25, np.full((6, 1), 1.3), np.full((6, 1), 0.1))[:2]
    for d, near in (shared, per_row):
        assert near[: np.count_nonzero(near)].all() and not near.all()
        for scale in scales:
            toward = (np.sign(other_end - zero_end) / scale)[:, None] * d
            expect = np.where(near, (zero_end / scale)[:, None] + toward,
                              (other_end / scale)[:, None] - toward)
            assert np.array_equal(oracle._place(d, near, zero_end, other_end, scale), expect)


@pytest.mark.parametrize("rows", ["pieces", "halves", "lattice", "panels"])
def test_piece_sums_do_not_depend_on_the_chunk(rows):
    # np.vecdot sums each row on its own, so a piece, or a whole lobe or a
    # panel on the lattice, gets the same bits alone or among a few as
    # inside a call of thousands of rows, split into many chunks; a matrix
    # product does not (one row of it takes another path)
    t_max = 30.0 * 0.5 * np.arange(1, 41)
    if rows in ("lattice", "panels"):
        # a panel starts at every whole lobe: of one lobe on the lattice, of
        # each size, 1 to _PANEL_LOBES lobes, in turn among the panels, where
        # the sizes come mixed and the panels of each size span several chunks
        if rows == "panels":
            t_max = 10.0 * t_max
        owner, k = _lobes(0.0, t_max)
        sizes = np.array(_PANEL_SIZES)
        lobes = sizes[np.arange(len(k)) % len(sizes)] if rows == "panels" else np.ones_like(k)
        at = (k + lobes) * math.pi <= t_max[owner]
        zero, lobes, scale = k[at] * math.pi, lobes[at], 0.5 * (owner[at] + 1.0)
        ends = f3(np.stack((zero, zero + lobes * math.pi)) / scale) / scale
        assert np.bincount(lobes)[np.unique(lobes)].min() > 5 * quad._CHUNK_NODES // _GAUSS_N
        sums = lambda few: _lobe_sums(f3, -0.5, zero[few], lobes[few], scale[few], ends[:, few])
    else:
        # every piece, cut ones too, or the pieces each splits into: a
        # falling half cut near its zero sums two rule rows, and splits into
        # pieces on Gauss-Legendre
        pieces, owner = _pieces(0.0, t_max)
        if rows == "halves":
            pieces, owner, _ = _split(pieces, owner, np.ones(len(owner)))
        scale = 0.5 * (owner + 1.0)
        assert len(pieces) > 5000
        sums = lambda few: _gauss_piece_sums(f3, -0.5, pieces[few], scale[few])
    whole_call = sums(slice(None))
    for few in ([3], [1500], [3, 1500, len(whole_call[0]) - 2]):
        for all_rows, alone in zip(whole_call, sums(few)):
            assert np.array_equal(all_rows[few], alone)


@pytest.mark.parametrize("kernel", ["sine", "cosine"])
def test_whole_lobe_count_matches_the_per_lobe_decision(kernel):
    # _whole_lobes counts in closed form the lobes k >= 1 that the engine
    # once decided one by one, k pi - phase >= 0 and (k + 1) pi - phase <=
    # t_max in floats, over every lobe that may meet (0, t_max]: at random
    # t_max, at every zero k pi - phase for k < 5000 and one ulp either side
    # of each, where its first guess is corrected up 322 times and down
    # about 900 times.  The lobes are enumerated for 400 t_max at a time
    phase = 0.0 if kernel == "sine" else 0.5 * math.pi
    zeros = np.arange(5000) * math.pi - phase
    zeros = zeros[zeros > 0.0]
    t_max = np.concatenate((np.random.default_rng(31).uniform(0.0, 100.0 * math.pi, 20_000),
                            zeros, np.nextafter(zeros, 0.0), np.nextafter(zeros, np.inf)))
    expect = np.empty(len(t_max), dtype=int)
    for lo in range(0, len(t_max), 400):
        t = t_max[lo:lo + 400]
        owner, k = _lobes(phase, t)
        whole = (k >= 1) & (k * math.pi - phase >= 0.0) & ((k + 1) * math.pi - phase <= t[owner])
        expect[lo:lo + 400] = np.bincount(owner[whole], minlength=len(t))
    assert np.array_equal(_whole_lobes(phase, t_max), expect)


@given(ys=st.lists(st.floats(min_value=0.01, max_value=2000.0), min_size=1, max_size=5),
       tail_cut=st.floats(min_value=0.5, max_value=1000.0),
       kernel=st.sampled_from(["sine", "cosine"]))
@example(ys=[20.0], tail_cut=30.0, kernel="sine")
@example(ys=[0.3, 1.0], tail_cut=500.0, kernel="sine")
@example(ys=[0.05, 1.0, 400.0], tail_cut=30.0, kernel="cosine")
@settings(max_examples=60, deadline=None)
def test_panel_layout_tiles_the_whole_lobes(ys, tail_cut, kernel):
    # each y's first panels tile its whole lobes 1, ..., whole once and in
    # order, each a power of two up to the cap, and one lobe or no longer in
    # x than x_start, its first zero, clipped to [_PANEL_X, _PANEL_X_MAX];
    # each is the largest such size the lobes left allow, and a row of no
    # lobes marks the y's last zero
    phase = 0.0 if kernel == "sine" else 0.5 * math.pi
    ys = np.array(ys)
    whole = _whole_lobes(phase, ys * tail_cut)
    owner, k, lobes = _panel_layout(phase, ys, whole)
    assert np.all(np.diff(owner) >= 0)
    for i, y in enumerate(ys):
        start, m = k[owner == i], lobes[owner == i]
        if not whole[i]:
            assert len(m) == 0
            continue
        assert start[0] == 1 and np.array_equal(start[1:], start[:-1] + m[:-1])
        assert m[-1] == 0 and start[-1] == whole[i] + 1
        start, m = start[:-1], m[:-1]
        assert np.all((m > 0) & ((m & (m - 1)) == 0) & (m <= _PANEL_LOBES))
        bound = np.clip((start * math.pi - phase) / y, _PANEL_X, _PANEL_X_MAX)
        assert np.all((m == 1) | (m * math.pi / y <= bound))
        larger = 2 * m
        assert np.all((larger > _PANEL_LOBES) | (larger * math.pi / y > bound)
                      | (larger > whole[i] + 1 - start))


def _panel_tie(m, side, length=_PANEL_X):
    """The y at which a panel of m lobes is exactly length long in x, (m
    pi) / y = length, or the float one ulp below or above it."""
    y = (m * math.pi) / length
    return math.nextafter(y, side * math.inf) if side else y


@given(ys=st.lists(st.one_of(st.floats(min_value=0.01, max_value=2000.0),
                             st.builds(_panel_tie, st.sampled_from(_PANEL_SIZES),
                                       st.sampled_from([-1, 0, 1]),
                                       st.sampled_from([_PANEL_X, _PANEL_X_MAX]))),
                   min_size=1, max_size=5),
       tail_cut=st.floats(min_value=1e-3, max_value=150.0),
       kernel=st.sampled_from(["sine", "cosine"]))
@example(ys=[_panel_tie(1, 0), _panel_tie(2, -1), _panel_tie(64, 1)], tail_cut=150.0,
         kernel="sine")
@example(ys=[_panel_tie(1, 1), _panel_tie(8, 0), _panel_tie(64, -1)], tail_cut=150.0,
         kernel="cosine")
@example(ys=[_panel_tie(1, 1, _PANEL_X_MAX), _panel_tie(16, 0, _PANEL_X_MAX),
             _panel_tie(32, -1, _PANEL_X_MAX)], tail_cut=150.0, kernel="sine")
@settings(max_examples=200, deadline=None)
def test_panel_layout_matches_the_growth_loop(ys, tail_cut, kernel):
    # the closed-form layout gives the rows, in order, of the reference that
    # grows each y's panels pass by pass, at random y and where the first
    # panel's size or the cap is decided on a tie with _PANEL_X or
    # _PANEL_X_MAX or one ulp from it
    phase = 0.0 if kernel == "sine" else 0.5 * math.pi
    ys = np.array(ys)
    whole = _whole_lobes(phase, ys * tail_cut)
    for got, expect in zip(_panel_layout(phase, ys, whole), oracle._panel_layout(phase, ys, whole)):
        assert np.array_equal(got, expect)


@given(ys=st.lists(st.floats(min_value=0.02, max_value=3.0), min_size=1, max_size=4),
       tail_cut=st.floats(min_value=0.5, max_value=200.0),
       kernel=st.sampled_from(["sine", "cosine"]))
@example(ys=[0.05], tail_cut=30.0, kernel="sine")
@example(ys=[0.02], tail_cut=160.0, kernel="sine")
@example(ys=[0.34736809249105166], tail_cut=5.0, kernel="sine")
@settings(max_examples=40, deadline=None)
def test_graded_pieces_are_no_longer_than_a_panel_there(ys, tail_cut, kernel):
    # every half-lobe piece, cut ones too, split until none is longer in x
    # than x_near, its end nearer the origin, clipped to [_PANEL_X,
    # _PANEL_X_MAX]; the split keeps each y's length and shares of the
    # tolerance
    phase = 0.0 if kernel == "sine" else 0.5 * math.pi
    ys = np.array(ys)
    pieces, owner = _pieces(phase, ys * tail_cut)
    part = np.random.default_rng(7).uniform(0.5, 1.0, len(owner))
    graded, graded_owner, graded_part = quad._graded_pieces(pieces, owner, part, ys)
    zero_end, far = _ends(graded)
    length = graded[:, 2]
    # compared in u = x y, as the split decides it: a far half of a bisected
    # piece is exactly as long as its distance from the origin
    y = ys[graded_owner]
    assert np.all(length <= np.clip(np.minimum(zero_end, far), _PANEL_X * y, _PANEL_X_MAX * y))
    t_max = y * tail_cut
    assert np.all(np.minimum(zero_end, far) >= 0.0)
    assert np.all(np.maximum(zero_end, far) <= t_max * (1 + 1e-15))
    for got, expect in ((graded[:, 2], pieces[:, 2]), (graded_part, part)):
        assert np.allclose(np.bincount(graded_owner, got, len(ys)),
                           np.bincount(owner, expect, len(ys)), rtol=1e-14, atol=0.0)


@given(v0=st.floats(min_value=1e-13, max_value=2.0),
       ratio=st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
       j=st.integers(min_value=2, max_value=40),
       tie=st.sampled_from([None, -1, 0, 1]),
       zero_end=st.floats(min_value=0.0, max_value=100.0),
       toward=st.sampled_from([1.0, -1.0]))
@example(v0=0.1, ratio=2.0, j=2, tie=0, zero_end=7.0, toward=-1.0)
@example(v0=1e-12, ratio=2.0, j=40, tie=1, zero_end=7.0, toward=-1.0)
@example(v0=0.3, ratio=2.0, j=5, tie=-1, zero_end=7.0, toward=1.0)
@settings(max_examples=200, deadline=None)
def test_split_near_its_zero_tiles_the_row(v0, ratio, j, tie, zero_end, toward):
    # a row whose zero lies 0 < off < length beyond its start splits at the
    # distances v0 2^j from the zero; each piece must lie at least its length
    # from the zero, exactly, or it takes the GJ(0, a) difference rule again
    # and reaches back across the cut it was split to avoid.  Lengths drawn
    # at v0 2^j - v0 and one ulp either side, and at random
    if tie is None:
        length = v0 * ratio
    else:
        length = math.ldexp(v0, j) - v0
        length = {-1: math.nextafter(length, 0.0), 0: length, 1: math.nextafter(length, math.inf)}[tie]
    row = np.array([[zero_end, toward, length, v0]])
    pieces, owner, part = _split(row, np.array([3]), np.array([0.25]))
    starts, lengths, offs = pieces[:, 0], pieces[:, 2], pieces[:, 3]
    m = len(pieces)
    assert np.all(pieces[:, 1] == toward) and np.all(owner == 3)
    assert np.all(offs >= lengths) and np.all(lengths > 0.0)
    # the fewest: m - 1 pieces v0 2^j long would end short of the row's end
    assert math.ldexp(v0, m - 1) - v0 < length
    # in order from the row's start, each with the row's zero, to rounding
    rounding = 8 * np.finfo(float).eps * (zero_end + v0 + length)
    ends = starts + toward * lengths
    assert starts[0] == zero_end
    assert np.all(np.abs(starts[1:] - ends[:-1]) <= rounding)
    assert abs(ends[-1] - (zero_end + toward * length)) <= rounding
    assert np.all(np.abs((starts - toward * offs) - (zero_end - toward * v0)) <= rounding)
    assert math.isclose(np.sum(part), 0.25, rel_tol=1e-14)


def _cut_near(kernel, y, delta, crest=False):
    """A tail_cut with y * tail_cut delta past a kernel zero, 3 pi for the
    sine and 5 pi/2 for the cosine, or past the crest before it, to the
    rounding of tail_cut."""
    with mp.workdps(30):
        t = (3 if kernel == "sine" else mp.mpf(5) / 2) * mp.pi - (mp.pi / 2 if crest else 0)
        return float((t + delta) / y)


@given(a=st.floats(min_value=-0.99, max_value=5.0),
       y=st.floats(min_value=0.05, max_value=20.0),
       tail_cut=st.floats(min_value=0.2, max_value=40.0),
       kernel=st.sampled_from(["sine", "cosine"]))
@example(a=-0.5, y=1.3, tail_cut=_cut_near("sine", 1.3, -1e-9), kernel="sine")
@example(a=1.5, y=1.3, tail_cut=_cut_near("cosine", 1.3, -1e-6), kernel="cosine")
@example(a=-0.9, y=0.2, tail_cut=7.0, kernel="cosine")
@settings(max_examples=40, deadline=None)
def test_f_is_evaluated_within_reach_of_the_cut(a, y, tail_cut, kernel):
    # f is evaluated only at 0 < x <= tail_cut + pi/(4y): a falling half cut
    # within pi/4 of its zero is its whole half-lobe less the part past the
    # cut, and nothing else reaches past tail_cut or to the origin
    seen = []
    f = lambda x: seen.append(np.asarray(x)) or np.exp(-x)
    integrate_kernel_split(f, a, y, QuadSpec(tail_cut=tail_cut), kernel)
    x = np.concatenate(seen)
    assert x.min() > 0.0
    assert x.max() <= (tail_cut + math.pi / (4 * y)) * (1 + 8 * np.finfo(float).eps)


# the cut inside lobes at two y; within 1e-12 and 1e-6 of a zero on either
# side (a falling half that ends 1e-12 short of its zero, or a rising piece
# 1e-12 long), and 1e-9 past a crest
_EDGE_CASES = [
    *[(y, tail_cut, a, kernel) for kernel in ("sine", "cosine")
      for a in (-0.99, -0.9, -0.5, 0.5, 1.5, 4.7) for y, tail_cut in ((1.3, 7.0), (0.45, 3.0))],
    *[pytest.param(1.3, _cut_near(kernel, 1.3, delta, where == "crest"), a, kernel,
                   id=f"{where}{delta:+.0e}-{a}-{kernel}")
      for kernel in ("sine", "cosine") for a in (-0.99, -0.9, 1.5, 4.9)
      for where, delta in (("zero", -1e-12), ("zero", 1e-12), ("zero", -1e-6), ("zero", 1e-6),
                           ("crest", 1e-9))],
]


class TestKernelSplit:
    def test_one_lobe_alpha_two(self):
        y = 2.0
        spec = QuadSpec(tail_cut=math.pi / y)
        val = integrate_kernel_split(lambda x: np.ones_like(x), 2.0, y, spec)
        assert abs(val - math.pi / (2.0 * y)) < 1e-12

    def test_gaussian_closed_form(self):
        val = integrate_kernel_split(f1, 2.0, 1.0, QuadSpec())
        assert abs(val - float(t2_f1(1.0))) < 1e-6

    def test_one_lobe_negative_alpha(self):
        y = 2.0
        spec = QuadSpec(tail_cut=math.pi / y)
        val = integrate_kernel_split(lambda x: np.ones_like(x), -0.5, y, spec)
        assert abs(val - sin_power_integral(-0.5) / y) < 1e-6

    def test_extreme_negative_alpha(self):
        y = 1.0
        spec = QuadSpec(tail_cut=math.pi)
        val = integrate_kernel_split(lambda x: np.ones_like(x), -0.95, y, spec)
        assert abs(val - sin_power_integral(-0.95)) < 1e-8

    def test_matches_single_domain_adaptive(self):
        # smooth integrand: lobe splitting must meet the plain integral
        # of sin^2(x) e^-x over (0, 3 pi]
        spec = QuadSpec(tail_cut=3.0 * math.pi)
        split = integrate_kernel_split(lambda x: np.exp(-x), 2.0, 1.0, spec)
        assert abs(split - 0.4 * (1.0 - math.exp(-3.0 * math.pi))) < 1e-9

    def test_cosine_kernel_full_mass(self):
        # |cos|^0 = 1: the integral is just the tail_cut mass of f
        spec = QuadSpec(tail_cut=10.0)
        val = integrate_kernel_split(lambda x: np.exp(-x), 0.0, 1.3, spec, kernel="cosine")
        assert abs(val - (1.0 - math.exp(-10.0))) < 1e-9

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            integrate_kernel_split(f1, 2.0, 0.0)
        with pytest.raises(ValueError):
            integrate_kernel_split(f1, 2.0, 1.0, kernel="tan")
        with pytest.raises(ValueError):  # y * tail_cut underflows to 0
            integrate_kernel_split(f1, 2.0, 1e-300, QuadSpec(tail_cut=1e-30))

    @pytest.mark.parametrize("kernel", ["sine", "cosine"])
    def test_lobe_count_past_int64_is_refused(self, kernel):
        # 2e20 / pi lobes at y = 2 do not fit in int64, where the cast to a
        # count would warn and give a negative one
        with pytest.raises(ValueError,
                           match=r"^y \* tail_cut = 2e\+20 has more lobes than int64 holds$"):
            integrate_kernel_split(f1, 1.5, [1.0, 2.0], QuadSpec(tail_cut=1e20), kernel)

    def test_scalar_only_callable(self):
        val = integrate_kernel_split(lambda x: math.exp(-float(x) ** 2), 2.0, 1.0)
        assert abs(val - float(t2_f1(1.0))) < 1e-6

    @pytest.mark.parametrize("y, tail_cut, a, kernel", _EDGE_CASES)
    def test_edge_pieces_against_mpmath(self, y, tail_cut, a, kernel):
        # the cosine's first lobe starts half a lobe before 0, and no cut is
        # aligned to the lobes, so both ends are pieces with offsets.  Within
        # 1e-12 of a zero at a < 0 a cut's distance to it carries the value:
        # taken from y * tail_cut and 3 pi rounded to floats, it moved the
        # value by 5e-10 to 1.3e-8 relative
        val = integrate_kernel_split(
            lambda x: np.exp(-x), a, y, QuadSpec(tail_cut=tail_cut), kernel
        )
        assert math.isclose(val, _edge_oracle(a, y, tail_cut, kernel), rel_tol=1e-10)

    @pytest.mark.parametrize("kernel, m", [("sine", 1.0), ("cosine", 1.5)])
    @pytest.mark.parametrize("a", [-0.99, -0.5])
    def test_cut_within_rounding_of_a_zero_is_at_it(self, kernel, m, a):
        # at y = 1, tail_cut = math.pi lies 1.2e-16 short of pi and
        # 1.5 * math.pi 1.8e-16 short of 3 pi/2: the lobe ending there is
        # whole, as test_extreme_negative_alpha has it, where the exact cut
        # would leave out the sliver's (1.2e-16)^(a+1)/(a+1) of kernel mass,
        # 69 f(pi) at a = -0.99.  The next float past the zero starts a
        # piece whose length comes from the exact y * tail_cut
        short = m * math.pi
        with mp.workdps(30):
            zero = m * mp.pi
            assert short < zero
        for tail_cut, oracle_cut in ((short, zero), (math.nextafter(short, math.inf), None)):
            val = integrate_kernel_split(lambda x: np.exp(-x), a, 1.0, QuadSpec(tail_cut=tail_cut),
                                         kernel)
            exact = _edge_oracle(a, 1.0, tail_cut if oracle_cut is None else oracle_cut, kernel)
            assert math.isclose(val, exact, rel_tol=1e-10)

    @pytest.mark.parametrize("kernel", ["sine", "cosine"])
    @pytest.mark.parametrize("a", [-0.99, -0.9, 1.5, 4.9])
    def test_sampled_input_ending_at_the_cut(self, kernel, a):
        # two samples, at a zero and at tail_cut, 0.5 short of the next zero:
        # the falling half there is the whole half-lobe less the part past
        # the cut, where constant extrapolation kinks the interpolant.  The
        # Gauss estimate sees the kink, so the piece is bisected until the
        # halves that hold the kink meet their shares
        y, zero = 1.3, (2.0 if kernel == "sine" else 1.5) * math.pi
        start = zero / y
        samples = SampledFunction(UniformGrid(start, (zero + math.pi - 0.5) / y - start, 2),
                                  np.array([1.0, 0.25]))
        tail_cut = samples.grid.last

        def exact(x):
            return 1.0 + (0.25 - 1.0) * min(max(x - start, 0), tail_cut - start) / (tail_cut - start)

        val = integrate_kernel_split(samples.eval, a, y, QuadSpec(tail_cut=tail_cut), kernel)
        assert math.isclose(val, _edge_oracle(a, y, tail_cut, kernel, exact, (start,)),
                            rel_tol=1e-10)

    @given(a=st.floats(min_value=-0.99, max_value=5.0),
           y=st.floats(min_value=0.3, max_value=3.0),
           tail_cut=st.floats(min_value=2.0, max_value=10.0),
           kernel=st.sampled_from(["sine", "cosine"]))
    @settings(max_examples=12, deadline=None)
    def test_random_alpha_against_mpmath(self, a, y, tail_cut, kernel):
        # interior half-lobes and cut pieces through the Gauss pass, and
        # bisection where a lobe is wide against e^{-x}
        val = integrate_kernel_split(
            lambda x: np.exp(-x), a, y, QuadSpec(tail_cut=tail_cut), kernel
        )
        assert math.isclose(val, _edge_oracle(a, y, tail_cut, kernel), rel_tol=1e-10)

    @pytest.mark.parametrize("a", [-0.5, 1.5])
    @pytest.mark.parametrize("y", [1.0, 2.5])
    def test_kink_inside_an_interior_lobe_is_bisected(self, a, y):
        # the kink of |x - c| e^{-x} lies inside an interior half-lobe, as the
        # kinks of a sampled f's linear interpolant do; the Gauss estimate
        # exceeds the piece's share of the tolerance, so the piece is bisected
        # until the half that holds the kink meets its own share
        c = 1.2345
        kink = lambda x: np.abs(x - c) * np.exp(-x)
        spec = QuadSpec(rel_tol=1e-6, tail_cut=6.0)
        exact = _edge_oracle(a, y, 6.0, "sine", lambda x: abs(x - c) * mp.exp(-x), (c,))
        pieces, _ = _pieces(0.0, np.array([6.0 * y]))
        ends = np.sort(np.column_stack(_ends(pieces)), axis=1)
        at = np.flatnonzero(_interior(pieces) & (ends[:, 0] < c * y) & (c * y < ends[:, 1]))
        _, gauss_err = _gauss_piece_sums(kink, a, pieces[at], np.full(len(at), y))
        assert gauss_err[0] > spec.rel_tol * exact / (2 * len(pieces))
        val = integrate_kernel_split(kink, a, y, spec)
        assert math.isclose(val, exact, rel_tol=spec.rel_tol)

    @pytest.mark.parametrize("kernel", ["sine", "cosine"])
    @pytest.mark.parametrize("a", [-0.99, -0.9])
    def test_kink_inside_a_falling_cut_near_its_zero(self, kernel, a):
        # the cut 1e-12 short of a zero: the falling half there is its whole
        # half-lobe less the part past the cut, and the kink of |x - c| e^{-x}
        # 0.05 before the zero sends it to bisection; each half at the zero
        # is again a difference of two GJ(0, a) rows, to its own far end
        y = 1.3
        tail_cut = _cut_near(kernel, y, -1e-12)
        c = tail_cut - 0.05 / y
        kink = lambda x: np.abs(x - c) * np.exp(-x)
        val = integrate_kernel_split(kink, a, y, QuadSpec(tail_cut=tail_cut), kernel)
        exact = _edge_oracle(a, y, tail_cut, kernel, lambda x: abs(x - c) * mp.exp(-x), (c,))
        assert math.isclose(val, exact, rel_tol=1e-10)

    @pytest.mark.parametrize("kernel", ["sine", "cosine"])
    def test_f_undefined_past_the_cut(self, kernel, monkeypatch):
        # the falling half cut 1e-6 to 1e-12 short of its zero is a
        # difference of two GJ(0, a) rows, which evaluate f up to the zero;
        # where f is NaN past the cut, the piece splits at v0 2^j into
        # pieces that no longer reach past the cut, so only the first pass
        # over the pieces evaluates f there.  Bisection at midpoints needed
        # 34 to 41 rounds there, past the last.  Where f is NaN inside, no
        # split mends it
        passes = []
        piece_sums = quad._gauss_piece_sums
        monkeypatch.setattr(quad, "_gauss_piece_sums",
                            lambda *args: passes.append(len(passes)) or piece_sums(*args))
        y = 1.3
        for a in (-0.5, 1.5, -0.9):
            for short in (1e-6, 1e-9, 1e-10, 1e-12):
                spec = QuadSpec(tail_cut=_cut_near(kernel, y, -short))
                past = set()

                def undefined_past(x):
                    if np.any(x > spec.tail_cut):
                        past.add(len(passes))
                    return np.where(x <= spec.tail_cut, np.exp(-x), np.nan)

                passes.clear()
                val = integrate_kernel_split(undefined_past, a, y, spec, kernel)
                assert past == {1}, (a, short)
                exact = _edge_oracle(a, y, spec.tail_cut, kernel)
                assert math.isclose(val, exact, rel_tol=1e-10), (a, short)
        with pytest.raises(NonConvergence, match="error nan above tolerance"):
            integrate_kernel_split(lambda x: np.full_like(x, np.nan), a, y, spec, kernel)

    @pytest.mark.parametrize("delta", [0.02, 0.1, 0.2, 0.3])
    @pytest.mark.parametrize("a", [-0.9, 1.5, 4.5])
    def test_kink_before_a_panel_end_zero(self, a, delta):
        # at y = 2 and tail_cut 40 the panel [8 pi, 16 pi] holds 8 lobes; the
        # kink of |x - c| e^{-x/8} lies delta before its end zero, nearer
        # than the panel rule's first node (0.33 at a = 1.5, 0.61 at 4.5), so
        # no node of the panel sees it and its null rules stay at rounding
        # level.  The end check sees it: f at the zero is off the rule's
        # interpolant extrapolated there.  Without the check the same kink
        # before the end of the panel [pi, 9 pi] at y = 1 was 4e-8 to 1.9e-6
        # off at a = 1.5
        y = 2.0
        _, k, lobes = _panel_layout(0.0, np.array([y]), _whole_lobes(0.0, np.array([40.0 * y])))
        assert (k[lobes == 8] == [8, 16]).all()
        c = (16 * math.pi - delta) / y
        kink = lambda x: np.abs(x - c) * np.exp(-x / 8.0)
        val = integrate_kernel_split(kink, a, y, QuadSpec(tail_cut=40.0))
        exact = _edge_oracle(a, y, 40.0, "sine", lambda x: abs(x - c) * mp.exp(-x / 8), (c,))
        assert math.isclose(val, exact, rel_tol=1e-9)

    @pytest.mark.parametrize("a", [1.5, 4.5])
    def test_kinks_inside_the_ends_of_the_largest_panel(self, a):
        # at y = 20 and tail_cut 30 the panel [65 pi, 129 pi] holds the cap,
        # 64 lobes, whose rule's first node lies 1.40 from its ends at
        # a = 1.5 and 1.57 at 4.5; the kinks of sum_c |x - c| e^{-x/8} lie
        # 0.02, 0.3 and 1.0 inside both end zeros, where only the end check
        # sees them.  Without the check on this panel the value is kept
        # above 1e-10 off, by the two farther kinks at either end
        y, deltas = 20.0, np.array([0.02, 0.3, 1.0])
        _, k, lobes = _panel_layout(0.0, np.array([y]), _whole_lobes(0.0, np.array([30.0 * y])))
        assert k[lobes == _PANEL_LOBES].tolist() == [65]
        assert deltas.max() < _gauss_pair(a, _PANEL_LOBES * math.pi)[0][0, 0]
        cs = tuple(np.concatenate((65 * math.pi + deltas, 129 * math.pi - deltas)) / y)
        kinks = lambda x: sum(np.abs(x - c) for c in cs) * np.exp(-x / 8.0)
        val = integrate_kernel_split(kinks, a, y, QuadSpec(tail_cut=30.0))
        exact = _edge_oracle(a, y, 30.0, "sine",
                             lambda x: sum(abs(x - c) for c in cs) * mp.exp(-x / 8), cs)
        assert math.isclose(val, exact, rel_tol=1e-10)

    def test_kink_just_past_a_panel_start_zero(self):
        # the kink of |x - c| e^{-x} lies u = 0.0498 past the zero pi, where
        # the first panel of the y's 7 whole lobes, of 2 lobes, starts,
        # nearer than any node of a lobe rule (0.065 at this a).  The end check sees it, and
        # the panel halves down to the lobe that holds it, whose half-lobes
        # the rounds refine; as a lone lobe without the check it was kept
        # 5.2e-8 off
        a, y, c = 2.126031, 4.264481, 0.748370504
        kink = lambda x: np.abs(x - c) * np.exp(-x)
        val = integrate_kernel_split(kink, a, y, QuadSpec(tail_cut=6.0))
        exact = _edge_oracle(a, y, 6.0, "sine", lambda x: abs(x - c) * mp.exp(-x), (c,))
        assert math.isclose(val, exact, rel_tol=1e-10)

    @pytest.mark.parametrize("a", [1.5, 3.0, 4.5])
    def test_kink_just_past_a_one_lobe_panel_zero(self, a):
        # at y = 1 and tail_cut 7 the one panel is the lobe [pi, 2 pi]; the
        # kinks of |x - c| e^{-x} lie 0.3 to 0.9 of its rule's first node u_1
        # past pi, where no node sees them.  The end check does, and sends
        # the lobe to its half-lobes.  A kink past the half-lobe rule's first
        # node is seen there, and the value meets 1e-10; one nearer lies in
        # the half-lobe's blind band, and the value is off by the sliver
        # between the zero and the kink, 2.7e-8 at most (a = 1.5, 0.5 u_1).
        # The lone-lobe rule, unchecked, was up to 2.1e-7 / 2.0e-8 / 3.1e-9
        # off at a = 1.5 / 3 / 4.5
        first, half = (_gauss_pair(a, span)[0][0, 0] for span in (math.pi, 0.5 * math.pi))
        for part in np.arange(3, 10) / 10:
            c = math.pi + part * first
            kink = lambda x: np.abs(x - c) * np.exp(-x)
            val = integrate_kernel_split(kink, a, 1.0, QuadSpec(tail_cut=7.0))
            exact = _edge_oracle(a, 1.0, 7.0, "sine", lambda x: abs(x - c) * mp.exp(-x), (c,))
            assert math.isclose(val, exact, rel_tol=1e-10 if part * first > half else 5e-8), part

    def test_refinement_exhausted(self):
        # a step inside a lobe: each bisection halves both the error of the
        # piece that holds it and that piece's share, so no number of rounds
        # reaches a 1e-13 tolerance
        spec = QuadSpec(abs_tol=1e-13, rel_tol=1e-13, tail_cut=4.0)
        with pytest.raises(NonConvergence, match="integrate_kernel_split"):
            integrate_kernel_split(lambda x: (np.asarray(x) < 1.2345).astype(float), 1.5, 1.0, spec)

    @pytest.mark.parametrize("a, y, c", [(1.5, 1.5, 4.155), (1.5, 2.5, 5.0)])
    def test_kinked_whole_lobe_is_split(self, a, y, c, monkeypatch):
        # the lobe holding the kink of (1 + |x - c|/100) e^{-x}, as a panel of
        # one lobe, has an estimate within the share the y's own tolerance
        # 1e-6 would give it, but not within the share at quadrature
        # precision, so it is split into its halves before the first round
        # instead of being kept with a kinked value.  A kink inside the lobe
        # mostly shows far above that share; these lie just past the rule's
        # first node from the lobe's far zero, where the end check sees
        # |x - c| e^{-x} at 4e-6 to 1.2e-5 of the share, above 1e-6
        kink = lambda x: (1.0 + np.abs(x - c) / 100.0) * np.exp(-x)
        spec = QuadSpec(rel_tol=1e-6, tail_cut=6.0)
        t_max = np.array([6.0 * y])
        zero = np.arange(1, _whole_lobes(0.0, t_max)[0] + 1) * math.pi
        ys = np.full(len(zero), y)
        ends = kink(np.stack((zero, zero + math.pi)) / ys) / ys
        value, error = _lobe_sums(kink, a, zero, np.ones(len(zero), dtype=int), ys, ends)
        held = (zero < c * y) & (c * y < zero + math.pi)
        share = 2.0 * np.sum(np.abs(value)) / len(_pieces(0.0, t_max)[0])
        assert 1e-10 * share < error[held][0] <= spec.rel_tol * share
        calls = []
        piece_sums = quad._gauss_piece_sums

        def recorded(f, alpha, pieces, *rest):
            calls.append(pieces)
            return piece_sums(f, alpha, pieces, *rest)

        monkeypatch.setattr(quad, "_gauss_piece_sums", recorded)
        val = integrate_kernel_split(kink, a, y, spec)
        # the first round's pieces hold both halves of the kinked lobe
        ends = np.sort(np.column_stack(_ends(calls[0])), axis=1)
        lo, hi = zero[held][0], zero[held][0] + math.pi
        assert np.count_nonzero(_interior(calls[0]) & (lo <= ends[:, 0]) & (ends[:, 1] <= hi)) == 2
        exact = _edge_oracle(a, y, 6.0, "sine", lambda x: (1 + abs(x - c) / 100) * mp.exp(-x), (c,))
        assert math.isclose(val, exact, rel_tol=spec.rel_tol)


@lru_cache(maxsize=None)
def _curve_evaluations(f, a):
    # how many times f is evaluated over a forward_invert curve at the
    # default spec; one run serves every count test below
    seen = []
    integrate_kernel_split(lambda x: seen.append(np.size(x)) or f(x), a, 0.05 * np.arange(1, 401))
    return sum(seen)


class TestArrayY:
    def test_one_y_that_cannot_converge_is_named(self):
        # the step of f at x = pi sits on a piece end at y = 0.5, 1 and 2
        # (t = pi/2, pi, 2 pi) but inside a lobe at y = 1.3
        spec = QuadSpec(abs_tol=1e-13, rel_tol=1e-13, tail_cut=4.0)
        step = lambda x: (np.asarray(x) < math.pi).astype(float)
        ys = np.array([0.5, 1.0, 2.0])
        assert np.all(np.isfinite(integrate_kernel_split(step, 1.5, ys, spec)))
        with pytest.raises(NonConvergence, match=r"at y=1\.3$"):
            integrate_kernel_split(step, 1.5, np.insert(ys, 2, 1.3), spec)

    def test_each_y_stops_on_its_own_tolerance(self):
        # a kink inside a lobe makes the error estimate tight, so the value
        # depends on when refinement stops; the two totals differ by 60x, and
        # a y that has converged is not refined further while the other is
        spec = QuadSpec(abs_tol=1e-14, rel_tol=1e-5, tail_cut=6.0)
        kink = lambda x: np.abs(np.asarray(x) - 1.2345) * np.exp(-x)
        ys = np.array([0.02, 0.9])
        single = [integrate_kernel_split(kink, 1.5, float(y), spec) for y in ys]
        assert np.array_equal(integrate_kernel_split(kink, 1.5, ys, spec), single)

    def test_rule_cache_misses_per_step_not_per_y(self):
        # the panels of each size, the powers of two from 1 to _PANEL_LOBES
        # lobes, share one Gauss rule over every y, and whole half-lobes another, each built from
        # the GJ(0, a) measure; every other piece, split ones too, takes
        # GJ(0, a) or GJ(0, 0): each built once per a.  This curve halves
        # panels down to every size.  No rule is built per y, what the Gauss
        # pass leaves open is split, and quad has no tanh-sinh rule
        for cached in (_gauss_pair, _jacobi_rule):
            cached.cache_clear()
        ys = 0.05 * np.arange(1, 401)
        for _ in range(2):
            integrate_kernel_split(f3, -0.9, ys)
        assert _gauss_pair.cache_info().misses == len(_PANEL_SIZES) + 1
        assert _jacobi_rule.cache_info().misses == 2
        assert not hasattr(quad, "_rules")

    def test_bisection_stops_at_rounding_level(self):
        # f3 at a = -0.9 over the forward_invert curve at rel_tol 1e-14: a
        # piece whose estimate is within rounding of its value is not split
        # again, or this curve takes 23 rounds; with the open pieces on
        # tanh-sinh it took 714,051 evaluations, with panels of 8 that halve
        # 252,598, with panels and pieces sized to x 240,981, and with panel
        # estimates that read the decay of their null rules 167,737
        seen = []
        integrate_kernel_split(lambda x: seen.append(np.size(x)) or f3(x), -0.9,
                               0.05 * np.arange(1, 401), QuadSpec(rel_tol=1e-14))
        assert sum(seen) <= 167_737

    def test_gauss_pass_halves_f_evaluations(self):
        # tanh-sinh alone took 7,672,895 evaluations of f on this curve; 26
        # per interior half-lobe need under half
        assert _curve_evaluations(f3, -0.9) <= 3.9e6

    def test_whole_lobe_pass_halves_them_again(self):
        # 26 evaluations per whole lobe where its two half-lobes took 52: the
        # half-lobe pass took 2,015,884 on this curve
        assert _curve_evaluations(f3, -0.9) <= 1.1e6

    def test_null_rules_cut_them_by_a_third(self):
        # 16 evaluations per whole lobe where G16 and G10 took 26: the pair
        # took 1,028,888 on this curve
        assert _curve_evaluations(f3, -0.9) <= 0.7e6

    def test_gauss_jacobi_cut_pieces_keep_the_saving(self):
        # every cut piece on GJ(0, a), 16 or 32 evaluations where tanh-sinh
        # took 57 at a = -0.9: with cut pieces on tanh-sinh this curve took
        # 654,836
        assert _curve_evaluations(f3, -0.9) <= 639_887

    def test_panels_cut_the_lattice_evaluations(self):
        # the whole lobes of a y go in panels of 16 nodes and one shared end
        # zero each, and a failed panel halves at one more zero.  With a rule
        # per lobe this curve took 628,464 evaluations; with panels of 8
        # whose failures fell to a lone-lobe rule, 179,434; with panels of 8
        # that halve, 146,656; with panels sized to x, growing with their
        # distance from the origin up to _PANEL_LOBES lobes, and pieces
        # pre-split to the same lengths, 109,196.  A panel estimate that
        # reads the decay of its null rules fails fewer smooth panels
        assert _curve_evaluations(f3, -0.9) <= 89_121

    @pytest.mark.parametrize("f, a, count", [(f1, 1.5, 81_874), (f2, -0.5, 74_453)],
                             ids=["f1", "f2"])
    def test_every_workload_curve_holds_its_evaluations(self, f, a, count):
        # the other two forward_invert curves, beside f3's above: panels and
        # pieces sized to x took 107,822 and 88,827, and panel estimates that
        # read the decay of their null rules these counts
        assert _curve_evaluations(f, a) <= count

    def test_f_is_not_evaluated_at_the_origin(self):
        # the integral is over (0, tail_cut]: a panel's end check evaluates f
        # at its end zeros, so the sine's first lobe, which starts at x = 0,
        # goes to its half-lobes, and f singular at 0 is integrated as before
        seen = []
        f = lambda x: seen.append(np.min(x)) or np.exp(-x) / np.sqrt(x)
        val = integrate_kernel_split(f, 1.5, np.array([1.0, 5.0]))
        assert np.all(np.isfinite(val)) and min(seen) > 0.0
        scalar_only = lambda x: math.exp(-float(x)) / math.sqrt(float(x))
        assert integrate_kernel_split(scalar_only, 1.5, 5.0) == val[1]

    @pytest.mark.parametrize("budget", [1, 97, 5000])
    def test_values_do_not_depend_on_the_lobe_budget(self, budget, monkeypatch):
        # every y keeps its own pieces, sums and stopping rule, so a curve gets
        # the same bits in blocks of one y (a budget of 1) as in blocks of
        # many; the forward_invert curves, on both kernels
        ys = 0.05 * np.arange(1, 401)
        cases = [(f, a, kernel) for f, a in ((f1, 1.5), (f2, -0.5), (f3, -0.9))
                 for kernel in ("sine", "cosine")]
        default = [integrate_kernel_split(f, a, ys, kernel=kernel) for f, a, kernel in cases]
        monkeypatch.setattr(quad, "_LOBE_BLOCK", budget)
        for (f, a, kernel), expect in zip(cases, default):
            assert np.array_equal(integrate_kernel_split(f, a, ys, kernel=kernel), expect)

    def test_rejects_bad_y_in_an_array(self):
        with pytest.raises(ValueError, match="got 0.0"):
            integrate_kernel_split(f1, 2.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="got nan"):
            integrate_kernel_split(f1, 2.0, np.array([math.nan]))
