"""Quadrature engine: kernel-zero lobe rules, and the plain integral as the
rule at a = 0."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphasine.errors import NonConvergence
from alphasine.quad import (_GAUSS_N, QuadSpec, _gauss_rule, _gauss_sums, _interior,
                            _kernel_pieces, _lobe_rule, _place, _rules, integrate,
                            integrate_kernel_split)
from alphasine.specfun import sin_power_integral

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


def _weighted_moment(a, k):
    """20-digit integral of sin(u)^a u^k over [0, pi/2].  Below u = 1/2 the
    substitution u = v^(1/(1+a)) turns u^a du into dv/(1+a), so mpmath sees
    no singularity; a plain mp.quad misses the mass by 45% at a = -0.99."""
    with mp.workdps(20):
        a = mp.mpf(a)
        e = 1 / (1 + a)
        half = mp.mpf(1) / 2
        near = mp.quad(lambda v: mp.sinc(v**e) ** a * v ** (e * k), [0, half ** (1 + a)]) * e
        return float(near + mp.quad(lambda u: mp.sin(u) ** a * u**k, [half, mp.pi / 2]))


@given(a=st.floats(min_value=-0.99, max_value=5.0))
@example(a=-0.99)
@example(a=-0.9)
@example(a=1.5)
@settings(max_examples=6, deadline=None)
def test_gauss_rule_moments(a):
    # an n-point Gauss rule integrates u^k exactly for k < 2n; the mass
    # is B(1/2, (a+1)/2)/2 in closed form.  Below a = -0.99 the tanh-sinh
    # measure the rule is built from loses digits in its log-space weights
    # (the moments drift to 4e-13 at a = -0.999), as the tanh-sinh rule does
    moments = [_weighted_moment(a, k) for k in range(2 * max(_GAUSS_N))]
    with mp.workdps(30):
        mass = float(mp.beta(0.5, (a + 1) / 2) / 2)
    for n in _GAUSS_N:
        u, w = _gauss_rule(a, n)
        assert len(u) == n and np.all(np.diff(u) > 0.0) and u[0] > 0.0 and u[-1] < 0.5 * math.pi
        assert np.all(w > 0.0)
        assert math.isclose(math.fsum(w), mass, rel_tol=1e-13)
        for k in range(2 * n):
            assert math.isclose(np.dot(w, u**k), moments[k], rel_tol=1e-13), (n, k)


def test_place_writes_both_halves_as_a_where_would():
    # the near nodes are a prefix of every row, so slicing places each node
    # exactly as choosing between the two full candidate arrays did
    rng = np.random.default_rng(5)
    zero_end = rng.uniform(0.0, 50.0, 6)
    other_end = zero_end + np.where(rng.random(6) < 0.5, 1.3, -1.3)
    shared = _lobe_rule(1.5, 0.25, 1.3, 0.0)[:2]
    per_row = _rules(-0.5, 0.25, np.full((6, 1), 1.3), np.full((6, 1), 0.1))[:2]
    for d, near in (shared, per_row):
        assert near[: np.count_nonzero(near)].all()
        toward = np.sign(other_end - zero_end)[:, None] * d
        expect = np.where(near, zero_end[:, None] + toward, other_end[:, None] - toward)
        assert np.array_equal(_place(d, near, zero_end, other_end), expect)


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

    def test_scalar_only_callable(self):
        val = integrate_kernel_split(lambda x: math.exp(-float(x) ** 2), 2.0, 1.0)
        assert abs(val - float(t2_f1(1.0))) < 1e-6

    @pytest.mark.parametrize("kernel", ["sine", "cosine"])
    @pytest.mark.parametrize("a", [-0.99, -0.9, -0.5, 0.5, 1.5, 4.7])
    @pytest.mark.parametrize("y, tail_cut", [(1.3, 7.0), (0.45, 3.0)])
    def test_edge_pieces_against_mpmath(self, kernel, a, y, tail_cut):
        # the cosine's first lobe starts half a lobe before 0, and neither cut
        # is aligned to the lobes, so both ends are pieces with offsets
        val = integrate_kernel_split(
            lambda x: np.exp(-x), a, y, QuadSpec(tail_cut=tail_cut), kernel
        )
        assert math.isclose(val, _edge_oracle(a, y, tail_cut, kernel), rel_tol=1e-10)

    @given(a=st.floats(min_value=-0.99, max_value=5.0),
           y=st.floats(min_value=0.3, max_value=3.0),
           tail_cut=st.floats(min_value=2.0, max_value=10.0),
           kernel=st.sampled_from(["sine", "cosine"]))
    @settings(max_examples=12, deadline=None)
    def test_random_alpha_against_mpmath(self, a, y, tail_cut, kernel):
        # interior half-lobes through the Gauss pass (or its fallback where a
        # lobe is wide against e^{-x}), cut pieces through tanh-sinh
        val = integrate_kernel_split(
            lambda x: np.exp(-x), a, y, QuadSpec(tail_cut=tail_cut), kernel
        )
        assert math.isclose(val, _edge_oracle(a, y, tail_cut, kernel), rel_tol=1e-10)

    @pytest.mark.parametrize("a", [-0.5, 1.5])
    @pytest.mark.parametrize("y", [1.0, 2.5])
    def test_kink_inside_an_interior_lobe_falls_back(self, a, y):
        # the kink of |x - c| e^{-x} lies inside an interior half-lobe, as the
        # kinks of a sampled f's linear interpolant do; |G16 - G10| exceeds
        # the piece's share of the tolerance, so the piece must go on to
        # tanh-sinh, whose halving reaches about 1e-6 on a kink
        c = 1.2345
        kink = lambda x: np.abs(x - c) * np.exp(-x)
        spec = QuadSpec(rel_tol=1e-6, tail_cut=6.0)
        exact = _edge_oracle(a, y, 6.0, "sine", lambda x: abs(x - c) * mp.exp(-x), (c,))
        pieces, _ = _kernel_pieces(0.0, np.array([6.0 * y]))
        ends = np.sort(pieces[:, :2], axis=1)
        at = np.flatnonzero(_interior(pieces) & (ends[:, 0] < c * y) & (c * y < ends[:, 1]))
        _, gauss_err = _gauss_sums(kink, a, pieces[at], np.array([y]))
        assert gauss_err[0] > spec.rel_tol * exact / (2 * len(pieces))
        val = integrate_kernel_split(kink, a, y, spec)
        assert math.isclose(val, exact, rel_tol=spec.rel_tol)

    def test_refinement_exhausted(self):
        # a step inside a lobe defeats the tanh-sinh rule, so seven halvings
        # cannot reach a 1e-13 tolerance
        spec = QuadSpec(abs_tol=1e-13, rel_tol=1e-13, tail_cut=4.0)
        with pytest.raises(NonConvergence, match="integrate_kernel_split"):
            integrate_kernel_split(lambda x: (np.asarray(x) < 1.2345).astype(float), 1.5, 1.0, spec)


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
        # interior half-lobes of every y share one Gauss pair, built once per
        # (a, n) from the one cached rule, the measure at step 0.1; every
        # piece that takes tanh-sinh gets its rule row by row, outside the cache
        _lobe_rule.cache_clear()
        _gauss_rule.cache_clear()
        ys = 0.05 * np.arange(1, 401)
        for _ in range(2):
            integrate_kernel_split(f3, -0.9, ys)
        assert _gauss_rule.cache_info().misses == len(_GAUSS_N)
        assert _lobe_rule.cache_info().misses == 1

    def test_gauss_pass_halves_f_evaluations(self):
        # f3 at a = -0.9 over the forward_invert curve: tanh-sinh alone took
        # 7,672,895 evaluations of f; 26 per interior half-lobe need under half
        seen = []

        def counted(x):
            seen.append(np.size(x))
            return f3(x)

        integrate_kernel_split(counted, -0.9, 0.05 * np.arange(1, 401))
        assert sum(seen) <= 3.9e6

    def test_rejects_bad_y_in_an_array(self):
        with pytest.raises(ValueError, match="got 0.0"):
            integrate_kernel_split(f1, 2.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="got nan"):
            integrate_kernel_split(f1, 2.0, np.array([math.nan]))
