"""Fourier-approximation inversion: system solve, synthesis, smoothing."""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from alphasine.errors import NoTailSamples, SingularDiagonal
from alphasine.fourier_inv import (
    FourierSamples,
    MollifierKind,
    build_rhs,
    estimate_f0,
    invert_fourier,
    mollifier_kernel,
    solve_xi,
    synthesize,
)
from alphasine.grid import SampledFunction, UniformGrid
from alphasine.specfun import sine_coeffs

from conftest import dense_system_matrix, fhat1, rel_l2, sample, t2_f1
from solve_xi_oracle import solve_xi_rows


def _block_edges(k: int) -> list[int]:
    # N around k^2 and k(k+1), where the blocks of one row meet the wide ones
    return [k * k - 1, k * k, k * k + 1, k * (k + 1) - 1, k * (k + 1), k * (k + 1) + 1]


_SOLVE_N = st.one_of(
    st.integers(min_value=1, max_value=20_000),
    st.integers(min_value=1, max_value=141).flatmap(lambda k: st.sampled_from(_block_edges(k))),
).filter(lambda n: 1 <= n <= 20_000)


class TestEstimateF0:
    def test_flat_tail(self):
        c0 = sine_coeffs(1.5, 1).coeffs[0]
        g = SampledFunction(UniformGrid(0.0, 1.0, 21), np.full(21, 0.5 * c0 * 3.25))
        assert math.isclose(estimate_f0(g, 1.5, 10.0), 3.25, rel_tol=1e-13)

    def test_closed_form_tail(self):
        g = sample(t2_f1, 0.0, 20.0, 1601)
        assert abs(estimate_f0(g, 2.0, 10.0) - math.sqrt(math.pi)) < 1e-3

    def test_no_tail(self):
        g = sample(t2_f1, 0.0, 5.0, 11)
        with pytest.raises(NoTailSamples):
            estimate_f0(g, 2.0, 10.0)


class TestBuildRhs:
    def test_flat_gives_zero(self):
        c0 = sine_coeffs(0.7, 1).coeffs[0]
        g = SampledFunction(UniformGrid(0.0, 0.5, 41), np.full(41, 0.5 * c0 * 2.0))
        eta = build_rhs(g, 0.7, 16, 10.0, 2.0)
        assert np.max(np.abs(eta)) < 1e-12

    def test_alpha_two_relation(self):
        n, r = 50, 10.0
        eta = build_rhs(t2_f1, 2.0, n, r, math.sqrt(math.pi))
        expect = -0.25 * fhat1(np.arange(1, n + 1) * r / n)
        assert np.max(np.abs(eta - expect)) < 1e-12

    def test_single_row(self):
        eta = build_rhs(t2_f1, 2.0, 1, 10.0, math.sqrt(math.pi))
        assert math.isclose(
            eta[0], float(t2_f1(5.0)) - 0.25 * math.sqrt(math.pi), abs_tol=1e-15
        )


class TestSolveXi:
    def test_alpha_two_diagonal(self):
        rng = np.random.default_rng(7)
        eta = rng.standard_normal(32)
        assert np.array_equal(solve_xi(sine_coeffs(2.0, 32), eta), -4.0 * eta)

    def test_zero_rhs(self):
        assert np.array_equal(solve_xi(sine_coeffs(1.5, 16), np.zeros(16)), np.zeros(16))

    def test_singular_at_alpha_zero(self):
        with pytest.raises(SingularDiagonal):
            solve_xi(sine_coeffs(0.0, 8), np.ones(8))

    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.5, 3.0])
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_round_trip_against_dense(self, alpha, n):
        rng = np.random.default_rng(hash((alpha, n)) % 2**32)
        xi_true = rng.standard_normal(n)
        coeffs = sine_coeffs(alpha, n)
        eta = dense_system_matrix(coeffs, n) @ xi_true
        xi = solve_xi(coeffs, eta)
        assert np.max(np.abs(xi - xi_true)) <= 1e-9 * np.max(np.abs(xi_true))

    @given(n=st.integers(min_value=1, max_value=40), seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        xi_true = rng.standard_normal(n)
        coeffs = sine_coeffs(1.2, n)
        eta = dense_system_matrix(coeffs, n) @ xi_true
        assert np.max(np.abs(solve_xi(coeffs, eta) - xi_true)) <= 1e-9 * (
            1.0 + np.max(np.abs(xi_true))
        )


    @given(alpha=st.floats(min_value=-1.0, max_value=5.0, exclude_min=True),
           n=_SOLVE_N, seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_blocks_match_row_loop(self, alpha, n, seed):
        assume(alpha != 0.0)
        coeffs = sine_coeffs(alpha, n)
        eta = np.random.default_rng(seed).standard_normal(n)
        if abs(coeffs.coeffs[1]) < 1e-14:
            with pytest.raises(SingularDiagonal):
                solve_xi(coeffs, eta)
            return
        ref = solve_xi_rows(coeffs, eta)
        assert np.max(np.abs(solve_xi(coeffs, eta) - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_rhs(t2_f1, 2.0, 0, 10.0, math.sqrt(math.pi)), ValueError,
     "n must be an integer >= 1, got 0"),
    (lambda: solve_xi(sine_coeffs(1.5, 4), np.ones(8)), ValueError,
     "need coefficients up to index 8, got 4"),
    (lambda: estimate_f0(t2_f1, 2.0, 10.0), TypeError, "estimate_f0 needs a SampledFunction"),
    # a transform that is NaN past y = 1 makes xi NaN, which synthesis would spread
    (lambda: invert_fourier(lambda y: np.where(y > 1.0, np.nan, 0.0), 2.0, 4, 4.0,
                            UniformGrid(0.0, 0.5, 3), f0_override=1.0), ValueError,
     "xi must be finite, got nan"),
], ids=["rhs-no-rows", "short-table", "f0-of-callable", "nan-transform"])
def test_refusal_names_its_cause(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestReconstruct:
    def test_zero_outside_window(self):
        fs = FourierSamples(np.ones(10), 1.0, 5.0)
        edge = math.pi * 10 / 5.0
        xs = np.array([edge + 1e-9, edge + 1.0, -edge - 2.0])
        assert np.all(synthesize(fs, xs) == 0.0)

    def test_boundary_half_weight(self):
        fs = FourierSamples(np.zeros(10), 4.0, 5.0)
        edge = math.pi * 10 / 5.0
        inside = 5.0 / (2.0 * math.pi * 10) * 4.0
        assert math.isclose(synthesize(fs, 0.0), inside, rel_tol=1e-12)
        assert math.isclose(synthesize(fs, edge), 0.5 * inside, rel_tol=1e-12)

    def test_n_is_the_sample_count(self):
        assert FourierSamples(np.ones(7), 1.0, 5.0).n == 7
        with pytest.raises(ValueError):
            FourierSamples(np.ones((2, 3)), 1.0, 5.0)

    @pytest.mark.parametrize("f0, r, message", [
        (1.0, -1.0, "r must be finite and positive, got -1.0"),
        (1.0, 0.0, "r must be finite and positive, got 0.0"),
        (1.0, math.inf, "r must be finite and positive, got inf"),
        (1.0, math.nan, "r must be finite and positive, got nan"),
        (math.nan, 1.0, "f0 must be finite, got nan"),
        (-math.inf, 1.0, "f0 must be finite, got -inf"),
    ], ids=["r<0", "r=0", "r=inf", "r=nan", "f0=nan", "f0=-inf"])
    def test_band_and_plateau_checked(self, f0, r, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FourierSamples(np.ones(4), f0, r)

    def test_gaussian_value(self):
        xi = fhat1(np.arange(1, 101) * 0.1)
        fs = FourierSamples(xi, float(fhat1(0.0)), 10.0)
        assert abs(synthesize(fs, 1.0) - math.exp(-1.0)) < 5e-3


class TestUniformGrid:
    # the sinc cases keep the ids they had before the linear route joined
    @pytest.mark.parametrize("mollifier, interpolation", [
        pytest.param(m, interp, id=mid if interp == "sinc" else f"{mid}-linear")
        for interp in ("sinc", "linear")
        for m, mid in zip([None, MollifierKind("triangle", 0.5), MollifierKind("gaussian", 2.0)],
                          ["None", "mollifier1", "mollifier2"])
    ])
    @pytest.mark.parametrize("n, r", [(1, 2.0), (400, 20.0), (10_000, 10.0)])
    @pytest.mark.parametrize("grid", [UniformGrid(0.0, 0.01, 301),
                                      UniformGrid(-40.0, 0.173, 512)])
    def test_sinc_chirp_matches_dense_sum(self, interpolation, mollifier, n, r, grid):
        # the second grid crosses both window edges, +-pi N / R, when N / R is small
        rng = np.random.default_rng(n)
        xi = fhat1(np.arange(1, n + 1) * (r / n)) + 0.1 * rng.standard_normal(n)
        fs = FourierSamples(xi, 1.7, r)
        kw = dict(interpolation=interpolation, mollifier=mollifier)
        on_grid = synthesize(fs, grid, **kw)
        dense = synthesize(fs, grid.points(), **kw)
        assert np.max(np.abs(on_grid - dense)) <= 1e-13 * np.max(np.abs(dense))


class TestMollifier:
    def test_validation(self):
        with pytest.raises(ValueError):
            MollifierKind("box", 1.0)
        with pytest.raises(ValueError):
            MollifierKind("triangle", 0.0)

    def test_values(self):
        assert mollifier_kernel(MollifierKind("triangle", 2.3), 0.0) == 1.0
        assert math.isclose(
            mollifier_kernel(MollifierKind("gaussian", 1.0), 2.0 * math.sqrt(math.pi)),
            math.exp(-1.0),
            rel_tol=1e-14,
        )
        assert math.isclose(
            mollifier_kernel(MollifierKind("triangle", 1.0), math.pi),
            4.0 / math.pi**2,
            rel_tol=1e-14,
        )

    def test_small_argument_branch_is_continuous(self):
        k = MollifierKind("triangle", 1.0)
        lo = mollifier_kernel(k, 9.9e-5)
        hi = mollifier_kernel(k, 1.01e-4)
        assert abs(lo - hi) < 1e-9

    def test_triangle_against_mpmath(self):
        k = MollifierKind("triangle", 1.0)
        us = np.concatenate((np.geomspace(1e-8, 100.0, 161), [0.1 - 1e-12, 0.1, 0.1 + 1e-12]))
        vals = mollifier_kernel(k, us)
        with mp.workdps(40):
            ref = [float(2 * (1 - mp.cos(mp.mpf(float(u)))) / mp.mpf(float(u)) ** 2) for u in us]
        assert np.max(np.abs(vals - np.array(ref))) <= 1e-15

    def test_gamma_to_zero_recovers_reconstruct(self):
        rng = np.random.default_rng(3)
        fs = FourierSamples(rng.standard_normal(20), 1.5, 8.0)
        xs = np.linspace(0.0, 3.0, 50)
        tiny = MollifierKind("gaussian", 1e-9)
        assert np.max(np.abs(synthesize(fs, xs, mollifier=tiny) - synthesize(fs, xs))) < 1e-12

    def test_zero_samples_give_zero(self):
        fs = FourierSamples(np.zeros(5), 0.0, 4.0)
        assert synthesize(fs, 1.0, mollifier=MollifierKind("triangle", 0.5)) == 0.0

    @given(seed=st.integers(0, 2**31), gamma=st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_gaussian_smoothing_contracts_sup_norm(self, seed, gamma):
        # smoothing is convolution with a nonnegative unit-mass mollifier
        rng = np.random.default_rng(seed)
        fs = FourierSamples(rng.standard_normal(16), float(rng.standard_normal()), 6.0)
        xs = np.linspace(-math.pi * 16 / 6.0, math.pi * 16 / 6.0, 800)
        smooth = synthesize(fs, xs, mollifier=MollifierKind("gaussian", gamma))
        rough = synthesize(fs, xs)
        assert np.max(np.abs(smooth)) <= np.max(np.abs(rough)) + 1e-12


class TestLinearRoute:
    def test_matches_quadrature_of_interpolant(self):
        rng = np.random.default_rng(11)
        n, r = 12, 6.0
        fs = FourierSamples(rng.standard_normal(n), 1.7, r)
        knots_t = np.arange(0, n + 1) * (r / n)
        knots_v = fs.knots()
        x = 0.9

        def fhat_lin(t):
            return np.interp(t, knots_t, knots_v)

        ref, _ = scipy_quad(lambda t: fhat_lin(t) * math.cos(x * t), 0.0, r, limit=400)
        val = synthesize(fs, np.array([x]), interpolation="linear")[0]
        assert math.isclose(val, ref / math.pi, rel_tol=1e-9)

    def test_x_zero_is_trapezoid(self):
        fs = FourierSamples(np.ones(4), 1.0, 4.0)
        val = synthesize(fs, np.array([0.0]), interpolation="linear")[0]
        assert math.isclose(val, 4.0 / math.pi, rel_tol=1e-12)


    @staticmethod
    def _noisy(seed, n=400, r=20.0, sigma=0.1):
        # noisy samples: large jumps in slope from knot to knot
        t = np.arange(n + 1) * (r / n)
        knots = fhat1(t) + sigma * np.random.default_rng(seed).standard_normal(n + 1)
        return t, knots, FourierSamples(knots[1:], knots[0], r)

    @staticmethod
    def _mp_reference(t, knots, x):
        """The segment sums at x, to 40 digits."""
        with mp.workdps(40):
            mt, mv = [mp.mpf(float(v)) for v in t], [mp.mpf(float(v)) for v in knots]
            x = mp.mpf(float(x))
            return float(mp.fsum((mv[i + 1] * mp.sin(x * mt[i + 1]) - mv[i] * mp.sin(x * mt[i])) / x
                                 + (mv[i + 1] - mv[i]) / (mt[i + 1] - mt[i])
                                 * (mp.cos(x * mt[i + 1]) - mp.cos(x * mt[i])) / (x * x)
                                 for i in range(len(t) - 1)) / mp.pi)

    @pytest.mark.parametrize("on_grid", [True, False])
    @pytest.mark.parametrize("seed", [101, 102, 103, 104, 105])
    def test_noisy_samples_against_mpmath(self, on_grid, seed):
        t, knots, fs = self._noisy(seed)
        grid = UniformGrid(0.0, 0.01, 301)
        vals = synthesize(fs, grid if on_grid else grid.points(), interpolation="linear")
        scale = np.max(np.abs(vals))
        for k in (1, 10, 100):  # x = 0.01, 0.1, 1
            ref = self._mp_reference(t, knots, grid.points()[k])
            assert abs(vals[k] - ref) <= 1e-10 * scale

    @pytest.mark.parametrize("seed", [101, 102, 103, 104, 105])
    def test_small_x_segments_keep_digits(self, seed):
        # psi(x dt) and the half-hat term cancel no digits as x -> 0
        t, knots, fs = self._noisy(seed)
        grid = UniformGrid(0.0, 0.01, 301)
        vals = synthesize(fs, grid, interpolation="linear")
        scale = np.max(np.abs(vals))
        for k in (1, 2, 5, 9, 10, 50):  # x = 0.01, 0.02, 0.05, 0.09, 0.1, 0.5
            ref = self._mp_reference(t, knots, grid.points()[k])
            assert abs(vals[k] - ref) <= 1e-13 * scale

    def test_large_n_keeps_digits(self):
        # N = 1e4 with 0.01 noise on xi: one chirp-z sum over 1e4 knots
        t, knots, fs = self._noisy(101, n=10_000, sigma=0.01)
        grid = UniformGrid(0.0, 0.01, 301)
        vals = synthesize(fs, grid, interpolation="linear")
        scale = np.max(np.abs(vals))
        for k in (1, 10, 100):  # x = 0.01, 0.1, 1
            ref = self._mp_reference(t, knots, grid.points()[k])
            assert abs(vals[k] - ref) <= 1e-13 * scale

    @pytest.mark.parametrize("x", [0.5, 1.9, 2.0, 2.1, 7.3, -3.0])
    def test_wide_knots_against_mpmath(self, x):
        # dt = 0.5, so x dt runs from 0.25 to 3.65, across the switch of the
        # half-hat term from its series to the closed form at x dt = 1
        t, knots, fs = self._noisy(17, n=12, r=6.0)
        val = synthesize(fs, x, interpolation="linear")
        scale = np.max(np.abs(synthesize(fs, np.linspace(0.0, 3.0, 301), interpolation="linear")))
        assert abs(val - self._mp_reference(t, knots, x)) <= 1e-13 * scale


class TestInvertFourier:
    def test_alpha_two_chain(self):
        g = sample(t2_f1, 0.0, 20.0, 1601)
        out = UniformGrid(0.0, 0.01, 301)
        rec = invert_fourier(g, 2.0, 100, 10.0, out)
        truth = np.exp(-out.points() ** 2)
        assert rel_l2(rec.values, truth) <= 1e-4

    def test_alpha_two_equals_direct_fourier_route(self):
        # with a = 2: xi_n = f0 - 4 g(nR/2N), identical to inverting
        # fhat(t) = Ff(0) - 2 T_2 f at t/2 directly
        n, r = 100, 10.0
        g = sample(t2_f1, 0.0, 20.0, 1601)
        out = UniformGrid(0.0, 0.02, 151)
        rec = invert_fourier(g, 2.0, n, r, out)
        f0 = estimate_f0(g, 2.0, r)
        xi_direct = f0 - 4.0 * np.real(g.eval(np.arange(1, n + 1) * r / (2.0 * n)))
        fs = FourierSamples(xi_direct, f0, r)
        direct = synthesize(fs, out.points())
        assert np.max(np.abs(rec.values - direct)) <= 1e-6

    def test_linear_interpolation_route(self):
        g = sample(t2_f1, 0.0, 20.0, 1601)
        out = UniformGrid(0.0, 0.01, 301)
        rec = invert_fourier(g, 2.0, 100, 10.0, out, interpolation="linear")
        truth = np.exp(-out.points() ** 2)
        assert rel_l2(rec.values, truth) <= 5e-3

    def test_degenerate_single_sample(self):
        g = sample(t2_f1, 0.0, 20.0, 161)
        out = UniformGrid(0.0, 0.1, 11)
        rec = invert_fourier(g, 2.0, 1, 10.0, out)
        assert np.all(np.isfinite(rec.values))

    def test_f0_override_and_bad_interp(self):
        g = sample(t2_f1, 0.0, 20.0, 161)
        out = UniformGrid(0.0, 0.1, 11)
        rec = invert_fourier(g, 2.0, 10, 10.0, out, f0_override=math.sqrt(math.pi))
        assert np.all(np.isfinite(rec.values))
        with pytest.raises(ValueError):
            invert_fourier(g, 2.0, 10, 10.0, out, interpolation="spline")
