"""Forward transforms against closed forms and the series representation."""

import math

import mpmath as mp
import numpy as np
import pytest

from alphasine.forward import k_cosine, t_sine, t_sine_series
from alphasine.quad import QuadSpec, _kernel_pieces, integrate
from alphasine.specfun import sine_coeffs

from conftest import EXAMPLES, F1_MASS, F2_MASS, f1, f2, f3, fhat1, fhat2, t2_f1, t2_f3
from kernel_split_oracle import kernel_split_at

# the forward workload's grid 0.05:20:400 and two tiny y, whose only piece is a cut one
CURVE_Y = np.concatenate((0.05 * np.arange(1, 401), [1e-12, 1e-8]))


class TestTSine:
    def test_closed_forms_alpha_two(self, quad_spec):
        assert abs(t_sine(f1, 2.0, 1.0, quad_spec) - float(t2_f1(1.0))) < 1e-9
        assert abs(t_sine(f2, 2.0, 1.0, quad_spec) - 136.0 / 125.0) < 1e-9
        spec3 = QuadSpec(tail_cut=150.0)
        f3 = EXAMPLES["f3"][0]
        assert abs(t_sine(f3, 2.0, 1.0, spec3) - float(t2_f3(1.0))) < 1e-6

    def test_value_at_zero(self, quad_spec):
        assert t_sine(f1, 2.0, 0.0, quad_spec) == 0.0
        assert t_sine(f1, 0.3, 0.0, quad_spec) == 0.0
        assert math.isclose(t_sine(f1, 0.0, 0.0, quad_spec), F1_MASS, rel_tol=1e-10)
        with pytest.raises(ValueError):
            t_sine(f1, -0.5, 0.0, quad_spec)
        with pytest.raises(ValueError):
            t_sine(f1, 2.0, -1.0, quad_spec)

    def test_boundedness(self, quad_spec):
        for alpha in (0.0, 0.5, 2.0, 5.0):
            for y in (0.3, 1.0, 4.0):
                assert abs(t_sine(f2, alpha, y, quad_spec)) <= F2_MASS + 1e-9

    def test_negative_alpha_finite(self, quad_spec):
        v = t_sine(f2, -0.5, 1.3, quad_spec)
        assert np.isfinite(v) and v > 0.0

    @pytest.mark.parametrize("y", [0.0037, 0.02])
    def test_small_y_large_alpha_against_mpmath(self, quad_spec, y):
        # T f ~ y^a is 7e-10 and 2e-6 here: the tolerance must follow the
        # integrand's size, not stop at an absolute floor.  x y < pi/2 on
        # (0, 30], so the 40-digit integrand is smooth past x = 0.
        with mp.workdps(40):
            ref = mp.quad(lambda x: mp.sin(x * y) ** 4.7 / (1 + x * x) ** 2, [0, 1, 5, 30])
        assert math.isclose(t_sine(f3, 4.7, y, quad_spec), float(ref), rel_tol=1e-13)


class TestKCosine:
    def test_kernel_one(self, quad_spec):
        for y in (0.0, 0.7, 3.0):
            assert math.isclose(
                k_cosine(f1, 0.0, y, quad_spec), math.sqrt(math.pi) / 2.0, abs_tol=1e-9
            )

    def test_alpha_two_identity(self, quad_spec):
        # cos^2 = 1 - sin^2
        expect = math.sqrt(math.pi) / 4.0 * (1.0 + math.exp(-1.0))
        assert abs(k_cosine(f1, 2.0, 1.0, quad_spec) - expect) < 1e-9

    def test_moment_at_zero(self, quad_spec):
        assert math.isclose(k_cosine(f2, 2.0, 0.0, quad_spec), 2.0, rel_tol=1e-9)

    @pytest.mark.parametrize("a", [1.5, -0.5])
    @pytest.mark.parametrize("y", [1e-8, 1e-12, 1e-17])
    def test_tiny_y(self, a, y):
        # one piece, far shorter than pi: the kernel is 1 to within a y^2
        val = k_cosine(lambda x: np.exp(-x), a, y)
        assert abs(val - (1.0 - math.exp(-30.0))) <= 1e-12

    def test_complementarity(self, quad_spec):
        for y in (0.4, 1.0, 2.5):
            s = t_sine(f1, 2.0, y, quad_spec) + k_cosine(f1, 2.0, y, quad_spec)
            assert abs(s - F1_MASS) < 1e-9


class TestArrayY:
    @pytest.mark.parametrize("transform", [t_sine, k_cosine])
    @pytest.mark.parametrize("name", ["f1", "f2", "f3"])
    def test_matches_scalar_calls(self, name, transform):
        # one call over the curve against per-y calls, and against the per-y
        # engine it replaced, at every 9th y (all blocks of y are hit) and the
        # tiny ones; at tail_cut 7 the cut falls inside a falling half-lobe
        # for some y, which leaves a gap to its zero
        fn = EXAMPLES[name][0]
        kernel = "sine" if transform is t_sine else "cosine"
        some = np.r_[0:400:9, 400, 401]
        for tail_cut in (30.0, 7.0):
            spec = QuadSpec(tail_cut=tail_cut)
            for a in (-0.9, -0.5, 0.0, 1.5, 2.0, 4.7):
                curve = transform(fn, a, CURVE_Y, spec)
                assert curve.shape == CURVE_Y.shape
                for y, value in zip(CURVE_Y[some], curve[some]):
                    for single in (transform(fn, a, float(y), spec),
                                   kernel_split_at(fn, a, y, spec, kernel)):
                        assert abs(value - single) <= 1e-14 * abs(single)
        assert np.max(_kernel_pieces(0.0, 7.0 * CURVE_Y)[0][:, 3]) > 0.0

    def test_zero_inside_an_array(self, quad_spec):
        ys = np.array([0.0, 0.5, 0.0, 2.0])
        inner = t_sine(f1, 1.5, ys[[1, 3]], quad_spec)
        assert np.array_equal(t_sine(f1, 1.5, ys, quad_spec), [0.0, inner[0], 0.0, inner[1]])
        mass = integrate(f1, quad_spec)
        assert np.array_equal(t_sine(f1, 0.0, ys, quad_spec)[[0, 2]], [mass, mass])
        assert np.array_equal(k_cosine(f1, -0.5, ys, quad_spec)[[0, 2]], [mass, mass])
        with pytest.raises(ValueError, match="undefined at y = 0"):
            t_sine(f1, -0.5, ys, quad_spec)
        with pytest.raises(ValueError, match="got -1.0"):
            t_sine(f1, 1.5, np.array([0.5, -1.0]), quad_spec)


class TestSeries:
    def test_alpha_two_exact(self):
        for y in (0.3, 1.0, 2.0):
            expect = 0.25 * (fhat1(0.0) - fhat1(2.0 * y))
            assert math.isclose(t_sine_series(fhat1, 2.0, y, 1), float(expect), rel_tol=1e-14)

    def test_alpha_zero_single_term(self):
        assert math.isclose(
            t_sine_series(fhat1, 0.0, 1.0, 1), 0.5 * float(fhat1(0.0)), rel_tol=1e-14
        )

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
    def test_matches_quadrature(self, alpha, y, quad_spec):
        for fn, fhat in ((f1, fhat1), (f2, fhat2)):
            q = t_sine(fn, alpha, y, quad_spec)
            s = t_sine_series(fhat, alpha, y, 10**4)
            assert abs(q - s) <= 1e-4

    def test_negative_alpha_needs_certificate(self):
        with pytest.raises(ValueError):
            t_sine_series(fhat1, -0.5, 1.0, 100)
        v = t_sine_series(fhat1, -0.5, 1.0, 10**4, fhat_decays=True)
        assert np.isfinite(v)

    @pytest.mark.parametrize("fhat, alpha", [(fhat1, 1.5), (fhat2, -0.5), (fhat1, 2.0)])
    def test_array_of_y_is_one_fsum_per_y(self, fhat, alpha):
        # the per-y sum of the scalar route, bit for bit, from one coefficient table
        ys = np.array([0.05, 1.0, 7.3, 20.0])
        c = sine_coeffs(alpha, 1000).coeffs
        j = np.arange(1, 1001, dtype=float)
        expect = [0.5 * c[0] * float(fhat(0.0)) + math.fsum((c[1:] * fhat(2.0 * j * y)).tolist())
                  for y in ys]
        assert np.array_equal(t_sine_series(fhat, alpha, ys, 1000, fhat_decays=True), expect)
        assert t_sine_series(fhat, alpha, float(ys[2]), 1000, fhat_decays=True) == expect[2]
        assert t_sine_series(fhat, alpha, ys.reshape(2, 2), 10, fhat_decays=True).shape == (2, 2)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            t_sine_series(fhat1, 1.0, 0.0, 10)
        with pytest.raises(ValueError, match="got 0.0"):
            t_sine_series(fhat1, 1.0, np.array([1.0, 0.0]), 10)
        with pytest.raises(ValueError):
            t_sine_series(fhat1, 1.0, 1.0, 0)
