"""Forward transforms against closed forms and the series representation."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphasine import forward
from alphasine.forward import k_cosine, t_sine, t_sine_series
from alphasine.quad import QuadSpec, _kernel_pieces, integrate
from alphasine.specfun import sin_power_integral, sine_coeffs

from conftest import EXAMPLES, F1_MASS, F2_MASS, f1, f2, f3, fhat1, fhat2, t2_f1, t2_f3
from kernel_split_oracle import _lobes, kernel_split_at

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
        t_max = 7.0 * CURVE_Y
        assert np.max(_kernel_pieces(0.0, t_max, np.zeros(len(t_max)), *_lobes(0.0, t_max))[0][:, 3]) > 0.0

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


def _f2_kernel_tail(a, y):
    """A bound on the integral of |sin(xy)|^a x^2 e^{-x} over (30, inf).

    For a >= 0 the kernel is at most 1, so it is the tail of f2 itself,
    962 e^{-30}, about 9e-11.  For a < 0 the kernel is unbounded, and the
    tail is up to 16 times that at a = -0.9 and y = 0.3, where a kernel zero
    lies at x = 31.4.  Each lobe then holds at most its largest f2 times the
    lobe's kernel mass C_a / y; f2 falls beyond x = 2, so the lobe that
    holds 30 and the next take at most f2(30) each, and the others at most
    the integral of f2 over their own width before them."""
    tail = 962.0 * math.exp(-30.0)
    if a >= 0.0:
        return tail
    return sin_power_integral(a) * (2.0 * 900.0 * math.exp(-30.0) / y + tail / math.pi)


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

    @given(a=st.floats(min_value=-0.9, max_value=5.0), y=st.floats(min_value=0.3, max_value=20.0))
    @example(a=-0.9, y=0.3)
    @example(a=-0.9, y=20.0)
    @example(a=5.0, y=0.3)
    @example(a=1.5, y=2.0)
    @example(a=1e-12, y=1.0)
    @example(a=2.0 - 5e-13, y=1.0)
    @settings(max_examples=15, deadline=None)
    def test_matches_series_form(self, a, y):
        # the series form is an independent route: no quadrature, only the
        # cosine-expansion coefficients and the closed-form fhat.  It sums
        # over (0, inf) and the lobe quadrature over (0, 30]; f1's tail beyond
        # 30 is below 1e-390, f2's is what the kernel weights of x^2 e^{-x}
        # hold there (its bound below).  1e5 terms leave a series tail below
        # 1e-13 for fhat2, which decays like t^-4
        q1, q2 = t_sine(f1, a, y), t_sine(f2, a, y)
        s1, s2 = (t_sine_series(fhat, a, y, 10**5, fhat_decays=True) for fhat in (fhat1, fhat2))
        assert abs(q1 - s1) <= 1e-13 * abs(s1)
        assert abs(q2 - s2) <= _f2_kernel_tail(a, y) + 1e-13 * abs(s2)

    def test_negative_alpha_needs_certificate(self):
        with pytest.raises(ValueError):
            t_sine_series(fhat1, -0.5, 1.0, 100)
        v = t_sine_series(fhat1, -0.5, 1.0, 10**4, fhat_decays=True)
        assert np.isfinite(v)

    @pytest.mark.parametrize("fhat, alpha", [(fhat1, 1.5), (fhat2, -0.5), (fhat1, 2.0)])
    def test_array_of_y_is_one_fsum_per_y(self, fhat, alpha, monkeypatch):
        # each y's series against one fsum of the same products: numpy's pairwise
        # row sum keeps within ceil(log2 J) u of the terms' magnitudes, the head
        # c_0 fhat(0) / 2 counted among them for the one rounding of its addition
        n = 1000
        ys = np.array([0.05, 1.0, 7.3, 20.0])
        c = sine_coeffs(alpha, n).coeffs
        j = np.arange(1, n + 1, dtype=float)
        head = 0.5 * c[0] * float(fhat(0.0))
        terms = [c[1:] * fhat(2.0 * j * y) for y in ys]
        expect = np.array([head + math.fsum(t.tolist()) for t in terms])
        bound = [math.ceil(math.log2(n)) * 2.0**-53 * (abs(head) + np.sum(np.abs(t)))
                 for t in terms]
        got = t_sine_series(fhat, alpha, ys, n, fhat_decays=True)
        assert np.all(np.abs(got - expect) <= bound)
        # the same bits alone, in the array, and in chunks of one and of three rows
        assert t_sine_series(fhat, alpha, float(ys[2]), n, fhat_decays=True) == got[2]
        for rows in (1, 3):
            monkeypatch.setattr(forward, "_SERIES_CHUNK", rows * n)
            assert np.array_equal(t_sine_series(fhat, alpha, ys, n, fhat_decays=True), got)
        assert t_sine_series(fhat, alpha, ys.reshape(2, 2), 10, fhat_decays=True).shape == (2, 2)

    def test_chunk_and_table_cache_bound_memory(self):
        # 400 y at the default 1e4 terms hold 32 MB in each (y, j) array when
        # unchunked; in chunks, fhat1's call peaks at a few chunk-sized arrays
        ys = 0.05 * np.arange(1, 401)
        t_sine_series(fhat1, 1.5, ys)
        tracemalloc.start()
        try:
            t_sine_series(fhat1, 1.5, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * forward._SERIES_CHUNK < 8 * ys.size * 10**4
        maxsize = forward._series_coeffs.cache_info().maxsize
        for a in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5):
            t_sine_series(fhat1, a, 1.0, 100)
            assert forward._series_coeffs.cache_info().currsize <= maxsize

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            t_sine_series(fhat1, 1.0, 0.0, 10)
        with pytest.raises(ValueError, match="got 0.0"):
            t_sine_series(fhat1, 1.0, np.array([1.0, 0.0]), 10)
        with pytest.raises(ValueError):
            t_sine_series(fhat1, 1.0, 1.0, 0)
