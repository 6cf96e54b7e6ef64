"""Coefficients and special functions against quadrature and mpmath oracles."""

import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import psi

from alphasine.specfun import (
    CoefficientTable,
    _log_gamma,
    _near_even,
    as_alpha,
    cosine_coeffs,
    lambda_alpha,
    operator_norm_bound,
    sin_power_integral,
    sine_coeffs,
)

from conftest import sine_partial_sum

alphas_st = st.floats(min_value=-0.95, max_value=12.0, exclude_min=True)


class TestAlpha:
    def test_rejects_out_of_range(self):
        for bad in (-1.0, -2.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"^alpha must be finite and in \\(-1, inf\\), got {bad}$"):
                as_alpha(bad)

    def test_even_integer_detection(self):
        assert _near_even(0.0)
        assert _near_even(2.0)
        assert _near_even(10.0)
        assert _near_even(2.0 + 1e-13)
        assert not _near_even(2.0 + 1e-10)
        assert not _near_even(1.0)
        assert not _near_even(-0.5)


def fourier_coefficient_oracle(alpha: float, j: int) -> float:
    """(1/pi) int_0^pi |sin(x/2)|^a cos(jx) dx by adaptive quadrature."""
    val, _ = scipy_quad(
        lambda x: abs(math.sin(x / 2.0)) ** alpha * math.cos(j * x), 0.0, math.pi,
        limit=200,
    )
    return val / math.pi


class TestSineCoeffs:
    def test_alpha_two_exact(self):
        assert sine_coeffs(2.0, 3).coeffs.tolist() == [0.5, -0.25, 0.0, 0.0]

    def test_alpha_one_against_quadrature(self):
        table = sine_coeffs(1.0, 1)
        assert math.isclose(table.coeffs[0], 2.0 / math.pi, rel_tol=1e-14)
        assert math.isclose(table.coeffs[1], -2.0 / (3.0 * math.pi), rel_tol=1e-14)
        for j in (0, 1):
            assert math.isclose(table.coeffs[j], fourier_coefficient_oracle(1.0, j), abs_tol=1e-10)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count must be an integer >= 1, got 0"):
            sine_coeffs(1.5, 0)

    def test_alpha_zero(self):
        assert sine_coeffs(0.0, 2).coeffs.tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5, 2.5, 4.7])
    def test_fractional_against_quadrature(self, alpha):
        table = sine_coeffs(alpha, 5)
        for j in range(6):
            assert math.isclose(
                table.coeffs[j], fourier_coefficient_oracle(alpha, j), abs_tol=2e-9
            )

    def test_nonpositive_for_unit_interval_alpha(self):
        for alpha in (0.25, 0.5, 1.0, 1.7, 2.0):
            c = sine_coeffs(alpha, 200).coeffs
            assert np.all(c[1:] <= 0.0)

    def test_even_alpha_terminates(self):
        c = sine_coeffs(4.0, 10).coeffs
        assert np.all(c[3:] == 0.0)
        assert c[2] != 0.0

    @pytest.mark.parametrize("alpha", [1024.0, 1026.0])
    def test_even_alpha_past_the_binomial_range(self, alpha):
        # 4^k overflows past a = 1022, so the recurrence builds the table; its
        # factor j - a/2 is 0 at j = k, and the exact binomials agree
        k = int(alpha) // 2
        c = sine_coeffs(alpha, k + 5).coeffs
        assert np.all(c[k + 1:] == 0.0) and c[k] != 0.0
        exact = [(-1) ** j * Fraction(math.comb(2 * k, k - j), 4**k) for j in (0, 1, 2, 50, k)]
        got = c[[0, 1, 2, 50, k]]
        assert np.allclose(got, [float(e) for e in exact], rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("alpha", [4e6 + 2.0, 1e12, 1e300])
    def test_alpha_too_large_for_c0_is_refused(self, alpha):
        # c_0's log-gamma form keeps under half its digits there (at a = 1e12
        # it is 0.2% off, at 1e300 it reads 1.0 against 8e-151)
        with pytest.raises(ValueError, match=re.escape(f"alpha = {alpha} is too large")):
            sine_coeffs(alpha, 3)

    @pytest.mark.parametrize("alpha", [2.0 - 1e-13, 2.0 + 1e-13])
    def test_near_even_alpha_keeps_its_tail(self, alpha):
        # only a = 2 exactly ends the expansion; at 1e-13 from it, c_0 and c_1
        # stay by the a = 2 table while c_2 is small but not snapped to 0
        c, even = sine_coeffs(alpha, 5).coeffs, sine_coeffs(2.0, 5).coeffs
        assert np.all(np.abs(c[:2] - even[:2]) <= 1e-12)
        assert c[2] != 0.0

    @given(alpha=alphas_st)
    @settings(max_examples=40, deadline=None)
    def test_ratio_recurrence(self, alpha):
        c = sine_coeffs(alpha, 12).coeffs
        for j in range(1, 11):
            if c[j] == 0.0:
                continue
            ratio = (j - alpha / 2.0) / (j + 1.0 + alpha / 2.0)
            assert math.isclose(c[j + 1] / c[j], ratio, rel_tol=1e-12, abs_tol=1e-12)

    def test_recurrence_matches_gamma_formula(self):
        # direct Gamma quotient, evaluated with mpmath which handles the
        # negative arguments of Gamma(a/2 - j + 1)
        a = 2.5
        c = sine_coeffs(a, 50).coeffs
        for j in range(0, 51):
            ref = float(
                (-1) ** j
                / mp.mpf(2) ** a
                * mp.gamma(1 + a)
                / (mp.gamma(a / 2 - j + 1) * mp.gamma(a / 2 + j + 1))
            )
            assert math.isclose(c[j], ref, rel_tol=1e-10)

    def test_partial_sum_identity_alpha_ge_one(self):
        # sum_j c_j = -c_0/2; tail ~ J^-alpha so alpha >= 1 meets 1e-6 at 1e6
        for alpha in (1.0, 1.5, 3.0, 10.0):
            c = sine_coeffs(alpha, 10**6).coeffs
            assert abs(np.sum(c[1:]) + c[0] / 2.0) <= 1e-6
        # at J = 1e4 the defect stays below 1e-3 for these alphas; for
        # alpha = 0.5 the true tail is 0.282/sqrt(J), so criterion 2 checks
        # it against the closed form (test_partial_sum_closed_form below)
        for alpha in (1.0, 1.5, 3.0, 10.0):
            c = sine_coeffs(alpha, 10**4).coeffs
            assert abs(np.sum(c[1:]) + c[0] / 2.0) <= 1e-3

    def test_partial_sum_closed_form(self):
        # conftest.sine_partial_sum against an mpmath direct sum of the
        # gamma-formula c_j; a = 2.5 exercises the negative Gamma(1 - a/2)
        with mp.workdps(30):
            for a in (-0.5, 0.1, 0.5, 1.5, 2.5):
                c = [
                    (-1) ** j
                    / mp.mpf(2) ** a
                    * mp.gamma(1 + a)
                    / (mp.gamma(a / 2 - j + 1) * mp.gamma(a / 2 + j + 1))
                    for j in range(51)
                ]
                for count in (1, 5, 50):
                    ref = float(mp.fsum(c[1 : count + 1]) + c[0] / 2)
                    assert math.isclose(sine_partial_sum(a, count), ref, rel_tol=1e-10)

    def test_absolute_sum_converges_on_unit_interval(self):
        for alpha in (0.5, 1.0, 1.9):
            c = sine_coeffs(alpha, 10**7).coeffs
            partial = np.cumsum(np.abs(c[1:]))
            assert np.all(np.diff(partial) >= 0.0)
            assert abs(partial[-1] - c[0] / 2.0) <= 1e-4

    def test_divergence_below_zero(self):
        c = sine_coeffs(-0.5, 10**5).coeffs
        s_small = np.sum(c[1 : 10**3 + 1])
        s_large = np.sum(c[1:])
        assert s_large > 2.0 * s_small > 0.0

    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.0, 1.5, 3.0])
    def test_asymptotic_decay_exponent(self, alpha):
        c = np.abs(sine_coeffs(alpha, 10**5).coeffs)
        j = np.arange(10**3, 10**5 + 1)
        slope = np.polyfit(np.log(j), np.log(c[10**3:]), 1)[0]
        assert abs(slope + (alpha + 1.0)) < 0.05


class TestCoefficientTable:
    def test_caller_array_stays_writable(self):
        a = np.array([1.0, 0.5])
        table = CoefficientTable(a)
        a[0] = 2.0
        assert table.coeffs.tolist() == [1.0, 0.5]
        assert not table.coeffs.flags.writeable


class TestCosineCoeffs:
    def test_examples(self):
        assert cosine_coeffs(2.0, 2).coeffs.tolist() == [0.5, 0.25, 0.0]
        t = cosine_coeffs(1.0, 1).coeffs
        assert math.isclose(t[0], 2.0 / math.pi, rel_tol=1e-14)
        assert math.isclose(t[1], 2.0 / (3.0 * math.pi), rel_tol=1e-14)
        assert cosine_coeffs(0.0, 1).coeffs.tolist() == [1.0, 0.0]

    @given(alpha=alphas_st)
    @settings(max_examples=30, deadline=None)
    def test_sign_flip_of_sine(self, alpha):
        cs = sine_coeffs(alpha, 9).coeffs
        cc = cosine_coeffs(alpha, 9).coeffs
        signs = (-1.0) ** np.arange(10)
        assert np.allclose(cc, signs * cs, rtol=0.0, atol=0.0)

    def test_alternating_sums_bracket_limit_for_negative_alpha(self):
        c = cosine_coeffs(-0.5, 2 * 10**5).coeffs
        partial = np.cumsum(c[1:])
        limit = 0.5 * (partial[-1] + partial[-2])
        for k in (10, 100, 1000):
            lo, hi = sorted((partial[k], partial[k + 1]))
            assert lo <= limit <= hi


class TestIntegralConstants:
    def test_sin_power_examples(self):
        assert math.isclose(sin_power_integral(0.0), math.pi, rel_tol=1e-14)
        assert math.isclose(sin_power_integral(2.0), math.pi / 2.0, rel_tol=1e-14)

    def test_sin_power_negative_against_mpmath_quadrature(self):
        ref = float(mp.quad(lambda u: mp.sin(u) ** mp.mpf(-0.5), [0, mp.pi]))
        assert abs(sin_power_integral(-0.5) - ref) < 1e-8

    def test_lambda_examples(self):
        assert math.isclose(lambda_alpha(2.0), 0.5, rel_tol=1e-14)
        assert math.isclose(lambda_alpha(0.0), 1.0, rel_tol=1e-14)
        assert math.isclose(lambda_alpha(1.0), 2.0 / math.pi, rel_tol=1e-14)

    @pytest.mark.parametrize("alpha", [2.0, 1.0, 0.7, -0.3])
    def test_lambda_against_quadrature(self, alpha):
        val, _ = scipy_quad(lambda x: abs(math.cos(x)) ** alpha, 0.0, 2.0 * math.pi,
                            points=[math.pi / 2, 3 * math.pi / 2], limit=200)
        assert math.isclose(lambda_alpha(alpha), val / (2.0 * math.pi), abs_tol=1e-8)

    def test_lambda_exact_at_even_alpha(self):
        # c_0 = binom(2k, k) / 4^k, from the exact branch of sine_coeffs
        assert lambda_alpha(2.0) == 0.5
        assert lambda_alpha(4.0) == 0.375

    @given(alpha=alphas_st)
    @settings(max_examples=30, deadline=None)
    def test_leading_coefficient_is_kernel_mean(self, alpha):
        # c_0 = lambda_a = C_a / pi, the Gauss form of c_0 by Legendre's
        # duplication formula
        with mp.workdps(40):
            a = mp.mpf(alpha)
            ref = mp.gamma(1 + a) / (2**a * mp.gamma(a / 2 + 1) ** 2)
            assert abs(lambda_alpha(alpha) / ref - 1) <= 1e-14
            assert abs(sin_power_integral(alpha) / (mp.pi * ref) - 1) <= 1e-14

    @pytest.mark.parametrize("call, alpha", [(sin_power_integral, 1e12), (lambda_alpha, 1e20)])
    def test_refused_past_c0_limit(self, call, alpha):
        message = f"alpha = {alpha} is too large: c_0 would keep under half its digits"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(alpha)


class TestHyp2f1Unit:
    def test_kernel_constant_identity(self):
        # Gauss's theorem: 2F1[-a/4, -a/4 + 1/2; 1; 1] = 2^{a/2} c_0(a)
        for a in (0.5, 1.0, 2.0, 3.0):
            lhs = float(mp.hyp2f1(-a / 4.0, -a / 4.0 + 0.5, 1.0, 1.0))
            assert math.isclose(lhs, 2.0 ** (a / 2.0) * lambda_alpha(a), rel_tol=1e-12)


class TestComplexLogGamma:
    def test_against_mpmath(self):
        # log Gamma vanishes at 1 and 2, so the error is measured against
        # max(1, |log Gamma|): mu uses exp(log Gamma), whose relative error
        # is the absolute error of the log
        z = (np.linspace(1.0, 3.0, 21)[:, None] + 1j * np.linspace(-30.0, 30.0, 61)[None, :]).ravel()
        got = _log_gamma(z)
        with mp.workdps(30):
            ref = np.array([complex(mp.loggamma(mp.mpc(v.real, v.imag))) for v in z])
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-14


class TestOperatorNormBound:
    def test_domain(self):
        for bad in (0.0, 0.5, -1.0):
            with pytest.raises(ValueError):
                operator_norm_bound(bad)

    def test_continuity_at_zero(self):
        assert abs(operator_norm_bound(-1e-6) - (math.pi + 2.0)) < 1e-4

    def test_grows_toward_minus_one(self):
        assert operator_norm_bound(-0.9) > operator_norm_bound(-0.5) > 0.0

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, -0.1])
    def test_against_digamma_closed_form(self, alpha):
        # sum_j c_j / j = -c_0 (a/(a+2)) 3F2[...] has the closed form
        # ((a+2)/a) (ln 2 + (psi((1+a)/2) - psi(1+a/2)) / 2)
        f32 = ((alpha + 2.0) / alpha) * (
            math.log(2.0) + (psi((1.0 + alpha) / 2.0) - psi(1.0 + alpha / 2.0)) / 2.0
        )
        c0 = lambda_alpha(alpha)
        ref = sin_power_integral(alpha) * (1.0 / math.pi + 1.0) + c0 * (
            1.0 - alpha / (alpha + 2.0) * f32
        )
        assert math.isclose(operator_norm_bound(alpha), ref, rel_tol=1e-9)

    def test_against_mpmath_hyp3f2(self):
        # the 3F2 of the docstring at 40 digits, against the digamma closed form
        with mp.workdps(40):
            for alpha in (-0.999999, -0.99, -0.9, -0.7, -0.5, -0.3, -0.1, -1e-3, -1e-6, -1e-9):
                a = mp.mpf(alpha)
                f32 = mp.hyp3f2(1 - a / 2, 1, 1, a / 2 + 2, 2, 1)
                c0 = mp.gamma(1 + a) / (2**a * mp.gamma(a / 2 + 1) ** 2)
                c_a = mp.sqrt(mp.pi) * mp.gamma((1 + a) / 2) / mp.gamma(1 + a / 2)
                ref = c_a * (1 / mp.pi + 1) + c0 * (1 - a / (a + 2) * f32)
                assert abs(operator_norm_bound(alpha) / ref - 1) <= 1e-14

    def test_partial_sums_monotone(self):
        a = -0.5
        terms = [1.0]
        for k in range(200):
            terms.append(
                terms[-1]
                * ((1.0 - a / 2.0 + k) * (1.0 + k))
                / ((a / 2.0 + 2.0 + k) * (2.0 + k))
            )
        assert all(t > 0.0 for t in terms)
        sums = np.cumsum(terms)
        assert np.all(np.diff(sums) > 0.0)
