"""Codifference bridge to the sine-kernel transform."""

import math
import re

import numpy as np
import pytest

from alphasine.forward import t_sine
from alphasine.sas import SasParams, f0_from_scale, g_from_codifference
from alphasine.specfun import lambda_alpha

from conftest import F1_MASS, codifference_forward, f1


@pytest.mark.parametrize("sigma, alpha", [(1e300, 1.5), (1.7e308, 1.0), (1e154, 1.9999)])
def test_sigma_whose_power_overflows_is_refused(sigma, alpha):
    # g and f0 take 2 sigma^a: 1e300^1.5 overflows in **, the others in the doubling
    message = f"sigma = {sigma} overflows 2 sigma**alpha at alpha = {alpha}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SasParams(sigma, alpha)


def test_sigma_below_the_overflow_is_accepted():
    p = SasParams(1.7e308 / 2.0, 1.0)
    assert math.isfinite(f0_from_scale(p))
    assert np.isfinite(g_from_codifference(lambda t: np.zeros_like(t), p, 1.0))


def test_params_validation():
    with pytest.raises(ValueError):
        SasParams(0.0, 1.5)
    with pytest.raises(ValueError):
        SasParams(-1.0, 1.5)
    with pytest.raises(ValueError):
        SasParams(1.0, 2.0)
    with pytest.raises(ValueError):
        SasParams(1.0, -0.5)


def test_f0_from_scale_values():
    assert math.isclose(f0_from_scale(SasParams(1.0, 1.0)), math.pi / 2.0, rel_tol=1e-13)
    assert math.isclose(f0_from_scale(SasParams(1.0, 1.999999)), 2.0, rel_tol=1e-5)


def test_f0_from_scale_is_sigma_power_over_lambda():
    assert math.isclose(f0_from_scale(SasParams(1.0, 1.0)), math.pi / 2.0, rel_tol=1e-13)
    assert math.isclose(
        f0_from_scale(SasParams(1.3, 1.5)), 1.3**1.5 / lambda_alpha(1.5), rel_tol=1e-13
    )


def test_constant_codifference_gives_zero():
    p = SasParams(1.4, 1.2)
    tau = lambda t: 2.0 * 1.4**1.2
    assert np.all(np.abs(g_from_codifference(tau, p, np.array([0.5, 1.0, 7.0]))) < 1e-14)
    for t in (0.0, np.array([1.0, 0.0])):
        with pytest.raises(ValueError):
            g_from_codifference(tau, p, t)


def test_codifference_at_zero(quad_spec):
    p = SasParams(1.0, 1.5)
    lam = lambda_alpha(1.5)
    sigma_a = lam * 2.0 * F1_MASS
    assert math.isclose(codifference_forward(f1, p, 0.0, quad_spec), 2.0 * sigma_a, rel_tol=1e-12)


def test_codifference_bounded_by_plateau(quad_spec):
    p = SasParams(1.0, 1.5)
    tau0 = codifference_forward(f1, p, 0.0, quad_spec)
    for t in (0.2, 1.0, 3.0, 10.0):
        assert codifference_forward(f1, p, t, quad_spec) <= tau0 + 1e-12


def test_scaling_linearity(quad_spec):
    p = SasParams(1.0, 1.5)
    tau0_f = codifference_forward(f1, p, 0.0, quad_spec)
    tau_f = codifference_forward(f1, p, 1.3, quad_spec)
    f_scaled = lambda x: 2.0 * f1(x)
    tau0_s = codifference_forward(f_scaled, p, 0.0, quad_spec)
    tau_s = codifference_forward(f_scaled, p, 1.3, quad_spec)
    assert math.isclose(tau0_s - tau_s, 2.0 * (tau0_f - tau_f), rel_tol=1e-9)


def test_bridge_identity(quad_spec):
    # build tau from f1, then g_from_codifference must reproduce t_sine
    alpha = 1.5
    lam = lambda_alpha(alpha)
    sigma_a = lam * 2.0 * F1_MASS
    p = SasParams(sigma_a ** (1.0 / alpha), alpha)

    def tau(t):
        return codifference_forward(f1, p, t, quad_spec)

    for t in (0.3, 1.0, 2.5, 6.0):
        lhs = g_from_codifference(tau, p, t)
        rhs = t_sine(f1, alpha, t, quad_spec)
        assert abs(lhs - rhs) <= 1e-8
