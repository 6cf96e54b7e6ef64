"""Quadrature engine: adaptive panels and kernel-zero lobe rules."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphasine.errors import NonConvergence
from alphasine.quad import QuadSpec, integrate, integrate_kernel_split
from alphasine.specfun import sin_power_integral

from conftest import f1, t2_f1


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(max_subdivisions=4)
    with pytest.raises(ValueError):
        QuadSpec(tail_cut=-1.0)


class TestIntegrate:
    def test_sine(self):
        assert abs(integrate(np.sin, 0.0, math.pi) - 2.0) < 1e-10

    def test_endpoint_singularity(self):
        assert abs(integrate(lambda u: u**-0.5, 0.0, 1.0) - 2.0) < 1e-8

    def test_sin_power_constant(self):
        val = integrate(lambda u: np.abs(np.sin(u)) ** -0.5, 0.0, math.pi)
        assert abs(val - sin_power_integral(-0.5)) < 1e-8

    def test_nonconvergence(self):
        spec = QuadSpec(max_subdivisions=8)
        with pytest.raises(NonConvergence):
            integrate(lambda u: np.abs(u - 1.0 / 3.0) ** -0.9, 0.0, 1.0, spec)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate(np.sin, 1.0, 1.0)

    @given(
        a=st.floats(min_value=-3.0, max_value=3.0),
        b=st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        spec = QuadSpec(abs_tol=1e-11, rel_tol=1e-11)
        fa = integrate(np.sin, 0.0, 2.0, spec)
        fb = integrate(np.cos, 0.0, 2.0, spec)
        combo = integrate(lambda x: a * np.sin(x) + b * np.cos(x), 0.0, 2.0, spec)
        assert abs(combo - (a * fa + b * fb)) <= 2e-10 * (1.0 + abs(a) + abs(b))


def _edge_oracle(a, y, tail_cut, kernel):
    """30-digit integral of |sin(xy)|^a e^{-x} (|cos| for the cosine kernel)
    over (0, tail_cut].

    Each half-lobe, cut to the interval, is integrated in the distance v to
    its zero with v = w^(1/(1+a)), which turns v^a dv into dw/(1+a) and leaves
    a smooth integrand.  mpmath.quad directly in x is badly wrong near a = -1.
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

            def g(w):
                v = w ** (1 / (1 + a))
                return mp.sinc(v) ** a * mp.exp(-(zero + side * v - lo) / y)

            total += mp.quad(g, [e ** (1 + a) for e in ends])
            m += 1
        return float(total / ((1 + a) * y))


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
        # smooth integrand: lobe splitting and plain adaptive must agree
        spec = QuadSpec(tail_cut=3.0 * math.pi)
        split = integrate_kernel_split(lambda x: np.exp(-x), 2.0, 1.0, spec)
        plain = integrate(lambda x: np.sin(x) ** 2 * np.exp(-x), 0.0, 3.0 * math.pi)
        assert abs(split - plain) < 1e-9

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

    def test_refinement_exhausted(self):
        # a step inside a lobe defeats the tanh-sinh rule, so seven halvings
        # cannot reach a 1e-13 tolerance
        spec = QuadSpec(abs_tol=1e-13, rel_tol=1e-13, tail_cut=4.0)
        with pytest.raises(NonConvergence, match="integrate_kernel_split"):
            integrate_kernel_split(lambda x: (np.asarray(x) < 1.2345).astype(float), 1.5, 1.0, spec)
