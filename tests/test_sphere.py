"""Circle transform: convolution theorem, coefficient extraction, inversion."""

import math
import re

import numpy as np
import pytest

from alphasine.errors import CoefficientUnderflow, EvenIntegerAlpha
from alphasine.examples import shifted_sine_density, vonmises4_density, watson_density
from alphasine.grid import SampledFunction, UniformGrid
from alphasine.specfun import cosine_coeffs, sin_power_integral
from alphasine.sphere import (
    PeriodicDensity,
    _check_circle_grid,
    circle_grid,
    invert_sphere,
    k_sphere_grid,
)

from conftest import circle_fourier_coeffs, k_sphere_grid_quad

DENSITIES = {
    "shifted_sine": shifted_sine_density(1.0),
    "vonmises4": vonmises4_density(1.0),
    "watson": watson_density(-2.5, 1.0),
}


class TestPeriodicDensity:
    def test_mass_enforced(self):
        g = circle_grid(8)
        with pytest.raises(ValueError):
            PeriodicDensity(SampledFunction(g, np.full(8, 1.0)))

    def test_negative_rejected(self):
        g = circle_grid(8)
        vals = np.full(8, 1.0 / (2.0 * math.pi))
        vals[3] = -vals[3]
        with pytest.raises(ValueError):
            PeriodicDensity(SampledFunction(g, vals))

    def test_pi_periodicity_certificate(self):
        g = circle_grid(8)
        vals = np.full(8, 1.0 / (2.0 * math.pi))
        vals[0] *= 1.5
        vals[1] *= 0.5
        total = (2.0 * math.pi / 8) * vals.sum()
        vals = vals / total
        with pytest.raises(ValueError):
            PeriodicDensity(SampledFunction(g, vals), certified_pi_periodic=True)
        PeriodicDensity(SampledFunction(g, vals))  # uncertified is fine

    def test_wrong_grid_rejected(self):
        bad = UniformGrid(0.0, 2.0 * math.pi / 8, 8)
        with pytest.raises(ValueError):
            PeriodicDensity(SampledFunction(bad, np.full(8, 1.0 / (2.0 * math.pi))))

    @pytest.mark.parametrize("call, message", [
        (lambda: circle_grid(3), "grid size must be even and >= 4, got 3"),
        (lambda: _check_circle_grid(UniformGrid(-math.pi, 2.0 * math.pi / 7, 7)),
         "circle grid size must be even"),
        (lambda: watson_density(0.0, -1.0), "kappa must be >= 0, got -1.0"),
    ], ids=["odd-size", "odd-grid", "negative-kappa"])
    def test_refusal_names_its_cause(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


class TestKSphere:
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.5, 2.0])
    def test_uniform_density(self, alpha):
        # m = 2 has Nyquist order 1, whose kernel coefficient table still
        # needs a count >= 1
        for m in (2, 4, 512):
            grid = UniformGrid(-math.pi, 2.0 * math.pi / m, m)
            uni = PeriodicDensity(SampledFunction(grid, np.full(m, 1.0 / (2.0 * math.pi))))
            kf = k_sphere_grid(uni, alpha)
            expect = sin_power_integral(alpha) / math.pi
            assert np.allclose(kf.values, expect, rtol=1e-12, atol=0.0), m

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.3, 1.5, 2.0, 3.3, 4.9])
    @pytest.mark.parametrize("name", list(DENSITIES))
    def test_matches_quadrature_reference(self, alpha, name):
        f = DENSITIES[name]
        ref = k_sphere_grid_quad(f, alpha).values
        gap = np.max(np.abs(k_sphere_grid(f, alpha).values - ref))
        assert gap <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.5, 5.0])
    @pytest.mark.parametrize("name", ["watson", "vonmises4"])
    def test_convolution_theorem(self, alpha, name):
        # K f from the quadrature reference: k_sphere_grid is built from
        # the closed form this test compares with
        f = DENSITIES[name]
        kf = k_sphere_grid_quad(f, alpha)
        hk = circle_fourier_coeffs(kf, 22)
        fh = circle_fourier_coeffs(f.values, 22)
        ct = cosine_coeffs(alpha, 11).coeffs
        for n in range(-10, 11):
            expect = 2.0 * math.pi * ct[abs(n)] * fh[2 * n + 22]
            assert abs(hk[2 * n + 22] - expect) <= 1e-6


class TestCircleCoeffs:
    def test_pure_harmonic(self):
        g = circle_grid(128)
        u = SampledFunction(g, np.cos(2.0 * g.points()))
        c = circle_fourier_coeffs(u, 5)
        for n in range(-5, 6):
            expect = 0.5 if abs(n) == 2 else 0.0
            assert abs(c[n + 5] - expect) <= 1e-10

    def test_constant(self):
        g = circle_grid(64)
        u = SampledFunction(g, np.full(64, 1.0 / (2.0 * math.pi)))
        c = circle_fourier_coeffs(u, 3)
        assert abs(c[3] - 1.0 / (2.0 * math.pi)) <= 1e-14
        for n in (1, 2, 3, -1):
            assert abs(c[n + 3]) <= 1e-14

    def test_kernel_coefficients_cross_module(self):
        # |cos x|^1.5 sampled finely: trapezoid coefficients match the
        # closed-form table from the gamma route (aliasing ~ (M/4)^-2.5)
        g = circle_grid(32768)
        u = SampledFunction(g, np.abs(np.cos(g.points())) ** 1.5)
        c = circle_fourier_coeffs(u, 20)
        ct = cosine_coeffs(1.5, 10).coeffs
        for n in range(-10, 11):
            assert abs(c[2 * n + 20] - ct[abs(n)]) <= 1e-10
        for n in (-9, -3, 1, 5, 19):
            assert abs(c[n + 20]) <= 1e-10

    def test_antialiasing_margin_enforced(self):
        # inversion to harmonic 2 maxn needs M >= 8 maxn + 4 samples
        g = circle_grid(16)
        kf = SampledFunction(g, np.full(16, 1.0 / (2.0 * math.pi)))
        invert_sphere(kf, 1.5, 1)
        with pytest.raises(ValueError, match="need at least 20 grid points"):
            invert_sphere(kf, 1.5, 2)

    @pytest.mark.parametrize("name", list(DENSITIES))
    def test_odd_coefficients_vanish(self, name):
        c = circle_fourier_coeffs(DENSITIES[name].values, 21)
        for n in range(-21, 22, 2):
            assert abs(c[n + 21]) <= 1e-10


class TestInvertSphere:
    def test_even_integer_rejected(self):
        kf = k_sphere_grid(DENSITIES["watson"], 1.5)
        for alpha in (0.0, 2.0, 4.0):
            with pytest.raises(EvenIntegerAlpha):
                invert_sphere(kf, alpha, 10)

    def test_grid_refused_before_the_coefficient_table(self, monkeypatch):
        # the table for n = 10^7 takes hundreds of MB, and its underflow
        # message would hide the grid's; the grid check must come first
        def no_table(*args):
            raise AssertionError("cosine_coeffs ran before the grid check")

        monkeypatch.setattr("alphasine.sphere.cosine_coeffs", no_table)
        kf = SampledFunction(circle_grid(128), np.full(128, 1.0 / (2.0 * math.pi)))
        with pytest.raises(ValueError) as info:
            invert_sphere(kf, 1.5, 10**7)
        assert str(info.value) == "need at least 80000004 grid points for n=10000000, got 128"

    def test_coefficient_underflow(self):
        kf = k_sphere_grid(DENSITIES["watson"], 19.5)
        with pytest.raises(CoefficientUnderflow):
            invert_sphere(kf, 19.5, 40)

    def test_uniform_recovered_exactly(self):
        uni = watson_density(0.0, 0.0)
        kf = k_sphere_grid(uni, 1.5)
        rec = invert_sphere(kf, 1.5, 10)
        assert np.max(np.abs(rec.values.values - 1.0 / (2.0 * math.pi))) <= 1e-12
        assert rec.clipped_mass == 0.0

    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.5, 3.0, 5.0])
    def test_round_trip_on_harmonics(self, alpha):
        g = circle_grid(256)
        x = g.points()
        vals = (1.0 + 0.3 * np.cos(2.0 * x) + 0.1 * np.cos(6.0 * (x - 0.4))) / (2.0 * math.pi)
        f = PeriodicDensity(SampledFunction(g, vals), certified_pi_periodic=True)
        rec = invert_sphere(k_sphere_grid(f, alpha), alpha, 4)
        assert np.max(np.abs(rec.values.values - vals)) <= 1e-9

    @pytest.mark.parametrize("name", list(DENSITIES))
    def test_example_densities_alpha_15(self, name):
        f = DENSITIES[name]
        rec = invert_sphere(k_sphere_grid(f, 1.5), 1.5, 10)
        assert np.max(np.abs(rec.values.values - f.values.values)) <= 0.02
        # reconstruction keeps the pi-periodicity certificate
        assert rec.certified_pi_periodic


class TestDensities:
    def test_all_pi_periodic(self):
        for f in DENSITIES.values():
            v = f.values.values
            m = len(v)
            assert np.max(np.abs(v - np.roll(v, m // 2))) <= 1e-10

    def test_mass_one(self):
        for f in DENSITIES.values():
            m = f.grid.count
            assert math.isclose((2.0 * math.pi / m) * f.values.values.sum(), 1.0, rel_tol=1e-12)

    def test_watson_zero_concentration_is_uniform(self):
        f = watson_density(1.0, 0.0)
        assert np.max(np.abs(f.values.values - 1.0 / (2.0 * math.pi))) <= 1e-15

    def test_watson_matches_kummer_normalization(self):
        f = watson_density(-2.5, 1.0, m=512)
        x = f.grid.points()
        # M(1/2, 1, kappa) = e^{kappa/2} I_0(kappa/2)
        expect = np.exp(np.cos(x + 2.5) ** 2) / (2.0 * math.pi * math.exp(0.5) * np.i0(0.5))
        assert np.max(np.abs(f.values.values - expect)) <= 1e-12

    def test_vonmises4_against_bessel_normalization(self):
        f = vonmises4_density(0.3, m=512)
        x = f.grid.points()
        expect = np.exp(np.cos(4.0 * (x - 0.3))) / (2.0 * math.pi * np.i0(1.0))
        assert np.max(np.abs(f.values.values - expect)) <= 1e-12

    def test_shifted_sine_values(self):
        f = shifted_sine_density(0.0, m=512)
        x = f.grid.points()
        # renormalization moves the raw |sin|/4 samples by a few 1e-6
        assert np.max(np.abs(f.values.values - np.abs(np.sin(x)) / 4.0)) <= 1e-5
