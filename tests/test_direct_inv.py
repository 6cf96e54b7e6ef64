"""Direct-route operators; the full reconstruction is acceptance criterion 8."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from alphasine import direct_inv
from alphasine.direct_inv import (
    DirectConfig,
    choose_weight_exponent,
    h2_inverse,
    h_forward,
    invert_direct,
    mu,
    mu_table,
)
from alphasine.grid import SampledFunction, UniformGrid
from alphasine.oscsum import _chirp_sum, _osc_sum
from alphasine.specfun import Alpha

from conftest import sample, t2_f1
from mu_lobe_oracle import lobe_mu, real_weight_sum


@pytest.fixture(scope="module")
def cfg():
    return DirectConfig(alpha=2.0)


@pytest.fixture(scope="module")
def small_cfg():
    # coarse tabulation grid keeps the trivial checks fast; eps = 0.1 keeps
    # the cutoff set inside the grid so no boundary warning fires
    return DirectConfig(
        alpha=2.0, epsilon=0.1, mu_grid=UniformGrid(-6.0, 12.0 / 512.0, 513)
    )


@pytest.fixture(scope="module")
def g_fine():
    return sample(t2_f1, 0.0, 20.0, 200001)


class TestWeightExponent:
    def test_rule(self):
        assert choose_weight_exponent(1.5) == 2.0
        assert choose_weight_exponent(2.0) == 3.0
        assert choose_weight_exponent(10.0) == 3.0

    def test_domain(self):
        for bad in (1.0, 0.5, -0.2):
            with pytest.raises(ValueError):
                choose_weight_exponent(bad)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DirectConfig(alpha=1.0)
        with pytest.raises(ValueError):
            DirectConfig(alpha=2.0, epsilon=0.0)
        with pytest.raises(ValueError):
            DirectConfig(alpha=2.0, epsilon=1.5)


class TestMu:
    def test_value_at_one(self, cfg):
        # log(1) = 0 makes the kernel real: integral of sin^2(t)/t^2 = pi/2
        assert abs(mu(1.0, cfg) - math.pi / 2.0) < 1e-6

    def test_conjugate_symmetry(self, cfg):
        xs = np.array([0.3, 2.0, 7.5])
        assert np.max(np.abs(mu(1.0 / xs, cfg) - np.conj(mu(xs, cfg)))) < 1e-8

    def test_decay(self, cfg):
        assert abs(mu(1e6, cfg)) < abs(mu(1.0, cfg)) / 10.0

    def test_closed_form_alpha_two(self, cfg):
        # |mu(e^w)| = sqrt(pi w tanh(pi w / 2) / 2) / (w sqrt(1 + w^2))
        w = np.array([0.5, 2.0, 10.0])
        expect = np.sqrt(math.pi * w * np.tanh(math.pi * w / 2.0) / 2.0) / (w * np.sqrt(1.0 + w * w))
        assert np.max(np.abs(np.abs(mu(np.exp(w), cfg)) / expect - 1.0)) <= 1e-6

    def test_domain(self, cfg):
        with pytest.raises(ValueError):
            mu(0.0, cfg)

    def test_table_symmetry(self, small_cfg):
        tab = mu_table(small_cfg)
        v = tab.values
        assert np.max(np.abs(v - np.conj(v[::-1]))) < 1e-8


class TestMuClosedForm:
    @pytest.mark.parametrize("a", [1.5, 2.5, 4.7])
    def test_against_lobe_table(self, a):
        cfg = DirectConfig(alpha=a)
        om = np.linspace(-20.0, 20.0, 41)
        got = mu(np.exp(om), cfg)
        ref = lobe_mu(a, cfg.weight_exponent, om)
        assert np.max(np.abs(got - ref)) <= 1e-7 * np.max(np.abs(ref))

    def test_against_lobe_table_alpha_two(self, cfg):
        ref = lobe_mu(2.0, cfg.weight_exponent, cfg.mu_grid.points())
        assert np.max(np.abs(mu_table(cfg).values - ref)) <= 1e-9 * np.max(np.abs(ref))

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(min_value=1.0, max_value=6.0, exclude_min=True).filter(
            lambda a: not Alpha(a).is_even_integer()
        ),
        w=st.floats(min_value=-30.0, max_value=30.0),
    )
    def test_hermitian_and_series_converged(self, a, w):
        # errors are measured against |mu(1)|, the table's largest value:
        # mu(e^w) itself nears zero at some w for a above 5
        c = choose_weight_exponent(a)
        om = np.array([w, -w, 0.0])
        vals = direct_inv._mu_values(a, c, om)
        scale = abs(vals[2])
        assert abs(vals[1] - np.conj(vals[0])) <= 1e-13 * scale
        with mock.patch.object(direct_inv, "_MU_TERMS", 3000):
            longer = direct_inv._mu_values(a, c, om)
        assert np.max(np.abs(longer - vals)) <= 1e-13 * scale

    @pytest.mark.parametrize("a", [2.0, 2.5])
    def test_finite_far_out(self, a):
        cfg = DirectConfig(alpha=a)
        for x in (1e300, 1e-300):
            assert np.isfinite(mu(x, cfg))


class TestH:
    def test_zero_input(self, small_cfg):
        g = SampledFunction(UniformGrid(0.0, 0.1, 201), np.zeros(201))
        assert h_forward(g, 1.0, small_cfg) == 0.0
        assert h_forward(g, 3.7, small_cfg) == 0.0

    def test_linearity(self, small_cfg, g_fine):
        g2 = SampledFunction(g_fine.grid, 2.5 * np.real(g_fine.values))
        a = h_forward(g_fine, 1.7, small_cfg)
        b = h_forward(g2, 1.7, small_cfg)
        assert abs(b - 2.5 * a) < 1e-12 * abs(b)

    def test_oracle_at_x_one(self, small_cfg, g_fine):
        # no oscillation at x = 1; compare against adaptive quadrature of the
        # same constant-extrapolated integrand (linear-interpolation slope
        # near 0 contributes ~5e-5 at this sampling step)
        val = h_forward(g_fine, 1.0, small_cfg)
        x_last = g_fine.grid.last
        o1 = float(np.real(g_fine.values[-1])) / x_last
        o2 = scipy_quad(lambda y: float(t2_f1(1.0 / y)), 1.0 / x_last, 2000.0, limit=400)[0]
        o3 = scipy_quad(lambda y: float(t2_f1(1.0 / y)), 2000.0, 1e5, limit=400)[0]
        o3 += math.sqrt(math.pi) / 4.0 / 1e5
        assert abs(val.real - (o1 + o2 + o3)) < 1e-3
        assert abs(val.imag) < 1e-12


class TestChirpSum:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 4000),
        count=st.integers(1, 2000),
        u_ends=st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)),
        om_ends=st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)),
        sign=st.sampled_from([-1.0, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    # one grid far longer than the other: the chirp phases reach 3e5 and 1e6 turns
    @example(n=3, count=2000, u_ends=(-30.0, 30.0), om_ends=(-30.0, 30.0), sign=1.0, seed=0)
    @example(n=4000, count=2, u_ends=(-30.0, 30.0), om_ends=(-30.0, 30.0), sign=-1.0, seed=1)
    def test_matches_dense_sum(self, n, count, u_ends, om_ends, sign, seed):
        # both sums round the phase omega u, so the bound scales with its size
        # and with sum |W|, not with the (possibly cancelling) result
        u0, u1 = sorted(u_ends)
        om0, om1 = sorted(om_ends)
        du = max(u1 - u0, 1e-3) / max(n - 1, 1)
        dom = max(om1 - om0, 1e-3) / max(count - 1, 1)
        rng = np.random.default_rng(seed)
        weights = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-5.0, 5.0, n))
        u = u0 + du * np.arange(n)
        om = om0 + dom * np.arange(count)
        got = _chirp_sum(weights, u0, du, om0, dom, count, sign)
        ref = _osc_sum(u, weights, om, sign)
        eps = np.finfo(float).eps
        bound = 32.0 * eps * max(1.0, np.max(np.abs(om)) * np.max(np.abs(u))) * np.sum(np.abs(weights))
        assert np.max(np.abs(got - ref)) <= bound

    def test_h_on_mu_grid_matches_dense_sum(self, cfg):
        g = sample(t2_f1, 0.0, 20.0, 20001)
        om = cfg.mu_grid.points()
        u, _, weights = direct_inv._h_integrand(g, cfg)
        ref = real_weight_sum(u, weights, om, -1.0) + direct_inv._h_tail(g, cfg, u[0], om)
        got = direct_inv._h_values(g, cfg, cfg.mu_grid)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _hermitian_w(cfg, seed):
    rng = np.random.default_rng(seed)
    n = cfg.mu_grid.count
    half = rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2)
    half *= np.exp(-0.1 * cfg.mu_grid.points()[n // 2 + 1 :] ** 2)
    return np.concatenate((np.conj(half[::-1]), [1.0 + 0.0j], half))


class TestH2:
    def test_zero(self, small_cfg):
        w = np.zeros(small_cfg.mu_grid.count, dtype=complex)
        assert h2_inverse(w, 1.3, small_cfg) == 0.0
        got = h2_inverse(w, np.linspace(0.2, 3.0, 15), small_cfg)
        assert np.array_equal(got, np.zeros(15))

    def test_scaling(self, small_cfg):
        # Hermitian w (the physical case) keeps the output real
        w = _hermitian_w(small_cfg, 5)
        a = h2_inverse(w, 0.7, small_cfg)
        b = h2_inverse(3.0 * w, 0.7, small_cfg)
        assert math.isclose(b, 3.0 * a, rel_tol=1e-12)

    def test_imaginary_residue_warns(self, small_cfg):
        # a one-sided w has a genuine imaginary part: the diagnostic fires
        w = np.zeros(small_cfg.mu_grid.count, dtype=complex)
        w[-50:] = 1.0
        with pytest.warns(UserWarning, match="imaginary"):
            h2_inverse(w, 0.7, small_cfg)

    def test_trims_zero_ends(self, small_cfg):
        # zero runs at both ends of a Hermitian w, as the cutoff leaves them,
        # are skipped
        grid = small_cfg.mu_grid
        mid = grid.count // 2
        rng = np.random.default_rng(11)
        half = rng.standard_normal(150) + 1j * rng.standard_normal(150)
        w = np.zeros(grid.count, dtype=complex)
        w[mid - 150 : mid + 151] = np.concatenate((np.conj(half[::-1]), [1.0], half))
        zs = np.linspace(0.2, 3.0, 15)
        got = h2_inverse(w, zs, small_cfg)
        trap = np.full(grid.count, grid.step)
        trap[0] = trap[-1] = 0.5 * grid.step
        full = _osc_sum(grid.points(), w * trap, np.log(zs), +1.0)
        ref = np.real(zs ** (-small_cfg.s_exponent) / (2.0 * math.pi) * full)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_rejects_wrong_length(self, small_cfg):
        with pytest.raises(ValueError):
            h2_inverse(np.zeros(7), 1.0, small_cfg)
        with pytest.raises(ValueError):
            h2_inverse(np.zeros(small_cfg.mu_grid.count), 0.0, small_cfg)

    def test_rejects_sampled_function(self, small_cfg):
        w = SampledFunction(small_cfg.mu_grid, np.zeros(small_cfg.mu_grid.count))
        with pytest.raises(ValueError):
            h2_inverse(w, 1.0, small_cfg)


class TestArrayOperators:
    """mu, h_forward and h2_inverse at a scalar and at an array of points.

    An array call sums each point's row inside one BLAS matrix-vector
    product, whose summation order depends on the number of rows, so it
    matches the per-point calls to rounding, not bit for bit.
    """

    @pytest.fixture(scope="class", params=["mu", "h_forward", "h2_inverse"])
    def op(self, request, small_cfg):
        g = sample(t2_f1, 0.0, 20.0, 2001)
        w = _hermitian_w(small_cfg, 5)
        return {
            "mu": (lambda x: mu(x, DirectConfig(alpha=2.5)), complex),
            "h_forward": (lambda x: h_forward(g, x, small_cfg), complex),
            "h2_inverse": (lambda z: h2_inverse(w, z, small_cfg), float),
        }[request.param]

    def test_array_matches_scalar_calls(self, op):
        call, _ = op
        xs = np.exp(np.linspace(-8.0, 8.0, 33))
        got = call(xs)
        ref = np.array([call(float(x)) for x in xs])
        assert got.shape == xs.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_scalar_gives_python_number(self, op):
        call, kind = op
        assert type(call(1.7)) is kind
        assert type(call(np.float64(1.7))) is kind

    def test_shape_is_kept(self, op):
        call, _ = op
        xs = np.array([[0.5, 1.0, 2.0], [3.0, 4.0, 5.0]])
        got = call(xs)
        assert got.shape == (2, 3)
        assert np.max(np.abs(got.ravel() - call(xs.ravel()))) <= 1e-14 * np.max(np.abs(got))
        assert call(np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_non_positive_entry_rejected(self, op, bad):
        call, _ = op
        with pytest.raises(ValueError):
            call(np.array([0.5, bad, 2.0]))


class TestInvertDirect:
    def test_zero_input(self, small_cfg):
        g = SampledFunction(UniformGrid(0.0, 0.1, 201), np.zeros(201))
        out = UniformGrid(0.5, 0.25, 9)
        rec = invert_direct(g, small_cfg, out)
        assert np.max(np.abs(rec.values)) == 0.0

    def test_positive_grid_required(self, small_cfg):
        g = SampledFunction(UniformGrid(0.0, 0.1, 201), np.zeros(201))
        with pytest.raises(ValueError):
            invert_direct(g, small_cfg, UniformGrid(0.0, 0.1, 5))

    def test_empty_cutoff_warns(self, g_fine):
        # a grid placed beyond the mu peak sees only |mu| ~ 0.02 < eps
        cfg = DirectConfig(
            alpha=2.0, epsilon=0.5, mu_grid=UniformGrid(15.0, 1.0 / 128.0, 129)
        )
        with pytest.warns(UserWarning, match="empty"):
            invert_direct(g_fine, cfg, UniformGrid(0.5, 0.25, 5))

    def test_boundary_warning_when_grid_too_narrow(self, g_fine):
        cfg = DirectConfig(
            alpha=2.0, epsilon=0.01, mu_grid=UniformGrid(-4.0, 8.0 / 128.0, 129)
        )
        with pytest.warns(UserWarning, match="boundary"):
            invert_direct(g_fine, cfg, UniformGrid(0.5, 0.25, 5))
