"""Direct-route operators, and the point convention that they share with
every other function of a point; the full reconstruction is acceptance
criterion 8."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from alphasine import direct_inv, oscsum
from alphasine.direct_inv import (
    DirectConfig,
    h2_inverse,
    h_forward,
    invert_direct,
    mu,
    mu_table,
)
from alphasine.forward import k_cosine, t_sine, t_sine_series
from alphasine.fourier_inv import FourierSamples, MollifierKind, mollifier_kernel, synthesize
from alphasine.grid import SampledFunction, UniformGrid
from alphasine.oscsum import _chirp_sum, _osc_sum, _uniform_sum
from alphasine.quad import QuadSpec, integrate_kernel_split
from alphasine.sas import SasParams, g_from_codifference
from alphasine.specfun import _near_even

from chirp_oracle import _chirp_sum as chirp_sum_oracle
from conftest import f1, fhat1, sample, t2_f1
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
        assert DirectConfig(alpha=1.5).weight_exponent == 2.0
        assert DirectConfig(alpha=2.0).weight_exponent == 3.0
        assert DirectConfig(alpha=10.0).weight_exponent == 3.0

    def test_domain(self):
        for bad in (1.0, 0.5, -0.2):
            with pytest.raises(ValueError, match=rf"^alpha must be finite and in \(1, inf\), got {bad}$"):
                DirectConfig(alpha=bad)

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
            lambda a: not _near_even(a)
        ),
        w=st.floats(min_value=-30.0, max_value=30.0),
    )
    def test_hermitian_and_series_converged(self, a, w):
        # errors are measured against |mu(1)|, the table's largest value:
        # mu(e^w) itself nears zero at some w for a above 5
        c = DirectConfig(alpha=a).weight_exponent
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

    # the shapes of H g on the mu grid and of the Fourier synthesis at
    # N = 1e4, and grids far longer or shorter than the other
    @pytest.mark.parametrize("n, count", [(23549, 6145), (10000, 301), (50, 9000), (7, 3),
                                          (1000, 1000), (3, 5000)])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_cached_plan_matches_oracle(self, n, count, sign):
        # the oracle rebuilds every chirp per call; the cached sum must agree
        # byte for byte when it builds the plan and when it reuses it
        rng = np.random.default_rng(n + count)
        weights = rng.standard_normal(n) * np.exp(rng.uniform(-5.0, 5.0, n))
        grids = (-math.log(20.0), 1.0 / 1024.0, -24.0, 48.0 / 6144.0, count, sign)
        ref = chirp_sum_oracle(weights, *grids)
        oscsum._chirp_plan.cache_clear()
        cold = _chirp_sum(weights, *grids)
        warm = _chirp_sum(weights, *grids)
        assert oscsum._chirp_plan.cache_info().hits == 1
        assert cold.tobytes() == ref.tobytes() and warm.tobytes() == ref.tobytes()

    def test_plan_is_read_only(self):
        size, *arrays = oscsum._chirp_plan(40, 0.5, 0.25, -3.0, 0.125, 30, 1.0)
        assert size == 128
        # the reversed j^2 chirp is a view of the m^2 table, not a copy
        assert arrays[1].base is not None
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_new_weights_on_a_cached_plan(self):
        rng = np.random.default_rng(5)
        grids = (0.5, 0.25, -3.0, 0.125, 30, 1.0)
        first, second = rng.standard_normal(40), rng.standard_normal(40)
        a = _chirp_sum(first, *grids)
        b = _chirp_sum(second, *grids)
        assert not np.array_equal(a, b)
        assert b.tobytes() == chirp_sum_oracle(second, *grids).tobytes()
        assert _chirp_sum(first, *grids).tobytes() == a.tobytes()

    def test_cache_stays_within_its_bound(self):
        oscsum._chirp_plan.cache_clear()
        maxsize = oscsum._chirp_plan.cache_info().maxsize
        for k in range(3 * maxsize):
            _chirp_sum(np.ones(20 + k), 0.0, 0.1, 0.0, 0.2, 10, 1.0)
            assert oscsum._chirp_plan.cache_info().currsize <= maxsize
        assert oscsum._chirp_plan.cache_info().currsize == maxsize

    def test_h_on_mu_grid_matches_dense_sum(self, cfg):
        # the u grid and weights are those _h_values hands to the uniform sum;
        # the reference sums them densely and adds the closed-form part below
        # the grid, g_last e^{(p - i omega) u_0} / (p - i omega)
        g = sample(t2_f1, 0.0, 20.0, 20001)
        om = cfg.mu_grid.points()
        with mock.patch.object(direct_inv, "_uniform_sum", wraps=direct_inv._uniform_sum) as spy:
            got = direct_inv._h_values(g, cfg, cfg.mu_grid)
        weights, u0, du = spy.call_args.args[:3]
        u = u0 + du * np.arange(len(weights))
        p = 0.5 * (cfg.weight_exponent - 1.0)
        g_last = float(np.real(g.values[-1]))
        ref = (real_weight_sum(u, weights, om, -1.0)
               + g_last * np.exp((p - 1j * om) * u0) / (p - 1j * om))
        assert u0 == -math.log(g.grid.last)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# H2 at the README's direct settings: the cutoff span at eps = 0.025 and the
# 281 points ln z of 0.2:3:281
_H2_SPAN_START = -24.0 + 1335 * (48.0 / 6144.0)
_H2_POINTS = list(np.log(np.linspace(0.2, 3.0, 281)))


class TestBlockedSum:
    """`_uniform_sum` at an array of points (the blocked sum), against the
    dense sum as an independent oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        # empty, one node, a prime and a perfect square pad the table differently
        n=st.one_of(st.sampled_from([0, 1, 997, 1024]), st.integers(0, 4000)),
        u0=st.floats(-30.0, 30.0),
        span=st.floats(1e-3, 60.0),
        # unsorted, repeated, negative and single points alike
        points=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=300),
        cplx=st.booleans(),
        sign=st.sampled_from([-1.0, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=3475, u0=_H2_SPAN_START, span=3474 * (48.0 / 6144.0), points=_H2_POINTS,
             cplx=True, sign=1.0, seed=0)
    @example(n=0, u0=0.0, span=1.0, points=[0.5], cplx=False, sign=1.0, seed=0)
    @example(n=7, u0=-3.0, span=5.0, points=[2.0, -1.0, 2.0, 2.0, -1.0], cplx=True, sign=-1.0, seed=1)
    def test_matches_dense_sum(self, n, u0, span, points, cplx, sign, seed):
        # the same bound as the chirp-z test: both sums round the phase omega u
        du = span / max(n - 1, 1)
        rng = np.random.default_rng(seed)
        weights = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-5.0, 5.0, n))
        if cplx:
            weights = weights * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
        om = np.array(points)
        u = u0 + du * np.arange(n)
        got = _uniform_sum(weights, u0, du, om, sign)
        ref = _osc_sum(u, weights, om, sign)
        assert got.shape == om.shape
        if n == 0:
            assert np.array_equal(got, np.zeros(len(om)))
        eps = np.finfo(float).eps
        lmax = np.max(np.abs(u), initial=0.0)
        bound = 32.0 * eps * max(1.0, np.max(np.abs(om)) * lmax) * np.sum(np.abs(weights))
        assert np.max(np.abs(got - ref)) <= bound

    @pytest.mark.parametrize("n", [1, 1000, 3475])
    def test_chunks_change_no_bit(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        om = rng.uniform(-3.0, 3.0, 281)
        whole = _uniform_sum(weights, -13.0, 1.0 / 128.0, om, 1.0)
        b = math.isqrt(n - 1) + 1
        # 37 points a chunk: seven full chunks and one of 22
        monkeypatch.setattr(oscsum, "_TABLE_ENTRIES", 37 * (b + -(-n // b)))
        chunked = _uniform_sum(weights, -13.0, 1.0 / 128.0, om, 1.0)
        assert np.array_equal(chunked, whole)

    def test_h_forward_matches_chirp_path(self, cfg):
        # the chirp-z sum on the mu grid is independent of the blocked sum
        g = sample(t2_f1, 0.0, 20.0, 20001)
        ref = direct_inv._h_values(g, cfg, cfg.mu_grid)[::7]
        got = h_forward(g, np.exp(cfg.mu_grid.points()[::7]), cfg)
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
        with pytest.warns(UserWarning, match="imaginary") as caught:
            h2_inverse(w, 0.7, small_cfg)
        # the warning names the caller, not a frame inside the package
        assert caught[0].filename == __file__

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


# every function of a point, its domain and the type of its value at a scalar
POINTWISE = {
    "integrate_kernel_split": ("positive", float),
    "t_sine": ("non-negative", float),
    "k_cosine": ("non-negative", float),
    "t_sine_series": ("positive", float),
    "mu": ("positive", complex),
    "h_forward": ("positive", complex),
    "h2_inverse": ("positive", float),
    "synthesize": ("finite", float),
    "mollifier_kernel": ("finite", float),
    "g_from_codifference": ("positive", float),
}
OUT_OF_DOMAIN = {"positive": [0.0, -1.0], "non-negative": [-1.0], "finite": []}
BAD_ENTRIES = [(name, bad) for name, (domain, _) in POINTWISE.items()
               for bad in OUT_OF_DOMAIN[domain] + [math.nan, math.inf, -math.inf]]


class TestArrayOperators:
    """The point convention of every function of a point (grid._pointwise):
    a Python number at a scalar, an array of x's shape at an array, and an
    error naming the first entry that is not finite or not in the domain.

    An array call of mu sums each point's row inside one BLAS matrix-vector
    product of the dense sum, whose summation order depends on the number of
    rows, so it matches the per-point calls to rounding, not bit for bit.
    h_forward and h2_inverse take the blocked sum, which gives each point
    its own product, so their array calls match bit for bit.
    """

    @pytest.fixture(scope="class")
    def ops(self, small_cfg):
        g = sample(t2_f1, 0.0, 20.0, 2001)
        w = _hermitian_w(small_cfg, 5)
        spec = QuadSpec()
        fs = FourierSamples(np.exp(-0.1 * np.arange(1, 41)), 1.0, 4.0)
        p = SasParams(1.0, 1.5)
        return {
            "integrate_kernel_split": lambda y: integrate_kernel_split(f1, 1.5, y, spec),
            "t_sine": lambda y: t_sine(f1, 1.5, y, spec),
            "k_cosine": lambda y: k_cosine(f1, 1.5, y, spec),
            "t_sine_series": lambda y: t_sine_series(fhat1, 1.5, y, 10),
            "mu": lambda x: mu(x, DirectConfig(alpha=2.5)),
            "h_forward": lambda x: h_forward(g, x, small_cfg),
            "h2_inverse": lambda z: h2_inverse(w, z, small_cfg),
            "synthesize": lambda x: synthesize(fs, x),
            "mollifier_kernel": lambda y: mollifier_kernel(MollifierKind("gaussian", 1.0), y),
            "g_from_codifference": lambda t: g_from_codifference(lambda s: np.exp(-s), p, t),
        }

    @pytest.mark.parametrize("name", ["mu", "h_forward", "h2_inverse"])
    def test_array_matches_scalar_calls(self, ops, name):
        call = ops[name]
        xs = np.exp(np.linspace(-8.0, 8.0, 33))
        got = call(xs)
        ref = np.array([call(float(x)) for x in xs])
        assert got.shape == xs.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        if name != "mu":
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("name", POINTWISE)
    def test_scalar_gives_python_number(self, ops, name):
        call, (domain, kind) = ops[name], POINTWISE[name]
        edge = () if domain == "positive" else (np.float64(0.0),)
        for x in (1.7, np.float64(1.7), np.array(1.7)) + edge:
            assert type(call(x)) is kind

    @pytest.mark.parametrize("name", POINTWISE)
    def test_shape_is_kept(self, ops, name):
        call = ops[name]
        xs = np.array([[0.5, 1.0, 2.0], [3.0, 4.0, 5.0]])
        got = call(xs)
        assert got.shape == (2, 3)
        assert np.max(np.abs(got.ravel() - call(xs.ravel()))) <= 1e-14 * np.max(np.abs(got))
        assert call(np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("name, bad", BAD_ENTRIES, ids=[f"{n}-{b}" for n, b in BAD_ENTRIES])
    def test_non_positive_entry_rejected(self, ops, name, bad):
        """Any entry outside the domain, NaN or infinite; for the functions
        of x > 0 that is every entry that is not positive."""
        with pytest.raises(ValueError, match=re.escape(f"got {bad}") + "$"):
            ops[name](np.array([0.5, bad, 2.0]))


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
