"""Sampled-function carrier: interpolation and extrapolation; the one gate
for scalar parameters, intervals and counts."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphasine.direct_inv import DirectConfig
from alphasine.examples import watson_density
from alphasine.forward import t_sine, t_sine_series
from alphasine.fourier_inv import (FourierSamples, MollifierKind, build_rhs, estimate_f0,
                                   invert_fourier)
from alphasine.grid import SampledFunction, UniformGrid, call_vec
from alphasine.quad import QuadSpec, integrate_kernel_split
from alphasine.sas import SasParams
from alphasine.specfun import cosine_coeffs, leading_coefficient, operator_norm_bound, sine_coeffs
from alphasine.sphere import invert_sphere, k_sphere_grid

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_grid_validation():
    with pytest.raises(ValueError):
        UniformGrid(0.0, 0.0, 4)
    with pytest.raises(ValueError):
        UniformGrid(0.0, -1.0, 4)
    with pytest.raises(ValueError):
        UniformGrid(0.0, 1.0, 0)


@pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
def test_grid_start_must_be_finite(start):
    with pytest.raises(ValueError, match=f"start must be finite, got {start}"):
        UniformGrid(start, 1.0, 3)


def test_grid_abscissae():
    g = UniformGrid(1.0, 0.5, 5)
    assert np.allclose(g.points(), [1.0, 1.5, 2.0, 2.5, 3.0])
    assert g.points()[-1] == 3.0 == g.last


def test_rejects_nonfinite_values():
    g = UniformGrid(0.0, 1.0, 3)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            SampledFunction(g, [0.0, bad, 1.0])


def test_values_must_match_the_grid():
    with pytest.raises(ValueError, match=re.escape("expected 3 values, got shape (2,)")):
        SampledFunction(UniformGrid(0.0, 1.0, 3), [0.0, 1.0])


def test_complex_values_allowed():
    g = UniformGrid(0.0, 1.0, 2)
    s = SampledFunction(g, [1.0 + 2.0j, 3.0])
    assert s.eval(0.0) == 1.0 + 2.0j


def test_identity_reproduced():
    g = UniformGrid(0.0, 0.25, 5)
    s = SampledFunction(g, call_vec(lambda x: x, g.points()))
    assert s.eval(0.25) == 0.25
    assert s.eval(0.375) == 0.375


def test_constant_extrapolation():
    s = SampledFunction(UniformGrid(0.0, 1.0, 3), [5.0, 7.0, -2.0])
    assert s.eval(99.0) == -2.0
    assert s.eval(-99.0) == 5.0


@given(slope=finite, intercept=finite, x=st.floats(min_value=0.0, max_value=4.0))
@settings(max_examples=60, deadline=None)
def test_affine_exactness(slope, intercept, x):
    g = UniformGrid(0.0, 0.5, 9)
    s = SampledFunction(g, call_vec(lambda t: slope * t + intercept, g.points()))
    assert math.isclose(
        s.eval(x), slope * x + intercept, rel_tol=1e-12, abs_tol=1e-9
    )


def test_abscissae_built_once_and_read_only():
    # eval reads the abscissae on every call, so they are built with the
    # samples, not per call, and no caller can change them; eval gives the
    # bits np.interp gives on the grid's own points
    g = UniformGrid(0.3, 0.01, 2001)
    s = SampledFunction(g, np.cos(g.points()))
    assert s.xs is s.xs and np.array_equal(s.xs, g.points())
    assert not s.xs.flags.writeable and not s.values.flags.writeable
    x = np.random.default_rng(2).uniform(0.0, 21.0, 1000)
    assert np.array_equal(s.eval(x), np.interp(x, g.points(), s.values))


# every scalar field a value type takes through grid._scalar: the field as
# built from v, its name and its domain
GATED_FIELDS = {
    "grid-start": (lambda v: UniformGrid(v, 1.0, 3).start, "start", "finite"),
    "grid-step": (lambda v: UniformGrid(0.0, v, 3).step, "step", "positive"),
    "grid-count": (lambda v: UniformGrid(0.0, 1.0, v).count, "count", "count"),
    "quad-abs_tol": (lambda v: QuadSpec(abs_tol=v).abs_tol, "abs_tol", "positive"),
    "quad-rel_tol": (lambda v: QuadSpec(rel_tol=v).rel_tol, "rel_tol", "positive"),
    "quad-tail_cut": (lambda v: QuadSpec(tail_cut=v).tail_cut, "tail_cut", "positive"),
    "samples-r": (lambda v: FourierSamples([1.0], 0.0, v).r, "r", "positive"),
    "samples-f0": (lambda v: FourierSamples([1.0], v, 1.0).f0, "f0", "finite"),
    "mollifier-gamma": (lambda v: MollifierKind("triangle", v).gamma, "gamma", "positive"),
    # at a = 0.5, 2 sigma^a is finite for every finite sigma
    "sas-sigma": (lambda v: SasParams(v, 0.5).sigma, "sigma", "positive"),
    "sas-alpha": (lambda v: SasParams(1.0, v).alpha, "alpha", "(0, 2)"),
    "direct-alpha": (lambda v: DirectConfig(alpha=v).alpha, "alpha", "(1, inf)"),
    "direct-epsilon": (lambda v: DirectConfig(alpha=2.0, epsilon=v).epsilon, "epsilon", "(0, 1)"),
}
# the functions that take a scalar through it, with its name and domain
_G = SampledFunction(UniformGrid(0.0, 0.5, 9), np.exp(-np.arange(9.0)))
_KF = k_sphere_grid(watson_density(0.0, 1.0, m=16), 1.5)
_ALPHA = "(-1, inf)"
GATED_CALLS = {
    "watson-kappa": (lambda v: watson_density(0.0, v, m=8), "kappa", "non-negative"),
    "invert-f0": (lambda v: invert_fourier(_G, 1.5, 4, 1.0, UniformGrid(0.0, 0.5, 3),
                                           f0_override=v), "f0", "finite"),
    "coeffs-alpha": (lambda v: sine_coeffs(v, 3), "alpha", _ALPHA),
    "coeffs-count": (lambda v: sine_coeffs(1.5, v), "count", "count"),
    "cosine-count": (lambda v: cosine_coeffs(1.5, v), "count", "count"),
    "c0-alpha": (lambda v: leading_coefficient(v), "alpha", _ALPHA),
    "norm-alpha": (lambda v: operator_norm_bound(v), "alpha", "(-1, 0)"),
    "t_sine-alpha": (lambda v: t_sine(np.exp, v, 1.0), "alpha", _ALPHA),
    "quad-alpha": (lambda v: integrate_kernel_split(np.exp, v, 1.0), "alpha", _ALPHA),
    "series-alpha": (lambda v: t_sine_series(np.exp, v, 1.0, 4, fhat_decays=True), "alpha",
                     _ALPHA),
    "series-terms": (lambda v: t_sine_series(np.exp, 1.5, 1.0, v), "terms", "count"),
    "f0-alpha": (lambda v: estimate_f0(_G, v, 1.0), "alpha", _ALPHA),
    "rhs-n": (lambda v: build_rhs(_G, 1.5, v, 1.0, 0.0), "n", "count"),
    "invert-alpha": (lambda v: invert_fourier(_G, v, 4, 1.0, UniformGrid(0.0, 0.5, 3)),
                     "alpha", _ALPHA),
    "sphere-alpha": (lambda v: k_sphere_grid(watson_density(0.0, 1.0, m=8), v), "alpha", _ALPHA),
    "sphere-invert-alpha": (lambda v: invert_sphere(_KF, v, 1), "alpha", _ALPHA),
    "sphere-n": (lambda v: invert_sphere(_KF, 1.5, v), "n", "count"),
}
# values outside each domain, the open ends of every interval among them
_OUTSIDE = {"finite": [], "non-negative": [-1.0, -5e-324], "positive": [0.0, -0.0, -1.0],
            "count": [0.0, -1.0, 0.5, 2.5, 1.0 + 2.0**-52], _ALPHA: [-1.0, -2.0],
            "(-1, 0)": [-1.0, 0.0, -2.0, 1.0], "(0, 2)": [0.0, 2.0, -1.0, 3.0],
            "(1, inf)": [1.0, 0.5, -1.0], "(0, 1)": [0.0, 1.0, -1.0, 2.0]}


def _must(domain: str) -> str:
    if domain.startswith("("):
        return f"finite and in {domain}"
    return {"finite": "finite", "count": "an integer >= 1"}.get(domain, f"finite and {domain}")


def _in_domain(v: float, domain: str) -> bool:
    if not math.isfinite(v):
        return False
    if domain.startswith("("):
        lo, hi = map(float, domain[1:-1].split(","))
        return lo < v < hi
    return {"finite": True, "non-negative": v >= 0.0, "positive": v > 0.0,
            "count": v >= 1.0 and v == int(v)}[domain]


@pytest.mark.parametrize("site", [*GATED_FIELDS.items(), *GATED_CALLS.items()],
                         ids=[*GATED_FIELDS, *GATED_CALLS])
def test_gate_refuses_with_its_message(site):
    _, (build, name, domain) = site
    for v in [math.nan, math.inf, -math.inf, *_OUTSIDE[domain]]:
        message = f"{name} must be {_must(domain)}, got {v}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(v)


_FLOAT_FIELDS = {key: site for key, site in GATED_FIELDS.items()
                 if site[2] in ("finite", "non-negative", "positive")}


@pytest.mark.parametrize("site", _FLOAT_FIELDS.values(), ids=_FLOAT_FIELDS)
@pytest.mark.parametrize("v", [3, np.float64(0.1), np.float64(5e-324), 1.7976931348623157e308])
def test_gate_returns_python_float_with_same_bits(site, v):
    build, _, _ = site
    got = build(v)
    assert type(got) is float
    assert struct.pack("<d", got) == struct.pack("<d", float(v))


@pytest.mark.parametrize("v, field", [
    (np.float64(1.5), "sas-alpha"), (np.array(1.9999999999999998), "sas-alpha"),
    (np.float32(1.5), "sas-alpha"), (3, "direct-alpha"),
    (1.7976931348623157e308, "direct-alpha"), ("0.1", "direct-epsilon"),
    (np.float64(0.9999999999999999), "direct-epsilon"), (5e-324, "direct-epsilon"),
], ids=["float64", "0-d", "float32", "int", "largest", "numeric-string", "below-one", "tiny"])
def test_interval_field_is_a_python_float(v, field):
    got = GATED_FIELDS[field][0](v)
    assert type(got) is float and got == float(v)


@pytest.mark.parametrize("site", GATED_FIELDS.values(), ids=GATED_FIELDS)
@given(v=st.floats())
@settings(max_examples=100, deadline=None)
def test_gate_accepts_exactly_its_domain(site, v):
    build, name, domain = site
    if _in_domain(v, domain):
        assert struct.pack("<d", build(v)) == struct.pack("<d", v)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {_must(domain)}, got ')}"):
            build(v)


# a bool is the number it stands for, as int() and numpy take it: True is the
# count 1 and False is refused as 0
_COUNTS = st.one_of(
    st.integers(-3, 10**6), st.integers(-3, 10**6).map(float), st.integers(-3, 50).map(np.int64),
    st.floats(), st.booleans(), st.sampled_from([2.5, math.nan, math.inf, 2.0**53]))


@given(v=_COUNTS)
@settings(max_examples=200, deadline=None)
def test_count_gate_accepts_exactly_integers_from_one(v):
    if math.isfinite(v) and v >= 1 and v == int(v):
        got = UniformGrid(0.0, 1.0, v).count
        assert type(got) is int and got == v
    else:
        with pytest.raises(ValueError, match=f"^count must be an integer >= 1, got {re.escape(str(v))}$"):
            UniformGrid(0.0, 1.0, v)


def test_bool_count_is_the_number_it_stands_for():
    got = UniformGrid(0.0, 1.0, True).count
    assert type(got) is int and got == 1
    with pytest.raises(ValueError, match="^count must be an integer >= 1, got False$"):
        UniformGrid(0.0, 1.0, False)


# each a call the parent took without a word, or refused with another error:
# a count that is not an integer was truncated or rounded, and an array in a
# scalar field was stored
@pytest.mark.parametrize("call, message", [
    (lambda: UniformGrid(0.0, 1.0, 2.7), "count must be an integer >= 1, got 2.7"),
    (lambda: sine_coeffs(1.5, 3.9), "count must be an integer >= 1, got 3.9"),
    (lambda: t_sine_series(np.exp, 1.5, 1.0, 2.5), "terms must be an integer >= 1, got 2.5"),
    (lambda: build_rhs(_G, 1.5, 2.5, 1.0, 0.0), "n must be an integer >= 1, got 2.5"),
    (lambda: invert_sphere(_KF, 1.5, 2.5), "n must be an integer >= 1, got 2.5"),
    (lambda: UniformGrid([0.0, 1.0], 1.0, 3), "start must be one number, got shape (2,)"),
    (lambda: QuadSpec(tail_cut=np.array([30.0])), "tail_cut must be one number, got shape (1,)"),
    (lambda: DirectConfig(alpha=2.0, epsilon=np.array([0.1])),
     "epsilon must be one number, got shape (1,)"),
    (lambda: DirectConfig(alpha=2.0, epsilon={}), "epsilon must be finite and in (0, 1), got {}"),
], ids=["grid-count", "coeffs-count", "series-terms", "rhs-n", "sphere-n", "grid-start-array",
        "tail_cut-array", "epsilon-array", "epsilon-not-a-number"])
def test_fault_is_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
