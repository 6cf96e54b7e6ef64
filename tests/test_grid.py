"""Sampled-function carrier: interpolation and extrapolation; the one gate
for scalar parameters."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphasine.examples import watson_density
from alphasine.fourier_inv import FourierSamples, MollifierKind, invert_fourier
from alphasine.grid import SampledFunction, UniformGrid, call_vec
from alphasine.quad import QuadSpec
from alphasine.sas import SasParams

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
    "quad-abs_tol": (lambda v: QuadSpec(abs_tol=v).abs_tol, "abs_tol", "positive"),
    "quad-rel_tol": (lambda v: QuadSpec(rel_tol=v).rel_tol, "rel_tol", "positive"),
    "quad-tail_cut": (lambda v: QuadSpec(tail_cut=v).tail_cut, "tail_cut", "positive"),
    "samples-r": (lambda v: FourierSamples([1.0], 0.0, v).r, "r", "positive"),
    "samples-f0": (lambda v: FourierSamples([1.0], v, 1.0).f0, "f0", "finite"),
    "mollifier-gamma": (lambda v: MollifierKind("triangle", v).gamma, "gamma", "positive"),
    # at a = 0.5, 2 sigma^a is finite for every finite sigma
    "sas-sigma": (lambda v: SasParams(v, 0.5).sigma, "sigma", "positive"),
}
# the functions that take a scalar through it, with its name and domain
_G = SampledFunction(UniformGrid(0.0, 0.5, 9), np.exp(-np.arange(9.0)))
GATED_CALLS = {
    "watson-kappa": (lambda v: watson_density(0.0, v, m=8), "kappa", "non-negative"),
    "invert-f0": (lambda v: invert_fourier(_G, 1.5, 4, 1.0, UniformGrid(0.0, 0.5, 3),
                                           f0_override=v), "f0", "finite"),
}
_OUTSIDE = {"finite": [], "non-negative": [-1.0, -5e-324], "positive": [0.0, -0.0, -1.0]}


def _in_domain(v: float, domain: str) -> bool:
    return math.isfinite(v) and {"finite": True, "non-negative": v >= 0.0,
                                 "positive": v > 0.0}[domain]


@pytest.mark.parametrize("site", [*GATED_FIELDS.items(), *GATED_CALLS.items()],
                         ids=[*GATED_FIELDS, *GATED_CALLS])
def test_gate_refuses_with_its_message(site):
    _, (build, name, domain) = site
    must = domain if domain == "finite" else f"finite and {domain}"
    for v in [math.nan, math.inf, -math.inf, *_OUTSIDE[domain]]:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {must}, got {v}')}$"):
            build(v)


@pytest.mark.parametrize("site", GATED_FIELDS.values(), ids=GATED_FIELDS)
@pytest.mark.parametrize("v", [3, np.float64(0.1), np.float64(5e-324), 1.7976931348623157e308])
def test_gate_returns_python_float_with_same_bits(site, v):
    build, _, _ = site
    got = build(v)
    assert type(got) is float
    assert struct.pack("<d", got) == struct.pack("<d", float(v))


@pytest.mark.parametrize("site", GATED_FIELDS.values(), ids=GATED_FIELDS)
@given(v=st.floats())
@settings(max_examples=100, deadline=None)
def test_gate_accepts_exactly_its_domain(site, v):
    build, _, domain = site
    if _in_domain(v, domain):
        assert struct.pack("<d", build(v)) == struct.pack("<d", v)
    else:
        with pytest.raises(ValueError, match=" must be finite"):
            build(v)

