"""Sampled-function carrier: interpolation and extrapolation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphasine.grid import SampledFunction, UniformGrid, call_vec

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
