"""Uniform grids, sampled functions with linear interpolation, and how points
enter a user's f (call_vec), a function of a point (_pointwise) or a number (_scalar).

Evaluation outside the grid span uses constant extrapolation with the nearest
endpoint value; both containers are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class UniformGrid:
    start: float
    step: float
    count: int

    def __post_init__(self):
        for name, domain in (("start", "finite"), ("step", "positive"), ("count", "count")):
            object.__setattr__(self, name, _scalar(getattr(self, name), name, domain))

    @property
    def last(self) -> float:
        return self.start + (self.count - 1) * self.step

    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    @classmethod
    def from_span(cls, start: float, stop: float, count: int) -> "UniformGrid":
        if count < 2:
            return cls(start, max(stop - start, 1.0), count)
        return cls(start, (stop - start) / (count - 1), count)


@dataclass(frozen=True)
class SampledFunction:
    grid: UniformGrid
    values: np.ndarray
    # the grid's abscissae, built once and read-only like values
    xs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.values)
        if not np.iscomplexobj(arr):
            arr = arr.astype(float)
        if arr.ndim != 1 or len(arr) != self.grid.count:
            raise ValueError(f"expected {self.grid.count} values, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample values must be finite")
        arr = arr.copy()
        xs = self.grid.points()
        for name, a in (("values", arr), ("xs", xs)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def eval(self, x):
        """Piecewise-linear inside the span, nearest endpoint value outside."""
        return np.interp(x, self.xs, self.values)


def call_vec(f, x: np.ndarray) -> np.ndarray:
    """f at every point of x: one call on the whole array when f accepts
    arrays, else a loop over the points.  The values keep f's own dtype."""
    try:
        out = np.asarray(f(x))
        if out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([f(v) for v in x])


# each named domain: its test, which NaN and +-inf fail, and refusal words
_DOMAINS = {
    "finite": (np.isfinite, "finite"),
    "non-negative": (lambda v: (v >= 0.0) & (v < np.inf), "finite and non-negative"),
    "positive": (lambda v: (v > 0.0) & (v < np.inf), "finite and positive"),
    "count": (lambda v: (v >= 1.0) & (v < np.inf) & (v == np.floor(v)), "an integer >= 1"),
}


def _pointwise(engine, x, name: str, domain: str = "finite"):
    """engine at the points x, taken as a float array and flattened for one
    engine call.  An entry that is not a number, NaN, infinite or outside the
    domain (a key of _DOMAINS or an open interval "(lo, hi)") is refused,
    naming x if it is one number, else the first such entry.  A scalar or
    0-d x gives a Python float or complex, other x an array of its shape.
    """
    if domain.startswith("("):
        lo, hi = map(float, domain[1:-1].split(","))
        inside, must = (lambda v: (v > lo) & (v < hi)), f"finite and in {domain}"
    else:
        inside, must = _DOMAINS[domain]
    try:
        xs = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        xs = np.array(np.nan)  # refused below, x as given
    flat = xs.reshape(-1)
    ok = inside(flat)
    if not ok.all():
        raise ValueError(f"{name} must be {must}, got {x if xs.ndim == 0 else flat[~ok][0]}")
    out = np.asarray(engine(flat)).reshape(xs.shape)
    return out if out.shape else out.item()


def _scalar(x, name: str, domain: str = "finite"):
    """The one number x as a Python float, or an int in the domain "count",
    refused as _pointwise refuses a point."""
    v = _pointwise(lambda v: v, x, name, domain)
    if isinstance(v, np.ndarray):
        raise ValueError(f"{name} must be one number, got shape {v.shape}")
    return int(v) if domain == "count" else v
