"""Uniform grids, sampled functions with linear interpolation, and how points
enter a user's f (call_vec), a function of a point (_pointwise) or a field (_scalar).

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
        object.__setattr__(self, "start", _scalar(self.start, "start"))
        object.__setattr__(self, "step", _scalar(self.step, "step", "positive"))
        if int(self.count) < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        object.__setattr__(self, "count", int(self.count))

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


def _pointwise(engine, x, name: str, domain: str = "finite"):
    """engine at the points x, taken as a float array and flattened for one
    engine call.  An entry that is NaN, infinite or outside the domain
    ("finite", "non-negative" or "positive") is refused, naming the first.  A
    scalar or 0-d x gives a Python float or complex, other x an array of its shape.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    ok = np.isfinite(flat)
    if domain != "finite":
        ok &= (flat > 0.0) if domain == "positive" else (flat >= 0.0)
    if not ok.all():
        must = domain if domain == "finite" else f"finite and {domain}"
        raise ValueError(f"{name} must be {must}, got {flat[~ok][0]}")
    out = np.asarray(engine(flat)).reshape(xs.shape)
    return out if out.shape else out.item()


def _scalar(x, name: str, domain: str = "finite") -> float:
    """The number x as a Python float, refused as _pointwise refuses a point."""
    return _pointwise(lambda v: v, x, name, domain)
