"""The paper's examples.  On the half-line: three functions and the closed
forms of the Fourier transforms fhat(t) = int_R f(|x|) e^{-ixt} dx of their
even extensions, a Gaussian, x^2 e^{-x} and the slowly decaying
(1 + x^2)^{-2}.  On the circle: three pi-periodic densities, a shifted
|sin|, a four-fold von Mises and an axial Watson density."""

import math

import numpy as np

from .grid import SampledFunction, UniformGrid
from .sphere import PeriodicDensity, circle_grid


def f1(x):
    return np.exp(-np.asarray(x, dtype=float) ** 2)


def f2(x):
    x = np.asarray(x, dtype=float)
    return x * x * np.exp(-np.abs(x))


def f3(x):
    return (1.0 + np.asarray(x, dtype=float) ** 2) ** -2.0


def fhat1(t):
    return math.sqrt(math.pi) * np.exp(-np.asarray(t, dtype=float) ** 2 / 4.0)


def fhat2(t):
    t = np.asarray(t, dtype=float)
    return 4.0 * (1.0 - 3.0 * t * t) / (1.0 + t * t) ** 3


def fhat3(t):
    t = np.abs(np.asarray(t, dtype=float))
    return math.pi / 2.0 * (1.0 + t) * np.exp(-t)


# name -> (f, fhat); the builtins of `alphasine forward --f`
BUILTINS = {"f1": (f1, fhat1), "f2": (f2, fhat2), "f3": (f3, fhat3)}


def _normalized_density(values: np.ndarray, grid: UniformGrid, certified: bool) -> PeriodicDensity:
    step_mass = 2.0 * math.pi / grid.count
    values = values / (step_mass * float(np.sum(values)))
    return PeriodicDensity(SampledFunction(grid, values), certified_pi_periodic=certified)


def shifted_sine_density(h: float, m: int = 512) -> PeriodicDensity:
    """|sin(x - h)|/4, renormalized so the grid trapezoid mass is exactly 1."""
    grid = circle_grid(m)
    return _normalized_density(np.abs(np.sin(grid.points() - h)) / 4.0, grid, True)


def vonmises4_density(h: float, m: int = 512) -> PeriodicDensity:
    """exp(cos(4(x - h))) with numerical normalization."""
    grid = circle_grid(m)
    return _normalized_density(np.exp(np.cos(4.0 * (grid.points() - h))), grid, True)


def watson_density(mu: float, kappa: float, m: int = 512) -> PeriodicDensity:
    """Axial density exp(kappa cos^2(x - mu)) / (2 pi M(1/2, 1, kappa)), with
    M(1/2, 1, kappa) = e^{kappa/2} I_0(kappa/2); the grid sum supplies the
    normalization.  kappa = 0 gives the uniform density.
    """
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    grid = circle_grid(m)
    vals = np.exp(kappa * np.cos(grid.points() - mu) ** 2)
    return _normalized_density(vals, grid, True)
