"""Deterministic bridge between the codifference of a stationary harmonizable
symmetric stable process and the sine-kernel transform of its spectral density.

Estimation of (sigma, alpha, tau) from sample paths is out of scope; the
formulas here convert between known quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import _pointwise, _scalar
from .specfun import Alpha, as_alpha, lambda_alpha


@dataclass(frozen=True)
class SasParams:
    sigma: float
    alpha: Alpha

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_alpha(self.alpha))
        object.__setattr__(self, "sigma", _scalar(self.sigma, "sigma", "positive"))
        a = self.alpha.value
        if not (0.0 < a < 2.0):
            raise ValueError(f"stability index must lie in (0, 2), got {a}")
        try:
            math.ldexp(self.sigma**a, 1)  # g and f0 take 2 sigma^a
        except OverflowError:
            raise ValueError(f"sigma = {self.sigma} overflows 2 sigma**alpha at alpha = {a}") from None


def f0_from_scale(p: SasParams) -> float:
    """Total spectral mass F f(0) = sigma^a / lambda_a."""
    return p.sigma ** p.alpha.value / lambda_alpha(p.alpha)


def g_from_codifference(tau, p: SasParams, t):
    """g(t) = (2 sigma^a - tau(2t)) / (2^{a+1} lambda_a) at each t > 0 (points
    as in grid._pointwise); equals the sine transform of the spectral density
    at t.  tau is the codifference as a callable, or its values at 2t."""
    a = p.alpha.value

    def g(ts: np.ndarray) -> np.ndarray:
        tau_2t = np.broadcast_to(np.ravel(tau(2.0 * ts) if callable(tau) else tau), ts.shape)
        return (2.0 * p.sigma**a - tau_2t) / (2.0 ** (a + 1.0) * lambda_alpha(p.alpha))

    return _pointwise(g, t, "t", "positive")
