"""Deterministic bridge between the codifference of a stationary harmonizable
symmetric stable process and the sine-kernel transform of its spectral density.

Estimation of (sigma, alpha, tau) from sample paths is out of scope; the
formulas here convert between known quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specfun import Alpha, as_alpha, lambda_alpha


@dataclass(frozen=True)
class SasParams:
    sigma: float
    alpha: Alpha

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_alpha(self.alpha))
        if not (self.sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not (0.0 < self.alpha.value < 2.0):
            raise ValueError(
                f"stability index must lie in (0, 2), got {self.alpha.value}"
            )


def f0_from_scale(p: SasParams) -> float:
    """Total spectral mass F f(0) = sigma^a / lambda_a."""
    return p.sigma ** p.alpha.value / lambda_alpha(p.alpha)


def g_from_codifference(tau, p: SasParams, t: float | np.ndarray) -> np.ndarray:
    """g(t) = (2 sigma^a - tau(2t)) / (2^{a+1} lambda_a) at each t > 0; equals
    the sine transform of the spectral density at t.  tau is the codifference
    as a callable, or its values at 2t."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise ValueError(f"t must be positive, got {np.min(t)}")
    tau_2t = np.asarray(tau(2.0 * t) if callable(tau) else tau, dtype=float)
    a = p.alpha.value
    return (2.0 * p.sigma**a - tau_2t) / (2.0 ** (a + 1.0) * lambda_alpha(p.alpha))

