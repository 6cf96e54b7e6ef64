"""Gamma-based special functions and the cosine-expansion coefficients of |sin|^a kernels.

Everything here is a pure function of its arguments; results are plain floats
or small immutable containers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .grid import _scalar

EVEN_INT_TOL = 1e-12
# c_0's log is a difference of log-gammas of size a ln a, each rounded to a
# part in 2^53 of its size; past this a that leaves c_0 under half its digits
_C0_ALPHA_MAX = 4e6


def as_alpha(a) -> float:
    """The kernel exponent a as a Python float, refused unless in (-1, inf)."""
    return _scalar(a, "alpha", "(-1, inf)")


def _near_even(a: float) -> bool:
    """True for a within 1e-12 of {0, 2, 4, ...}, where the circle route's
    kernel coefficients vanish or nearly so beyond a/2."""
    k = round(a)
    return k >= 0 and k % 2 == 0 and abs(a - k) <= EVEN_INT_TOL


def _exactly_even(a: float) -> bool:
    """True only for a exactly in {0, 2, 4, ...}, where the cosine expansion
    of |sin|^a ends after a/2 + 1 terms.  A nearby a keeps its infinite tail."""
    return a >= 0.0 and a % 2.0 == 0.0


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients c_0..c_J of the cosine expansion of (1/2)|sin(x/2)|^a,
    or of the |cos| kernel, whose coefficients carry the extra sign (-1)^j."""

    coeffs: np.ndarray

    def __post_init__(self):
        # a copy, so that freezing it leaves the caller's array writable
        arr = np.array(self.coeffs, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __len__(self) -> int:
        return len(self.coeffs)


def leading_coefficient(alpha) -> float:
    """c_0 = Gamma(1+a) / (2^a Gamma(a/2+1)^2), refused past _C0_ALPHA_MAX."""
    a = as_alpha(alpha)
    if a > _C0_ALPHA_MAX:
        raise ValueError(f"alpha = {a} is too large: c_0 would keep under half its digits")
    return math.exp(math.lgamma(1.0 + a) - a * math.log(2.0) - 2.0 * math.lgamma(0.5 * a + 1.0))


def sine_coeffs(alpha, count: int) -> CoefficientTable:
    """Coefficients c_0..c_count for the sine kernel.

    c_0 comes from the closed gamma form; the rest follow the ratio recurrence
    c_1 = -c_0 a/(a+2), c_{j+1} = c_j (j - a/2)/(j + 1 + a/2), which avoids
    gamma evaluations at negative arguments.  At a exactly 2k the exact
    binomial branch is taken: c_j = (-1)^j binom(2k, k-j)/4^k for j <= k and
    0 beyond, up to a = 1022, past which 4^k overflows; a larger 2k takes the
    recurrence, whose factor j - a/2 is exactly 0 at j = k.  An a merely near
    2k takes the recurrence, whose small factor (a in c_1 at k = 0, j - a/2
    at j = k >= 1) is exact, so the tail beyond c_k keeps its true small size
    instead of being snapped to 0.
    """
    a = as_alpha(alpha)
    count = _scalar(count, "count", "count")
    # at |a| < 2^-1021 the tail from c_1 = -c_0 a/(a+2) on lies below the
    # normal floats, where it would hold too few digits to be a table
    if (_exactly_even(a) and a <= 1022.0) or abs(a) < 2.0 * sys.float_info.min:
        k = round(a) // 2
        c = np.zeros(count + 1)
        for j in range(0, min(k, count) + 1):
            c[j] = (-1) ** j * math.comb(2 * k, k - j) / 4.0**k
        return CoefficientTable(c)
    c = np.empty(count + 1)
    c[0] = leading_coefficient(a)
    c[1] = -c[0] * a / (a + 2.0)
    if count >= 2:
        j = np.arange(1, count, dtype=float)
        c[2:] = c[1] * np.cumprod((j - 0.5 * a) / (j + 1.0 + 0.5 * a))
    return CoefficientTable(c)


def cosine_coeffs(alpha, count: int) -> CoefficientTable:
    """Coefficients for the |cos| kernel: the sine coefficients with sign (-1)^j."""
    table = sine_coeffs(alpha, count)
    signs = np.where(np.arange(len(table)) % 2 == 0, 1.0, -1.0)
    return CoefficientTable(signs * table.coeffs)


def sin_power_integral(alpha) -> float:
    """C_a = integral of |sin u|^a over [0, pi] = sqrt(pi) Gamma((1+a)/2) / Gamma(1+a/2)."""
    a = as_alpha(alpha)
    return math.exp(0.5 * math.log(math.pi) + math.lgamma(0.5 * (1.0 + a)) - math.lgamma(1.0 + 0.5 * a))


def lambda_alpha(alpha) -> float:
    """Mean of |cos x|^a over a full period, C_a / pi."""
    return sin_power_integral(alpha) / math.pi


# B_2k / (2k (2k - 1)), k = 1..8: the Stirling series of log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)


def _log_gamma(w: np.ndarray) -> np.ndarray:
    """log Gamma(w) for complex w with Re w > 0, on the branch continuous from
    the positive axis: the Stirling series at v = w + n with Re v >= 10, minus
    the logs of w, w + 1, ..., w + n - 1."""
    w = np.asarray(w, dtype=complex)
    n = max(0, math.ceil(10.0 - float(np.min(w.real, initial=10.0))))
    shift = sum(np.log(w + k) for k in range(n))
    v = w + n
    inv2 = 1.0 / (v * v)
    series = 0.0
    for coef in reversed(_STIRLING):
        series = series * inv2 + coef
    return (v - 0.5) * np.log(v) - v + 0.5 * math.log(2.0 * math.pi) + series / v - shift


def _digamma(x: float) -> float:
    """psi(x) for real x > 0: the recurrence psi(x) = psi(x + 1) - 1/x up to
    x >= 10, then the asymptotic series ln x - 1/(2x) - sum_k B_2k / (2k x^2k),
    whose coefficients B_2k / 2k are _STIRLING[k - 1] (2k - 1)."""
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    for k in range(len(_STIRLING), 0, -1):
        series = series * inv2 + _STIRLING[k - 1] * (2 * k - 1)
    return math.log(x) - 0.5 / x - series * inv2 - shift


def operator_norm_bound(alpha) -> float:
    """Upper bound for the transform's operator norm at -1 < a < 0,
    C_a (1/pi + 1) + c_0 (1 - a/(a+2) * 3F2[1-a/2, 1, 1; a/2+2, 2; 1]).  Gauss's
    reduction makes the 3F2 ((a+2)/(-a)) (psi(1+a/2) - psi(1+a)), so the a/(a+2)
    cancels and the bound is C_a (1/pi + 1) + c_0 (1 + psi(1+a/2) - psi(1+a)).
    """
    a = _scalar(alpha, "alpha", "(-1, 0)")
    c0 = leading_coefficient(a)
    return (sin_power_integral(a) * (1.0 / math.pi + 1.0)
            + c0 * (1.0 + _digamma(1.0 + 0.5 * a) - _digamma(1.0 + a)))
