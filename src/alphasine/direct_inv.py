"""Direct inversion for kernel exponents a > 1 via the multiplicative group.

Working in logarithmic coordinates turns the three operators into oscillatory
integrals with linear phase:

  mu(x)  = int_0^inf |sin t|^a t^{-(c+1)/2} e^{i ln(t) ln(x)} dt
  H g(x) = int_0^inf y^{(c-3)/2 - i ln x} g(1/y) dy
  H2 w(z) = (z^{-(c+1)/2} / 2 pi) int_0^inf w(x) x^{i ln z - 1} dx

and the estimate is H2 [ (1/mu) 1{|mu| > eps} H g ].  On the uniform mu grid
H g is a chirp-z transform of the uniform u = ln y samples.  mu is the Mellin
transform of |sin t|^a at z = 1 - s + i ln x, s = (c+1)/2.  The cosine series
|sin t|^a = c_0 + 2 sum c_j cos 2jt, integrated termwise in the strip
-2 < Re z < 0 where the constant drops out, gives it in closed form:
mu = pi 2^{-z} sum_{j>=1} c_j j^{-z} / (Gamma(1-z) sin(pi z / 2)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShortSampleRange
from .grid import SampledFunction, UniformGrid, _pointwise, _scalar
from .oscsum import _osc_sum, _uniform_sum
from .specfun import _exactly_even, _log_gamma, sine_coeffs

_MU_GRID_DEFAULT = UniformGrid(-24.0, 48.0 / 6144.0, 6145)
# coefficients summed directly in mu; the rest is the Euler-Maclaurin tail
_MU_TERMS = 400
# up to this a the tail stays below e^-150 of the sum; near a = 2170 it overflows
_MU_ALPHA_MAX = 2000.0


@dataclass(frozen=True)
class DirectConfig:
    alpha: float
    epsilon: float = 0.025
    mu_grid: UniformGrid | None = None
    # inert: only keys the mu table cache, which a caller may shift to force a fresh table
    t_cut: float = 0.0

    def __post_init__(self):
        for name, domain in (("alpha", "(1, inf)"), ("epsilon", "(0, 1)")):
            object.__setattr__(self, name, _scalar(getattr(self, name), name, domain))
        if self.mu_grid is None:
            object.__setattr__(self, "mu_grid", _MU_GRID_DEFAULT)

    @property
    def weight_exponent(self) -> float:
        """Weight exponent c: as large as allowed (2a - 1) below a = 2, else 3.

        Larger c speeds up the decay of the mu integrand, but exponents above
        3 make the H integral numerically unwieldy.
        """
        return 2.0 * self.alpha - 1.0 if self.alpha < 2.0 else 3.0

    @property
    def s_exponent(self) -> float:
        return 0.5 * (self.weight_exponent + 1.0)


def _log_sin(w: np.ndarray) -> np.ndarray:
    """A log of sin(w), finite at any Im w: sin w = (i/2) e^{-iw} (1 - e^{2iw}),
    with |e^{2iw}| <= 1 when Im w >= 0, and sin(conj w) = conj(sin w)."""
    flip = w.imag < 0.0
    v = np.where(flip, np.conj(w), w)
    out = -1j * v + complex(-math.log(2.0), 0.5 * math.pi) + np.log(-np.expm1(2j * v))
    return np.where(flip, np.conj(out), out)


def _power_tail(p: np.ndarray, n: int, log_scale: float) -> np.ndarray:
    """e^log_scale sum_{j > n} j^{-p} for Re p > 1, by Euler-Maclaurin at n,
    the scale taken into n^{-p}'s exponent so that a huge one stays finite."""
    return np.exp(log_scale - p * math.log(n)) * (n / (p - 1.0) - 0.5 + p / (12.0 * n)
                                                   - p * (p + 1.0) * (p + 2.0) / (720.0 * n**3))


def _mu_values(a: float, c: float, omegas: np.ndarray) -> np.ndarray:
    """mu at omega = ln x by the closed form.

    The sum takes j <= _MU_TERMS directly (only j <= a/2 at even a).  Beyond,
    c_j = K j^{-1-a} (1 + b / j^2 + O(j^-4)) with K = -Gamma(a+1) sin(pi a/2)
    / (pi 2^a) and b = a(1+a)(2+a)/24, summed in closed form; Gamma(a+1)/2^a
    overflows from a = 196.8 on, so its log joins the exponent of the tail's
    tiny _MU_TERMS^{-p}, and a past _MU_ALPHA_MAX is refused.  The factors
    Gamma(1-z) and sin(pi z/2) each leave the float range past |omega| = 452,
    so their product is formed in log space.  The coefficient sum is real at
    each j, so it is summed once at each |omega| and conjugated for omega < 0.
    """
    s = 0.5 * (c + 1.0)
    coeffs = sine_coeffs(a, _MU_TERMS).coeffs
    if a > _MU_ALPHA_MAX:
        raise ValueError(f"alpha = {a} is too large: mu's tail holds up to a = {_MU_ALPHA_MAX:g}")
    j = np.flatnonzero(coeffs[1:]) + 1
    mags, at = np.unique(np.abs(omegas), return_inverse=True)
    total = _osc_sum(np.log(j), coeffs[j] * j ** (s - 1.0), mags, -1.0)[at]
    total = np.where(omegas < 0.0, np.conj(total), total)
    if not _exactly_even(a):
        log_k = math.lgamma(a + 1.0) - a * math.log(2.0)
        p = (2.0 + a - s) + 1j * omegas
        b = a * (1.0 + a) * (2.0 + a) / 24.0
        total -= (math.sin(0.5 * math.pi * a) / math.pi) * (
            _power_tail(p, _MU_TERMS, log_k) + b * _power_tail(p + 2.0, _MU_TERMS, log_k))
    z = (1.0 - s) + 1j * omegas
    log_scale = -z * math.log(2.0) - _log_gamma(1.0 - z) - _log_sin(0.5 * math.pi * z)
    return math.pi * np.exp(log_scale) * total


def mu(x, cfg: DirectConfig):
    """The multiplier at each x > 0 (points as in grid._pointwise)."""
    return _pointwise(lambda xs: _mu_values(cfg.alpha, cfg.weight_exponent, np.log(xs)),
                      x, "x", "positive")


# keyed on the quantities mu depends on, and t_cut, so changing eps reuses the table
@lru_cache(maxsize=8)
def _mu_table_values(alpha_value: float, c: float, t_cut: float, grid: UniformGrid) -> np.ndarray:
    vals = _mu_values(alpha_value, c, grid.points())
    vals.setflags(write=False)
    return vals


def mu_table(cfg: DirectConfig) -> SampledFunction:
    """mu tabulated on the log-uniform grid (abscissae are omega = ln x)."""
    return SampledFunction(
        cfg.mu_grid, _mu_table_values(cfg.alpha, cfg.weight_exponent, cfg.t_cut, cfg.mu_grid))


def _h_values(g: SampledFunction, cfg: DirectConfig, at) -> np.ndarray:
    """H g at each omega = ln x of `at`: a UniformGrid (one chirp-z
    transform) or an array (the blocked sum).

    In u = ln(y) the integrand is e^{(p - i omega) u} g(e^{-u}), p = (c-1)/2,
    summed by the trapezoid rule on a uniform u grid.  g(1/y) is its last
    sample for y below 1/x_last (constant extrapolation), so the grid starts
    at u = -ln(x_last) and the integral over u below it is
    g_last e^{(p - i omega) u_0} / (p - i omega) in closed form.  The grid
    ends at u = 20, so x_last must lie above e^-20 for it to hold two points.
    """
    p = 0.5 * (cfg.weight_exponent - 1.0)
    u_hi = 20.0
    x_last = g.grid.last
    u_const = -math.log(x_last) if x_last > 0.0 else math.inf
    if not u_const < u_hi:
        raise ShortSampleRange(
            f"H g needs samples of g beyond x = e^-{u_hi:g}, so that its u = ln y grid from "
            f"-ln x_last to {u_hi:g} has two points; the last abscissa is {x_last:.6g}")
    du = 1.0 / 1024.0
    n = int(math.ceil((u_hi - u_const) / du)) + 1
    u = u_const + du * np.arange(n)
    trap = np.full(n, du)
    trap[0] = trap[-1] = 0.5 * du
    weights = np.exp(p * u) * np.real(g.eval(np.exp(-u))) * trap
    omegas = at.points() if isinstance(at, UniformGrid) else at
    g_last = float(np.real(g.values[-1]))
    return (_uniform_sum(weights, u[0], du, at, -1.0)
            + g_last * np.exp((p - 1j * omegas) * u[0]) / (p - 1j * omegas))


def h_forward(g: SampledFunction, x, cfg: DirectConfig):
    """H g at each x > 0 (points as in grid._pointwise); g is linearly
    interpolated, constant beyond."""
    return _pointwise(lambda xs: _h_values(g, cfg, np.log(xs)), x, "x", "positive")


def _h2_values(w_vals: np.ndarray, cfg: DirectConfig, zs: np.ndarray) -> np.ndarray:
    """Real part of H2 w at each z; warns when the imaginary residue exceeds
    1% of the largest real value, which signals an inconsistent w."""
    grid = cfg.mu_grid
    trap = np.full(grid.count, grid.step)
    trap[0] = trap[-1] = 0.5 * grid.step
    w = w_vals * trap
    # w vanishes outside the cutoff set, one contiguous span: sum only over it
    nonzero = np.flatnonzero(w)
    span = slice(nonzero[0], nonzero[-1] + 1) if len(nonzero) else slice(0, 0)
    acc = _uniform_sum(w[span], grid.start + span.start * grid.step, grid.step, np.log(zs), +1.0)
    out = zs ** (-cfg.s_exponent) / (2.0 * math.pi) * acc
    re, im = np.real(out), np.imag(out)
    scale = np.max(np.abs(re)) if len(re) else 0.0
    if scale > 0.0 and np.max(np.abs(im)) > 1e-2 * scale:
        # h2_inverse and invert_direct both call this through a lambda and
        # grid._pointwise, so level 5 is their caller
        warnings.warn(f"H2 imaginary residue up to {np.max(np.abs(im)):.3e}", stacklevel=5)
    return re


def h2_inverse(w, z, cfg: DirectConfig):
    """The real part of H2 applied to the values w on the mu grid, at each
    z > 0 (points as in grid._pointwise).  A warning reports any significant
    imaginary residue, which signals an inconsistent w."""
    w_vals = np.asarray(w)
    if w_vals.shape != (cfg.mu_grid.count,):
        raise ValueError(f"expected {cfg.mu_grid.count} values on the mu grid, got shape {w_vals.shape}")
    return _pointwise(lambda zs: _h2_values(w_vals.astype(complex), cfg, zs), z, "z", "positive")


def invert_direct(g: SampledFunction, cfg: DirectConfig, out_grid: UniformGrid) -> SampledFunction:
    """Estimate f from samples of its transform: H2 [(1/mu) 1{|mu|>eps} H g].

    Deterministic for a fixed config; warns when the cutoff set {|mu| > eps}
    is empty or reaches the edge of the tabulation grid.
    """
    # first, so that g's samples are refused before mu is tabulated
    hg = _h_values(g, cfg, cfg.mu_grid)
    mu_vals = _mu_table_values(cfg.alpha, cfg.weight_exponent, cfg.t_cut, cfg.mu_grid)
    keep = np.abs(mu_vals) > cfg.epsilon
    if not np.any(keep):
        warnings.warn("the set {|mu| > eps} is empty: the estimate is identically zero", stacklevel=2)
    elif keep[0] or keep[-1]:
        warnings.warn(
            "|mu| exceeds eps at the tabulation boundary; widen mu_grid", stacklevel=2
        )
    w = np.where(keep, hg / np.where(keep, mu_vals, 1.0), 0.0)
    vals = _pointwise(lambda zs: _h2_values(w, cfg, zs), out_grid.points(), "output grid", "positive")
    return SampledFunction(out_grid, vals)
