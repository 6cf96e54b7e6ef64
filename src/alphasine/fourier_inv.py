"""Inversion through the Fourier side: triangular solve, band-limited
reconstruction, and mollifier smoothing.

The pipeline, for samples g of the forward transform, a kernel exponent a,
a band cutoff R and N equidistant samples:

  1. estimate the plateau value F f(0) from samples beyond R,
  2. form eta_n = g(nR/2N) - (c_0/2) F f(0),
  3. back-substitute the sparse upper-triangular system to get the Fourier
     samples xi_n = fhat(nR/N),
  4. synthesize f from the band-limited (sinc) or piecewise-linear
     interpolant of fhat, optionally damping with a reconstruction kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoTailSamples, SingularDiagonal
from .grid import SampledFunction, UniformGrid, call_vec
from .oscsum import _uniform_sum
from .specfun import CoefficientTable, as_alpha, sine_coeffs

# Below this |x| R the linear synthesis sums its segments one by one (see
# synthesize).  On noisy N = 400 samples, against a 40-digit sum, the
# summed-by-parts form is off by 1e-10 of max|f| at x R = 0.2 and by under
# 1e-12 from x R = 2 on.
_LINEAR_MIN_XR = 2.0


@dataclass(frozen=True)
class FourierSamples:
    """fhat at the points nR/N for n = 1..N plus the value f0 = fhat(0).

    The even extension fhat(-t) = fhat(t) is implicit.
    """

    xi: np.ndarray
    f0: float
    r: float

    def __post_init__(self):
        arr = np.array(self.xi, dtype=float)
        if arr.ndim != 1 or len(arr) < 1:
            raise ValueError(f"xi must be a non-empty one-dimensional array, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "xi", arr)

    @property
    def n(self) -> int:
        return len(self.xi)

    def knots(self) -> np.ndarray:
        """fhat at 0, R/N, ..., R."""
        return np.concatenate(([self.f0], self.xi))


@dataclass(frozen=True)
class MollifierKind:
    tag: str  # "triangle" | "gaussian"
    gamma: float

    def __post_init__(self):
        if self.tag not in ("triangle", "gaussian"):
            raise ValueError(f"unknown mollifier {self.tag!r}")
        if not (self.gamma > 0.0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")


def estimate_f0(g, alpha, r: float) -> float:
    """Estimate F f(0) as the mean of 2 g(y)/c_0 over samples y > R.

    When the scale parameter of a stable process is known, sas.f0_from_scale
    gives F f(0) instead.
    """
    alpha = as_alpha(alpha)
    if not isinstance(g, SampledFunction):
        raise TypeError("estimate_f0 needs a SampledFunction")
    mask = g.xs > r
    if not np.any(mask):
        raise NoTailSamples(f"no samples beyond R = {r}")
    c0 = sine_coeffs(alpha, 1).coeffs[0]
    return float(np.mean(2.0 * np.real(g.values[mask]) / c0))


def build_rhs(g, alpha, n: int, r: float, f0: float) -> np.ndarray:
    """eta_n = g(nR/2N) - (c_0/2) f0 for n = 1..N."""
    alpha = as_alpha(alpha)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    c0 = sine_coeffs(alpha, 1).coeffs[0]
    y = np.arange(1, n + 1) * (r / (2.0 * n))
    return np.real(call_vec(g.eval if isinstance(g, SampledFunction) else g, y)) - 0.5 * c0 * f0


def solve_xi(coeffs: CoefficientTable, eta) -> np.ndarray:
    """Back substitution in decreasing n of eta = C xi, where C_{n,kn} = c_k
    (the divisor pattern) for n = 1..N = len(eta).

    xi_n = (eta_n - sum_{k=2}^{m} c_k xi_{kn}) / c_1 with m = N // n.  The
    rows of one m, N // (m + 1) < n <= N // m, form a block: each xi_{kn} they
    need has kn >= 2n and so lies in a block of smaller m, solved before.  A
    block is one gather and one matrix-vector product, and there are at most
    2 sqrt(N) blocks; total work O(N log N).
    """
    eta = np.asarray(eta, dtype=float)
    n = len(eta)
    if len(coeffs) < n + 1:
        raise ValueError(f"need coefficients up to index {n}, got {len(coeffs) - 1}")
    c = coeffs.coeffs
    if abs(c[1]) < 1e-14:
        raise SingularDiagonal(
            "c_1 vanishes (alpha = 0): the system carries no information about fhat"
        )
    xi = np.empty(n)
    hi = n
    while hi >= 1:
        m = n // hi
        lo = n // (m + 1) + 1
        acc = eta[lo - 1 : hi]
        if m >= 2:
            rows = np.arange(lo, hi + 1)
            acc = acc - xi[np.outer(rows, np.arange(2, m + 1)) - 1] @ c[2 : m + 1]
        xi[lo - 1 : hi] = acc / c[1]
        hi = lo - 1
    return xi


def _window(fs: FourierSamples, x: np.ndarray) -> np.ndarray:
    """rect(x R / (2 pi N)): 1 inside |x| < pi N / R, 1/2 on the edge, 0 beyond."""
    at = np.abs(x * fs.r / (2.0 * math.pi * fs.n))
    return np.where(at < 0.5, 1.0, np.where(at == 0.5, 0.5, 0.0))


def _linear_segments(knots: np.ndarray, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(1/pi) int_0^R L(t) cos(xt) dt for the piecewise-linear L through
    (t, knots), integrated exactly segment by segment."""
    out = np.empty_like(x)
    zero = x == 0.0
    out[zero] = np.trapezoid(knots, t) / math.pi
    xn = x[~zero][:, None]
    t0, t1 = t[:-1][None, :], t[1:][None, :]
    v0, v1 = knots[:-1][None, :], knots[1:][None, :]
    slope = (v1 - v0) / (t1 - t0)
    # product forms of cos(x t1) - cos(x t0) and v1 sin(x t1) - v0 sin(x t0),
    # which cancel no digits at small x
    mid, half = xn * (0.5 * (t0 + t1)), np.sin(xn * (0.5 * (t1 - t0)))
    seg = ((v1 - v0) * np.sin(xn * t1) + 2.0 * v0 * np.cos(mid) * half) / xn
    seg -= 2.0 * slope * np.sin(mid) * half / (xn * xn)
    out[~zero] = seg.sum(axis=1) / math.pi
    return out


def mollifier_kernel(kind: MollifierKind, y) -> float | np.ndarray:
    """Reconstruction kernel psi_gamma(y) = psi(gamma y); psi(0) = 1.

    triangle: 2(1 - cos u)/u^2 (Fourier transform of the tent mollifier),
    gaussian: exp(-u^2/(4 pi)).
    """
    u = kind.gamma * np.atleast_1d(np.asarray(y, dtype=float))
    if kind.tag == "gaussian":
        out = np.exp(-(u * u) / (4.0 * math.pi))
    else:
        out = np.empty_like(u)
        small = np.abs(u) < 0.1
        u2 = u[small] * u[small]
        out[small] = 1.0 - u2 / 12.0 + u2 * u2 / 360.0 - u2 * u2 * u2 / 20160.0
        ub = u[~small]
        out[~small] = 2.0 * (1.0 - np.cos(ub)) / (ub * ub)
    return float(out[0]) if np.isscalar(y) else out


def synthesize(
    fs: FourierSamples, x, *, interpolation: str = "sinc", mollifier: MollifierKind | None = None
) -> float | np.ndarray:
    """f at x from its Fourier samples, by inverse cosine transform of an
    interpolant of fhat.  x is a scalar, an array, or a UniformGrid; on a
    grid every cosine sum is one chirp-z transform (FFT cost), elsewhere it
    is the dense sum.

    interpolation "sinc" uses the band-limited (cardinal-series) interpolant,
    rect-windowed so the result vanishes identically outside |x| <= pi N / R;
    "linear" integrates the piecewise-linear interpolant on [0, R] exactly,
    so no quadrature tolerance enters the chain.  Summed by parts, its
    v sin(xt)/x terms telescope to v_N sin(xR)/x and its slope terms become
    (1/x^2) sum_n b_n cos(x t_n), b_n the jump in slope at knot n.  That
    form cancels as x -> 0, so where |x| R < _LINEAR_MIN_XR the segments are
    summed one by one instead.  With a mollifier every Fourier sample is
    damped by psi_gamma(nR/N).
    """
    if interpolation not in ("sinc", "linear"):
        raise ValueError(f"interpolation must be 'sinc' or 'linear', got {interpolation!r}")
    xs = x.points() if isinstance(x, UniformGrid) else np.atleast_1d(np.asarray(x, dtype=float))
    at = x if isinstance(x, UniformGrid) else xs
    dt = fs.r / fs.n
    t = np.arange(0, fs.n + 1) * dt
    knots = fs.knots()
    if mollifier is not None:
        knots = knots * mollifier_kernel(mollifier, t)
    if interpolation == "sinc":
        acc = knots[0] + 2.0 * _uniform_sum(knots[1:], dt, dt, at, 1.0).real
        out = _window(fs, xs) * ((fs.r / (2.0 * math.pi * fs.n)) * acc)
    else:
        slope = np.diff(knots) / dt
        jumps = -np.diff(slope, prepend=0.0, append=0.0)
        small = np.abs(xs) * fs.r < _LINEAR_MIN_XR
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (knots[-1] * np.sin(xs * fs.r) / xs
                   + _uniform_sum(jumps, 0.0, dt, at, 1.0).real / (xs * xs)) / math.pi
        out[small] = _linear_segments(knots, t, xs[small])
    return float(out[0]) if np.isscalar(x) else out


def invert_fourier(
    g,
    alpha,
    n: int,
    r: float,
    out_grid: UniformGrid,
    *,
    f0_override: float | None = None,
    interpolation: str = "sinc",
    mollifier: MollifierKind | None = None,
) -> SampledFunction:
    """Full chain: estimate f0, build eta, solve for xi, synthesize f (see
    synthesize for interpolation and mollifier)."""
    alpha = as_alpha(alpha)
    if not (r > 0.0):
        raise ValueError(f"r must be positive, got {r}")
    f0 = estimate_f0(g, alpha, r) if f0_override is None else float(f0_override)
    eta = build_rhs(g, alpha, n, r, f0)
    xi = solve_xi(sine_coeffs(alpha, n), eta)
    vals = synthesize(FourierSamples(xi, f0, r), out_grid,
                      interpolation=interpolation, mollifier=mollifier)
    return SampledFunction(out_grid, vals)
