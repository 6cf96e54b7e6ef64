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
from .specfun import CoefficientTable, as_alpha, sine_coeffs


@dataclass(frozen=True)
class FourierSamples:
    """fhat at the points nR/N for n = 1..N plus the value f0 = fhat(0).

    The even extension fhat(-t) = fhat(t) is implicit.
    """

    xi: np.ndarray
    f0: float
    r: float
    n: int

    def __post_init__(self):
        arr = np.asarray(self.xi, dtype=float)
        if len(arr) != self.n:
            raise ValueError(f"expected {self.n} xi values, got {len(arr)}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "xi", arr)

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

    xi_n = (eta_n - sum_{k>=2, kn<=N} c_k xi_{kn}) / c_1; total work
    O(N log N).
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
    xi = np.zeros(n)
    for row in range(n, 0, -1):
        kmax = n // row
        acc = eta[row - 1]
        if kmax >= 2:
            idx = np.arange(2 * row, kmax * row + 1, row) - 1
            acc -= float(np.dot(c[2 : kmax + 1], xi[idx]))
        xi[row - 1] = acc / c[1]
    return xi


def _rect(t: np.ndarray) -> np.ndarray:
    at = np.abs(t)
    return np.where(at < 0.5, 1.0, np.where(at == 0.5, 0.5, 0.0))


def _window(fs: FourierSamples, x: np.ndarray) -> np.ndarray:
    return _rect(x * fs.r / (2.0 * math.pi * fs.n))


def _cosine_sum(fs: FourierSamples, x: np.ndarray, damping: np.ndarray | None) -> np.ndarray:
    """(R/2piN) [w_0 f0 + 2 sum_n w_n xi_n cos(x nR/N)]; real by evenness."""
    freqs = np.arange(1, fs.n + 1) * (fs.r / fs.n)
    xi = fs.xi if damping is None else fs.xi * damping[1:]
    f0 = fs.f0 if damping is None else fs.f0 * damping[0]
    acc = f0 + 2.0 * (np.cos(np.outer(x, freqs)) @ xi)
    return (fs.r / (2.0 * math.pi * fs.n)) * acc


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
    interpolant of fhat.

    interpolation "sinc" uses the band-limited (cardinal-series) interpolant,
    rect-windowed so the result vanishes identically outside |x| <= pi N / R;
    "linear" integrates the piecewise-linear interpolant on [0, R] exactly,
    segment by segment, so no quadrature tolerance enters the chain.  With a
    mollifier every Fourier sample is damped by psi_gamma(nR/N).
    """
    if interpolation not in ("sinc", "linear"):
        raise ValueError(f"interpolation must be 'sinc' or 'linear', got {interpolation!r}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.arange(0, fs.n + 1) * (fs.r / fs.n)
    damping = None if mollifier is None else mollifier_kernel(mollifier, t)
    if interpolation == "sinc":
        out = _window(fs, xs) * _cosine_sum(fs, xs, damping)
    else:
        knots = fs.knots() if damping is None else fs.knots() * damping
        out = np.empty_like(xs)
        zero = xs == 0.0
        if np.any(zero):
            out[zero] = np.trapezoid(knots, t) / math.pi
        nz = ~zero
        if np.any(nz):
            xn = xs[nz][:, None]
            t0, t1 = t[:-1][None, :], t[1:][None, :]
            v0, v1 = knots[:-1][None, :], knots[1:][None, :]
            slope = (v1 - v0) / (t1 - t0)
            seg = (v1 * np.sin(xn * t1) - v0 * np.sin(xn * t0)) / xn
            seg += slope * (np.cos(xn * t1) - np.cos(xn * t0)) / (xn * xn)
            out[nz] = seg.sum(axis=1) / math.pi
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
    vals = synthesize(FourierSamples(xi, f0, r, n), out_grid.points(),
                      interpolation=interpolation, mollifier=mollifier)
    return SampledFunction(out_grid, vals)
