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
from .grid import SampledFunction, UniformGrid, _pointwise, _scalar, call_vec
from .oscsum import _uniform_sum
from .specfun import CoefficientTable, lambda_alpha, sine_coeffs

# (-1)^k / (2k+3)!, k = 0..7: the series of (u - sin u)/u^3 in u^2, which
# leaves under 1e-17 of its value untaken for |u| < 1
_HALF_HAT_SERIES = [(-1) ** k / math.factorial(2 * k + 3) for k in range(8)]


@dataclass(frozen=True)
class FourierSamples:
    """fhat at the points nR/N for n = 1..N plus the value f0 = fhat(0).

    The even extension fhat(-t) = fhat(t) is implicit.
    """

    xi: np.ndarray
    f0: float
    r: float

    def __post_init__(self):
        arr = np.array(_pointwise(lambda v: v, self.xi, "xi"), dtype=float)
        if arr.ndim != 1 or len(arr) < 1:
            raise ValueError(f"xi must be a non-empty one-dimensional array, got shape {arr.shape}")
        object.__setattr__(self, "r", _scalar(self.r, "r", "positive"))
        object.__setattr__(self, "f0", _scalar(self.f0, "f0"))
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
        object.__setattr__(self, "gamma", _scalar(self.gamma, "gamma", "positive"))


def estimate_f0(g, alpha, r: float) -> float:
    """Estimate F f(0) as the mean of 2 g(y)/c_0 over samples y > R.

    When the scale parameter of a stable process is known, sas.f0_from_scale
    gives F f(0) instead.
    """
    if not isinstance(g, SampledFunction):
        raise TypeError("estimate_f0 needs a SampledFunction")
    r = _scalar(r, "r", "positive")
    mask = g.xs > r
    if not np.any(mask):
        raise NoTailSamples(f"no samples beyond R = {r}")
    c0 = lambda_alpha(alpha)
    return float(np.mean(2.0 * np.real(g.values[mask]) / c0))


def build_rhs(g, alpha, n: int, r: float, f0: float) -> np.ndarray:
    """eta_n = g(nR/2N) - (c_0/2) f0 for n = 1..N."""
    n = _scalar(n, "n", "count")
    r, f0 = _scalar(r, "r", "positive"), _scalar(f0, "f0")
    c0 = lambda_alpha(alpha)
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


def _hat_ft(u: np.ndarray) -> np.ndarray:
    """(sin(u/2) / (u/2))^2 = 2(1 - cos u)/u^2: the Fourier transform of the
    unit hat, max(0, 1 - |s|), at u; 1 at u = 0."""
    return np.sinc(u / (2.0 * math.pi)) ** 2


def _half_hat_odd(u: np.ndarray) -> np.ndarray:
    """(u - sin u)/u^3 = u^-2 int_0^1 (1 - s) sin(us) ds; 1/6 at u = 0."""
    out = np.polynomial.polynomial.polyval(u * u, _HALF_HAT_SERIES)
    big = np.abs(u) >= 1.0
    ub = u[big]
    out[big] = (ub - np.sin(ub)) / (ub * ub * ub)
    return out


def mollifier_kernel(kind: MollifierKind, y):
    """Reconstruction kernel psi_gamma(y) = psi(gamma y) at each y (points as
    in grid._pointwise); psi(0) = 1.

    triangle: 2(1 - cos u)/u^2 (Fourier transform of the tent mollifier),
    gaussian: exp(-u^2/(4 pi)).
    """
    if kind.tag == "gaussian":
        return _pointwise(lambda ys: np.exp(-((kind.gamma * ys) ** 2) / (4.0 * math.pi)), y, "y")
    return _pointwise(lambda ys: _hat_ft(kind.gamma * ys), y, "y")


def synthesize(
    fs: FourierSamples, x, *, interpolation: str = "sinc", mollifier: MollifierKind | None = None
):
    """f at x from its Fourier samples, by inverse cosine transform of an
    interpolant of fhat.  x is a UniformGrid, where every cosine sum is one
    chirp-z transform (FFT cost), or points as in grid._pointwise, where it
    is the blocked sum (about 2 sqrt(N) exponentials per point).

    interpolation "sinc" uses the band-limited (cardinal-series) interpolant,
    rect-windowed so the result vanishes identically outside |x| <= pi N / R;
    "linear" integrates the piecewise-linear interpolant on [0, R] exactly,
    so no quadrature tolerance enters the chain.  Both rest on the one sum
    S(x) = sum_{n=1}^N v_n cos(x t_n).  The linear interpolant is a sum of
    hats of width dt = R/N, whose transform is psi(x dt) = _hat_ft(x dt), so

      f(x) = (dt/pi) [psi(x dt) (v_0/2 + S(x) - (v_N/2) cos(xR))
                      + v_N sin(xR) x dt phi(x dt)],

    where the last term is the odd part of the half hat at R and
    phi(u) = (u - sin u)/u^3 = _half_hat_odd(u).  With a mollifier every
    Fourier sample is damped by psi_gamma(nR/N).
    """
    if interpolation not in ("sinc", "linear"):
        raise ValueError(f"interpolation must be 'sinc' or 'linear', got {interpolation!r}")
    dt = fs.r / fs.n
    knots = fs.knots()
    if mollifier is not None:
        knots = knots * mollifier_kernel(mollifier, np.arange(0, fs.n + 1) * dt)

    def f_at(at) -> np.ndarray:
        xs = at.points() if isinstance(at, UniformGrid) else at
        cos_sum = _uniform_sum(knots[1:], dt, dt, at, 1.0).real
        if interpolation == "sinc":
            acc = knots[0] + 2.0 * cos_sum
            return _window(fs, xs) * ((fs.r / (2.0 * math.pi * fs.n)) * acc)
        u = xs * dt
        end = knots[-1] * np.sin(xs * fs.r) * u * _half_hat_odd(u)
        acc = _hat_ft(u) * (0.5 * knots[0] + cos_sum - 0.5 * knots[-1] * np.cos(xs * fs.r))
        return (dt / math.pi) * (acc + end)

    return f_at(x) if isinstance(x, UniformGrid) else _pointwise(f_at, x, "x")


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
    f0 = estimate_f0(g, alpha, r) if f0_override is None else f0_override
    eta = build_rhs(g, alpha, n, r, f0)
    xi = solve_xi(sine_coeffs(alpha, n), eta)
    vals = synthesize(FourierSamples(xi, f0, r), out_grid,
                      interpolation=interpolation, mollifier=mollifier)
    return SampledFunction(out_grid, vals)
