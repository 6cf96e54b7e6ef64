"""Two-dimensional circular |cos|^a transform, Fourier coefficients, inversion.

The transform is the periodic convolution of a density on [-pi, pi) with
|cos|^a.  The kernel's Fourier coefficient at harmonic n is 2 pi ctilde_{n/2}
for even n and 0 for odd n, in closed form from the Gauss hypergeometric
theorem, so the transform is the density's FFT times that multiplier.
`_kernel_coeffs_quad` computes the same coefficients by quadrature, on the
forward transform's lobe engine (quad.integrate_kernel_split); no program
code calls it, and the tests use it as the independent route of the
convolution-theorem checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CoefficientUnderflow, EvenIntegerAlpha
from .grid import SampledFunction, UniformGrid, _scalar
from .quad import QuadSpec, integrate_kernel_split
from .specfun import _near_even, as_alpha, cosine_coeffs

MASS_TOL = 1e-8
PI_PERIODIC_TOL = 1e-8


def circle_grid(m: int) -> UniformGrid:
    """M equidistant points on [-pi, pi)."""
    m = _scalar(m, "m", "count")
    if m < 4 or m % 2 != 0:
        raise ValueError(f"grid size must be even and >= 4, got {m}")
    return UniformGrid(-math.pi, 2.0 * math.pi / m, m)


def _check_circle_grid(g: UniformGrid) -> None:
    """Raise unless g has an even count and covers [-pi, pi) uniformly."""
    if g.count % 2 != 0:
        raise ValueError("circle grid size must be even")
    if abs(g.start + math.pi) > 1e-12 or abs(g.step - 2.0 * math.pi / g.count) > 1e-12:
        raise ValueError("circle grid must cover [-pi, pi) uniformly")


@dataclass(frozen=True)
class PeriodicDensity:
    """Probability density on the circle, sampled on a uniform [-pi, pi) grid.

    The trapezoid mass (2 pi / M) sum(values) must be 1 within 1e-8; when
    certified_pi_periodic is set the two half-periods must agree within 1e-8.
    """

    values: SampledFunction
    certified_pi_periodic: bool = False
    clipped_mass: float = 0.0

    def __post_init__(self):
        _check_circle_grid(self.values.grid)
        m = self.values.grid.count
        v = np.real(self.values.values)
        if np.any(v < 0.0):
            raise ValueError("density values must be nonnegative")
        mass = (2.0 * math.pi / m) * float(np.sum(v))
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"density mass {mass} is not 1 within {MASS_TOL}")
        if self.certified_pi_periodic:
            half = m // 2
            if np.max(np.abs(v - np.roll(v, half))) > PI_PERIODIC_TOL:
                raise ValueError("density is not pi-periodic within tolerance")

    @property
    def grid(self) -> UniformGrid:
        return self.values.grid


def _fft_coeffs(values: np.ndarray) -> np.ndarray:
    """Trapezoid Fourier coefficients in fft layout for a [-pi, pi) grid."""
    m = len(values)
    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    return signs * np.fft.fft(values) / m


def _synth_on_grid(coeffs_fft: np.ndarray) -> np.ndarray:
    m = len(coeffs_fft)
    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    return m * np.real(np.fft.ifft(signs * coeffs_fft))


@lru_cache(maxsize=32)
def _kernel_coeffs_quad(alpha_value: float, n_keep: int) -> np.ndarray:
    """khat_n = integral of |cos t|^a e^{-int} over one period, n = 0..n_keep.

    The kernel is even, so khat_n is twice the integral of |cos t|^a cos(nt)
    over (0, pi], which the forward transform's lobe quadrature takes at
    y = 1 and rel_tol 1e-14.  True values are 2 pi ctilde_{n/2} for even n
    and 0 for odd n; this routine never uses that closed form.  It is the
    tests' reference for `k_sphere_grid`, which uses the closed form alone.
    It stays here because the benchmark's tracer wraps it by this name.
    """
    spec = QuadSpec(rel_tol=1e-14, tail_cut=math.pi)
    coeffs = np.array([2.0 * integrate_kernel_split(lambda t, n=n: np.cos(n * t), alpha_value,
                                                    1.0, spec, kernel="cosine")
                       for n in range(n_keep + 1)])
    coeffs.setflags(write=False)
    return coeffs


def k_sphere_grid(f: PeriodicDensity, alpha) -> SampledFunction:
    """Circular transform sampled on the density's own grid: fhat * khat,
    synthesized, with the kernel multiplier khat(n) = 2 pi ctilde_{|n|/2} at
    even n and 0 at odd n on the fft layout."""
    fhat = _fft_coeffs(np.real(f.values.values))
    m = f.grid.count
    # the Nyquist order m/2 needs ctilde up to m // 4; a table's count must be
    # >= 1, so it takes one more (m = 2 has m // 4 = 0)
    ct = cosine_coeffs(alpha, m // 4 + 1).coeffs
    idx = np.abs(np.fft.fftfreq(m, d=1.0 / m).astype(int))
    khat = np.where(idx % 2 == 0, 2.0 * math.pi * ct[idx // 2], 0.0)
    return SampledFunction(f.grid, _synth_on_grid(fhat * khat))


def invert_sphere(kf: SampledFunction, alpha, maxn: int) -> PeriodicDensity:
    """Reconstruct a pi-periodic density from samples of its transform.

    fhat(2n) = hat(Kf)(2n) / (2 pi ctilde_n) for 1 <= n <= maxn, fhat(0) =
    1/(2 pi), odd coefficients 0.  The synthesized series is clipped at zero
    and renormalized; the removed mass is reported on the result.  kf must be
    sampled on circle_grid(M), and the density is returned on that grid.
    """
    _check_circle_grid(kf.grid)
    alpha = as_alpha(alpha)
    if _near_even(alpha):
        raise EvenIntegerAlpha(
            f"alpha = {alpha} is an even integer: the kernel coefficients "
            "vanish beyond alpha/2 and the density cannot be reconstructed"
        )
    maxn = _scalar(maxn, "n", "count")
    # the grid check is cheap; the coefficient table takes memory in maxn
    m = kf.grid.count
    if m < 8 * maxn + 4:
        raise ValueError(f"need at least {8 * maxn + 4} grid points for n={maxn}, got {m}")
    ct = cosine_coeffs(alpha, maxn).coeffs
    if np.min(np.abs(ct[1:])) < 1e-13:
        raise CoefficientUnderflow(
            f"|ctilde_n| underflows below 1e-13 for some n <= {maxn}"
        )
    two_n = 2 * np.arange(1, maxn + 1)
    fhat = np.zeros(m, dtype=complex)
    fhat[0] = 1.0 / (2.0 * math.pi)
    hat_kf = _fft_coeffs(np.real(kf.values))[two_n]
    scale = 2.0 * math.pi * ct[1:]
    # part by part, as a complex scalar divides by a real one; numpy's complex
    # division would multiply by a rounded reciprocal
    fhat[two_n] = hat_kf.real / scale + 1j * (hat_kf.imag / scale)
    fhat[m - two_n] = np.conj(fhat[two_n])
    raw = _synth_on_grid(fhat)
    clipped = np.maximum(raw, 0.0)
    step_mass = 2.0 * math.pi / m
    clipped_mass = step_mass * float(np.sum(clipped - raw))
    # raw sums to m fhat(0) = m / (2 pi), so clipping leaves a mass of at least 1
    clipped /= step_mass * float(np.sum(clipped))
    return PeriodicDensity(
        SampledFunction(circle_grid(m), clipped),
        certified_pi_periodic=True,
        clipped_mass=clipped_mass,
    )
