"""Shared fixtures: the three reference densities on the half-line and their
Fourier transforms (from `alphasine.examples`), the closed forms of their
|sin|^2 transforms, the closed-form partial sums of the sine coefficients,
the dense form of the triangular system, the codifference of a process
with a given spectral density, the Fourier coefficients of samples on
the circle, and the circle transform with the kernel's low harmonics from
quadrature."""

import math

import numpy as np
import pytest

from alphasine.examples import f1, f2, f3, fhat1, fhat2, fhat3
from alphasine.forward import t_sine
from alphasine.grid import SampledFunction, UniformGrid, call_vec
from alphasine.quad import QuadSpec, integrate
from alphasine.sas import SasParams
from alphasine.specfun import CoefficientTable, as_alpha, cosine_coeffs, lambda_alpha
from alphasine.sphere import PeriodicDensity, _fft_coeffs, _kernel_coeffs_quad, _synth_on_grid


def t2_f1(y):
    return math.sqrt(math.pi) / 4.0 * (1.0 - np.exp(-np.asarray(y, dtype=float) ** 2))


def t2_f2(y):
    y = np.asarray(y, dtype=float)
    y2 = y * y
    return 8.0 * y2 * (3.0 + 6.0 * y2 + 8.0 * y2 * y2) / (1.0 + 4.0 * y2) ** 3


def t2_f3(y):
    y = np.abs(np.asarray(y, dtype=float))
    return math.pi / 8.0 * (1.0 - np.exp(-2.0 * y) * (1.0 + 2.0 * y))


# integrals of f1 and f2 over (0, 30], the default tail_cut
F1_MASS = math.sqrt(math.pi) / 2.0 * math.erf(30.0)
F2_MASS = 2.0 - 962.0 * math.exp(-30.0)

EXAMPLES = {
    "f1": (f1, fhat1, t2_f1),
    "f2": (f2, fhat2, t2_f2),
    "f3": (f3, fhat3, t2_f3),
}


@pytest.fixture(scope="session")
def quad_spec():
    return QuadSpec()


def sample(fn, start, stop, count) -> SampledFunction:
    grid = UniformGrid.from_span(start, stop, count)
    return SampledFunction(grid, call_vec(fn, grid.points()))


def rel_l2(approx: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(approx - truth) / np.linalg.norm(truth))


def _gamma_sign(x: float) -> float:
    """Sign of Gamma(x) for x not a pole: (-1)^n on (-n, -n + 1)."""
    if x > 0.0:
        return 1.0
    return -1.0 if math.floor(-x) % 2 == 0 else 1.0


def sine_partial_sum(a: float, count: int) -> float:
    """S_J = sum_{j=1}^{J} c_j + c_0/2 in closed form, for J = count >= 1.

    With u_j = Gamma(j - a/2)/Gamma(j + a/2) the coefficients telescope,
    u_j - u_{j+1} = a Gamma(j - a/2)/Gamma(j + 1 + a/2), which gives

        S_J = (c_0/2) Gamma(1 + a/2) Gamma(J + 1 - a/2)
              / (Gamma(1 - a/2) Gamma(J + 1 + a/2))

    for every non-even a > -1.  For a > 0 this is minus the series tail
    sum_{j>J} c_j.  Built from math.lgamma alone, with the signs of the
    gamma factors restored, so it is independent of `sine_coeffs`.
    """
    half = 0.5 * a
    log_c0 = math.lgamma(1.0 + a) - a * math.log(2.0) - 2.0 * math.lgamma(1.0 + half)
    log_mag = (
        log_c0
        + math.lgamma(1.0 + half)
        + math.lgamma(count + 1.0 - half)
        - math.lgamma(1.0 - half)
        - math.lgamma(count + 1.0 + half)
    )
    sign = _gamma_sign(1.0 - half) * _gamma_sign(count + 1.0 - half)
    return 0.5 * sign * math.exp(log_mag)


def dense_system_matrix(coeffs: CoefficientTable, n: int) -> np.ndarray:
    """The full N x N matrix C_{i,ki} = c_k, for cross-checks against the
    sparse solve."""
    c = coeffs.coeffs
    m = np.zeros((n, n))
    for i in range(1, n + 1):
        for k in range(1, n // i + 1):
            m[i - 1, k * i - 1] = c[k]
    return m


def codifference_forward(f, p: SasParams, t: float, spec: QuadSpec | None = None) -> float:
    """Codifference of the process whose spectral density is the even
    extension of f; the scale is recomputed from f as sigma^a = lambda_a
    integral of f over the line."""
    spec = spec or QuadSpec()
    a = p.alpha
    lam = lambda_alpha(p.alpha)
    sigma_a = lam * 2.0 * integrate(f, spec)
    if t == 0.0:
        return 2.0 * sigma_a
    transform = 2.0 * t_sine(f, p.alpha, abs(t) / 2.0, spec)
    return 2.0 * sigma_a - 2.0**a * lam * transform


def circle_fourier_coeffs(u: SampledFunction, maxn: int) -> np.ndarray:
    """Trapezoid-rule coefficients uhat(n) = (1/2pi) int e^{-inx} u(x) dx of
    samples on a [-pi, pi) grid, for n = -maxn..maxn: uhat(n) is entry
    n + maxn.  Spectrally accurate for smooth u."""
    pos = _fft_coeffs(np.real(u.values))[: maxn + 1]
    return np.concatenate((np.conj(pos[1:][::-1]), pos))


def _kernel_coeffs_full(alpha: float, m: int) -> np.ndarray:
    """khat(|n|) on the fft layout of an M-point grid (quadrature low band,
    closed form above it)."""
    n_keep = min(64, m // 4)
    k_low = _kernel_coeffs_quad(alpha, n_keep)
    half = m // 2
    ct = cosine_coeffs(alpha, half // 2 + 1).coeffs
    idx = np.abs(np.fft.fftfreq(m, d=1.0 / m).astype(int))
    khat = np.zeros(m, dtype=complex)
    low = idx <= n_keep
    khat[low] = k_low[idx[low]]
    high_even = (~low) & (idx % 2 == 0)
    khat[high_even] = 2.0 * math.pi * ct[idx[high_even] // 2]
    # Nyquist order m/2 appears once in fft layout; it is even and handled above.
    return khat


def _transform_coeffs(f: PeriodicDensity, alpha) -> np.ndarray:
    """fhat * khat on the fft layout of the density's grid."""
    fhat = _fft_coeffs(np.real(f.values.values))
    return fhat * _kernel_coeffs_full(as_alpha(alpha), f.grid.count)


def k_sphere_grid_quad(f: PeriodicDensity, alpha) -> SampledFunction:
    """The circle transform on the density's own grid, with the kernel's
    harmonics n <= 64 from the quadrature `sphere._kernel_coeffs_quad` and
    the closed form 2 pi ctilde_{n/2} above them.  `sphere.k_sphere_grid`
    takes the closed form at every n, so the convolution-theorem checks
    build K f here to compare two independent routes."""
    return SampledFunction(f.grid, _synth_on_grid(_transform_coeffs(f, alpha)))
