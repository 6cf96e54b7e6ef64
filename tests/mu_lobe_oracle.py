"""The lobe-quadrature table that computed the direct route's multiplier mu
before its closed form, kept as an independent oracle for it.

mu(omega) = int_0^inf |sin t|^a t^{-s} e^{i omega ln t} dt, s = (c+1)/2, is
summed on graded Gauss-Legendre panels over the lobes up to t_cut, plus the
analytic integral of the kernel's mean level c_0 beyond.  Its design
tolerance is 1e-6 (1e-7 at even a).
"""

import math

import numpy as np

from alphasine.oscsum import _osc_sum
from alphasine.specfun import _near_even, lambda_alpha

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

_PHASE_PER_PANEL = 2.5


def _default_t_cut(alpha: float, c: float) -> float:
    s = 0.5 * (c + 1.0)
    tol = 1e-7 if _near_even(alpha) else 1e-6
    t = (0.5 / tol) ** (1.0 / s)
    t = min(t, 1e6)
    return math.pi * max(4.0, math.ceil(t / math.pi))


def _gl_panel_nodes(edges: np.ndarray):
    """Gauss-Legendre nodes/weights on consecutive panels given their edges."""
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    weights = half[:, None] * _GL_WEIGHTS[None, :]
    return nodes.ravel(), weights.ravel()


def _lobe_delta_pattern(alpha: float, omega_span: float):
    """Node offsets and weights within one kernel lobe (0, pi), kernel included.

    For fractional a the pattern grades dyadically toward both zeros; panels
    are additionally split so the phase ln(t) omega never sweeps more than a
    few radians per panel (omega_span is the worst case for the lobe batch).
    """
    if _near_even(alpha):
        base = np.array([0.0, math.pi / 2.0, math.pi])
    else:
        levels = math.pi / 2.0 * 0.5 ** np.arange(6, 0, -1)
        base = np.concatenate(([0.0], levels, math.pi - levels[::-1], [math.pi]))
    splits = max(1, int(math.ceil(omega_span / _PHASE_PER_PANEL)))
    if splits > 1:
        refined = [
            np.linspace(base[i], base[i + 1], splits + 1)[:-1] for i in range(len(base) - 1)
        ]
        base = np.concatenate(refined + [[math.pi]])
    delta, w = _gl_panel_nodes(base)
    kern = np.abs(np.sin(delta)) ** alpha
    return delta, w * kern


def _mu_nodes(alpha: float, c: float, t_cut: float, omega_max: float):
    """Phase coordinates ln(t) and real weights so that
    mu(omega) ~ sum W exp(i omega L) + analytic mean tail."""
    a = alpha
    s = 0.5 * (c + 1.0)
    coords = []
    weights = []
    # head (0, pi] in u = ln t; the integrand magnitude decays like
    # exp((a + 1 - s) u) toward -inf, which is positive since c <= 2a - 1
    decay = a + 1.0 - s
    u_min = math.log(1e-16) / decay
    u_max = math.log(math.pi)
    width = min(0.5, 3.0 / max(1.0, omega_max))
    n_panels = int(math.ceil((u_max - u_min) / width))
    u, wu = _gl_panel_nodes(np.linspace(u_min, u_max, n_panels + 1))
    t_head = np.exp(u)
    coords.append(u)
    weights.append(wu * np.abs(np.sin(t_head)) ** a * np.exp((1.0 - s) * u))
    # lobes [k pi, (k+1) pi]
    m = int(round(t_cut / math.pi))
    k_split_max = min(m - 1, max(2, int(math.ceil(omega_max / _PHASE_PER_PANEL))))
    for k in range(1, k_split_max + 1):
        span = omega_max * math.log((k + 1.0) / k)
        delta, wk = _lobe_delta_pattern(alpha, span)
        t = k * math.pi + delta
        coords.append(np.log(t))
        weights.append(wk * t ** (-s))
    if m - 1 > k_split_max:
        delta, wk = _lobe_delta_pattern(alpha, omega_max * math.log((k_split_max + 2.0) / (k_split_max + 1.0)))
        ks = np.arange(k_split_max + 1, m, dtype=float)
        t = ks[:, None] * math.pi + delta[None, :]
        coords.append(np.log(t).ravel())
        weights.append((wk[None, :] * t ** (-s)).ravel())
    return np.concatenate(coords), np.concatenate(weights)


def _mu_mean_tail(alpha: float, c: float, t_cut: float, omegas: np.ndarray) -> np.ndarray:
    s = 0.5 * (c + 1.0)
    c0 = lambda_alpha(alpha)
    return (
        c0
        * t_cut ** (1.0 - s)
        * np.exp(1j * omegas * math.log(t_cut))
        / (s - 1.0 - 1j * omegas)
    )


def lobe_mu(alpha_value: float, c: float, omegas: np.ndarray) -> np.ndarray:
    """mu at omega = ln x, from the node set of the 8-wide omega bucket that
    covers max |omega|."""
    alpha = float(alpha_value)
    t_cut = _default_t_cut(alpha, c)
    bucket = max(1, int(math.ceil(np.max(np.abs(omegas)) / 8.0)))
    coords, weights = _mu_nodes(alpha, c, t_cut, 8.0 * bucket)
    return real_weight_sum(coords, weights, omegas, +1.0) + _mu_mean_tail(alpha, c, t_cut, omegas)


def real_weight_sum(coords: np.ndarray, weights: np.ndarray, omegas: np.ndarray,
                    sign: float) -> np.ndarray:
    """The dense sum for real weights, which is Hermitian in omega: taken at
    each |omega| once and conjugated for omega < 0, which halves the work on
    a symmetric omega grid."""
    mags, at = np.unique(np.abs(omegas), return_inverse=True)
    sums = _osc_sum(coords, weights, mags, sign)[at]
    return np.where(omegas < 0.0, np.conj(sums), sums)
