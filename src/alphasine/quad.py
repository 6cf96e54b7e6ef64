"""Numerical integration: adaptive Gauss-Kronrod and kernel-zero-aware lobe rules.

The |sin(xy)|^a and |cos(xy)|^a kernels vanish like |u|^a at their zeros, so
each lobe between consecutive zeros is integrated with a tanh-sinh rule whose
nodes are placed in zero-relative coordinates; the distance of a node to the
adjacent kernel zero is therefore exact, never a difference of large floats.
Weights and kernel powers combine in log space, which keeps the rule finite
arbitrarily close to a = -1.  Every second tanh-sinh node forms the embedded
coarse rule whose disagreement drives refinement.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergence
from .grid import call_vec
from .specfun import as_alpha

_HALF_PI = 0.5 * math.pi

# 7-15 Gauss-Kronrod pair: Kronrod abscissae (positive half), Kronrod weights,
# Gauss weights for the embedded 7-point rule.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_K15_NODES = np.concatenate((-_XGK[:7], [0.0], _XGK[6::-1]))
_K15_WEIGHTS = np.concatenate((_WGK[:7], [_WGK[7]], _WGK[6::-1]))
_G7_WEIGHTS = np.zeros(15)
_G7_WEIGHTS[1:14:2] = np.concatenate((_WG[:3], [_WG[3]], _WG[2::-1]))


@dataclass(frozen=True)
class QuadSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    tail_cut: float = 30.0

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 8:
            raise ValueError("max_subdivisions must be >= 8")
        if not (self.tail_cut > 0.0):
            raise ValueError("tail_cut must be positive")


def _gk15_panel(f, a: float, b: float):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = np.asarray(call_vec(f, mid + half * _K15_NODES), dtype=float)
    ik = half * float(np.dot(_K15_WEIGHTS, fx))
    ig = half * float(np.dot(_G7_WEIGHTS, fx))
    err = abs(ik - ig)
    # QUADPACK scaling: compare against the spread of the integrand so the
    # estimate stays meaningful on singular panels.
    resasc = half * float(np.dot(_K15_WEIGHTS, np.abs(fx - ik / (b - a))))
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return ik, err


def integrate(f, a: float, b: float, spec: QuadSpec | None = None) -> float:
    """Adaptive bisection with the embedded G7/K15 pair.

    Endpoint singularities are admissible since Kronrod nodes are interior;
    raises NonConvergence once max_subdivisions panels fail to meet tolerance.
    """
    spec = spec or QuadSpec()
    if not (a < b):
        raise ValueError(f"need a < b, got [{a}, {b}]")
    val, err = _gk15_panel(f, a, b)
    heap = [(-err, a, b, val)]
    total = val
    total_err = err
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if len(heap) >= spec.max_subdivisions:
            raise NonConvergence(
                f"integrate: {len(heap)} panels, error {total_err:.3e} above tolerance"
            )
        neg_err, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15_panel(f, lo, mid)
        v2, e2 = _gk15_panel(f, mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
    return total


def _log_cosh(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return np.where(x >= 0.0, -np.log1p(np.exp(-ax)), x - np.log1p(np.exp(-ax)))


@lru_cache(maxsize=128)
def _de_unit(h: float, s_req: float):
    """Tanh-sinh rule for a unit interval, offsets kept as logs from each end.

    Returns (lnw, ln_frac_lo, ln_frac_hi, coarse_mask); frac_lo is a node's
    exact distance from the left endpoint as a fraction of the length, frac_hi
    from the right.  The even-index subset is the embedded h' = 2h rule.
    """
    kh_max = math.asinh(2.0 * s_req / math.pi)
    kmax = max(6, int(math.ceil(kh_max / h)))
    k = np.arange(-kmax, kmax + 1, dtype=float)
    kh = k * h
    s = _HALF_PI * np.sinh(kh)
    lnw = math.log(h * _HALF_PI) + _log_cosh(kh) - 2.0 * _log_cosh(s)
    ln_frac_lo = _log_sigmoid(2.0 * s)
    ln_frac_hi = _log_sigmoid(-2.0 * s)
    coarse = (np.arange(-kmax, kmax + 1) % 2) == 0
    for arr in (lnw, ln_frac_lo, ln_frac_hi, coarse):
        arr.setflags(write=False)
    return lnw, ln_frac_lo, ln_frac_hi, coarse


def _ln_sin(u: np.ndarray, ln_u: np.ndarray) -> np.ndarray:
    """log(sin u) for u in (0, pi) given the exact log of u."""
    out = np.empty_like(u)
    small = u < 1e-3
    us = u[small]
    out[small] = ln_u[small] - us * us / 6.0 - us**4 / 180.0
    out[~small] = np.log(np.sin(u[~small]))
    return out


class _Piece:
    """One integration piece inside a kernel lobe [z_lo, z_hi], z_hi - z_lo = pi.

    off_lo / off_hi are the piece edges' distances to the bracketing zeros;
    an edge with offset 0 sits exactly on a zero and node distances to it are
    generated directly by the tanh-sinh rule, never by float subtraction.
    """

    __slots__ = ("z_lo", "z_hi", "off_lo", "off_hi", "h", "value", "error")

    def __init__(self, z_lo, z_hi, off_lo, off_hi, h):
        self.z_lo = z_lo
        self.z_hi = z_hi
        self.off_lo = off_lo
        self.off_hi = off_hi
        self.h = h
        self.value = 0.0
        self.error = 0.0

    def nodes(self, alpha: float, s_req: float):
        lnw, ln_lo, ln_hi, coarse = _de_unit(self.h, s_req)
        length = math.pi - self.off_lo - self.off_hi
        ln_len = math.log(length)
        d_lo = np.exp(ln_len + ln_lo)
        d_hi = np.exp(ln_len + ln_hi)
        use_lo = d_lo <= 0.5 * length
        u_from_lo = self.off_lo + d_lo
        u_from_hi = self.off_hi + d_hi
        t = np.where(use_lo, self.z_lo + u_from_lo, self.z_hi - u_from_hi)
        u = np.where(use_lo, u_from_lo, u_from_hi)
        if self.off_lo == 0.0:
            ln_u_lo = ln_len + ln_lo
        else:
            ln_u_lo = np.log(u_from_lo)
        if self.off_hi == 0.0:
            ln_u_hi = ln_len + ln_hi
        else:
            ln_u_hi = np.log(u_from_hi)
        ln_u = np.where(use_lo, ln_u_lo, ln_u_hi)
        ln_kern = alpha * _ln_sin(u, ln_u)
        q = np.exp(lnw + math.log(0.5 * length) + ln_kern)
        return t, q, coarse


def _kernel_pieces(phase: float, t_max: float, h: float) -> list[_Piece]:
    """Pieces covering (0, t_max] for a kernel with zeros at k*pi - phase."""
    pieces: list[_Piece] = []
    k = 0
    while True:
        z_lo = k * math.pi - phase
        z_hi = (k + 1) * math.pi - phase
        if z_lo >= t_max:
            break
        off_lo = -z_lo if z_lo < 0.0 else 0.0
        off_hi = z_hi - t_max if z_hi > t_max else 0.0
        lo_d = off_lo
        hi_d = math.pi - off_hi
        if lo_d < hi_d:
            if lo_d < _HALF_PI < hi_d:
                pieces.append(_Piece(z_lo, z_hi, lo_d, _HALF_PI, h))
                pieces.append(_Piece(z_lo, z_hi, _HALF_PI, off_hi, h))
            else:
                pieces.append(_Piece(z_lo, z_hi, off_lo, off_hi, h))
        k += 1
    return pieces


def _evaluate_pieces(pieces, f, y: float, alpha: float, s_req: float) -> None:
    """Fill value/error on each piece; f is evaluated in one batch."""
    if not pieces:
        return
    node_list = []
    q_list = []
    coarse_list = []
    offsets = [0]
    for p in pieces:
        t, q, coarse = p.nodes(alpha, s_req)
        node_list.append(t)
        q_list.append(q)
        coarse_list.append(coarse)
        offsets.append(offsets[-1] + len(t))
    t_all = np.concatenate(node_list)
    fx = np.asarray(call_vec(f, t_all / y), dtype=float) / y
    for i, p in enumerate(pieces):
        contrib = q_list[i] * fx[offsets[i]:offsets[i + 1]]
        fine = float(np.sum(contrib))
        coarse = 2.0 * float(np.sum(contrib[coarse_list[i]]))
        p.value = fine
        p.error = abs(fine - coarse)


def integrate_kernel_split(
    f,
    alpha,
    y: float,
    spec: QuadSpec | None = None,
    kernel: str = "sine",
) -> float:
    """Integral of |sin(xy)|^a f(x) (or |cos(xy)|^a f(x)) over (0, tail_cut].

    Splits at the kernel zeros x = k pi / y (shifted by pi/(2y) for the
    cosine), integrates every half-lobe with the tanh-sinh rule, and refines
    pieces whose embedded error estimate exceeds the budget.
    """
    spec = spec or QuadSpec()
    alpha = as_alpha(alpha)
    if not (y > 0.0):
        raise ValueError(f"y must be positive, got {y}")
    if kernel not in ("sine", "cosine"):
        raise ValueError(f"kernel must be 'sine' or 'cosine', got {kernel!r}")
    a = alpha.value
    s_req = max(16.5, 16.5 / (1.0 + a))
    phase = 0.0 if kernel == "sine" else _HALF_PI
    pieces = _kernel_pieces(phase, y * spec.tail_cut, h=0.2)
    _evaluate_pieces(pieces, f, y, a, s_req)
    for _ in range(7):
        total = sum(p.value for p in pieces)
        total_err = sum(p.error for p in pieces)
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if total_err <= tol:
            return total
        budget = tol / (2.0 * len(pieces))
        bad = [p for p in pieces if p.error > budget]
        for p in bad:
            p.h *= 0.5
        _evaluate_pieces(bad, f, y, a, s_req)
    total = sum(p.value for p in pieces)
    total_err = sum(p.error for p in pieces)
    if total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        raise NonConvergence(
            f"integrate_kernel_split: error {total_err:.3e} above tolerance at y={y}"
        )
    return total
