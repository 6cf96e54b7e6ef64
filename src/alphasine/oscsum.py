"""Oscillatory sums sum_j W_j exp(i sign omega L_j), one per kind of grid.

`_osc_sum` is the dense sum: any nodes L_j, any omegas, one cosine and one
sine matrix product per chunk of omegas.  `_chirp_sum` takes uniform L and
omega grids and forms the same sum as one chirp-z transform (Bluestein,
three FFTs); `_turns` gives its chirps with whole turns dropped exactly, so
phases of many turns keep their digits.  `_uniform_sum` alone picks one for
uniform nodes: chirp-z at a UniformGrid of omegas, else the dense sum.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import UniformGrid


def _osc_sum(coords: np.ndarray, weights: np.ndarray, omegas: np.ndarray, sign: float) -> np.ndarray:
    """sum_j W_j exp(i sign omega L_j) for each omega, chunked for memory.
    Columns of a two-dimensional W are summed independently."""
    n = len(omegas)
    out = np.empty((n,) + weights.shape[1:], dtype=complex)
    chunk = max(1, int(1e7 / max(1, len(coords))))
    for i in range(0, n, chunk):
        phase = np.outer(sign * omegas[i : i + chunk], coords)
        out[i : i + chunk] = np.cos(phase) @ weights + 1j * (np.sin(phase) @ weights)
    return out


def _turns(beta: float, sq: np.ndarray) -> np.ndarray:
    """exp(2 pi i beta sq) for integers sq >= 0 (int64).

    beta sq reaches hundreds of turns on the mu grid, and far more when one
    grid is much longer than the other.  beta's leading bits times sq is exact
    in float64, so its whole turns drop out exactly and only a fraction of a
    turn is ever rounded.
    """
    bits = 52 - int(sq.max()).bit_length()
    mant, e = math.frexp(beta)
    hi = math.ldexp(round(math.ldexp(mant, bits)), e - bits)
    head = hi * sq
    return np.exp(2j * math.pi * ((head - np.round(head)) + (beta - hi) * sq))


def _chirp_sum(weights: np.ndarray, u0: float, du: float, om0: float, dom: float,
               count: int, sign: float) -> np.ndarray:
    """sum_j W_j exp(i sign (om0 + k dom)(u0 + j du)) for k < count.

    Both grids are uniform, so this is a chirp-z transform: Bluestein's
    kj = (k^2 + j^2 - (k - j)^2) / 2 makes it one linear convolution, taken
    with three FFTs.  Its chirps come from `_turns`, so their large phases
    cost no digits.
    """
    n = len(weights)
    size = 1 << (n + count - 2).bit_length()
    beta = sign * dom * du / (4.0 * math.pi)
    j = np.arange(n, dtype=np.int64)
    k = np.arange(count, dtype=np.int64)
    m = np.arange(1 - n, count, dtype=np.int64)
    x = weights * np.exp(1j * sign * om0 * du * j) * _turns(beta, j * j)
    chirp = np.conj(_turns(beta, m * m))
    conv = np.fft.ifft(np.fft.fft(x, size) * np.fft.fft(chirp, size))[n - 1 : n - 1 + count]
    return np.exp(1j * sign * u0 * (om0 + dom * k)) * _turns(beta, k * k) * conv


def _uniform_sum(weights: np.ndarray, u0: float, du: float, at, sign: float) -> np.ndarray:
    """sum_j W_j exp(i sign omega (u0 + j du)) at each omega of `at`: one
    chirp-z transform at a UniformGrid, the dense sum at an array."""
    if isinstance(at, UniformGrid):
        return _chirp_sum(weights, u0, du, at.start, at.step, at.count, sign)
    return _osc_sum(u0 + du * np.arange(len(weights)), weights, at, sign)
