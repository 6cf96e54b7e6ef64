"""Oscillatory sums sum_j W_j exp(i sign omega L_j), one per kind of grid.

`_osc_sum` is the dense sum: any nodes L_j, any omegas, one cosine and one
sine matrix product per chunk of omegas.  It serves the non-uniform nodes:
mu's ln j and the sphere's tanh-sinh nodes.  Uniform nodes L_j = u0 + j du
take one of two sums, and `_uniform_sum` alone picks between them:

- at a UniformGrid of omegas, `_chirp_sum` forms the sum as one chirp-z
  transform (Bluestein, three FFTs); `_turns` gives its chirps with whole
  turns dropped exactly, so phases of many turns keep their digits;
- at scattered omegas, `_blocked_sum` splits j = a B + b with B about
  sqrt(N), so each term is a giant-step phase (a) times a baby-step phase
  (b).  That is one batched complex matrix product and a row sum, with
  2 sqrt(N) exponentials per omega against the dense sum's 2N cosines and
  sines.  It is exact, not an approximation: every phase is one rounded
  product omega L of the same size as in the dense sum.

Both chunked sums keep their phase tables within `_TABLE_ENTRIES` entries.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import UniformGrid

# the most phase entries one chunk of omegas may take: omegas times nodes in
# the dense sum, omegas times baby plus giant steps in the blocked sum
_TABLE_ENTRIES = 10_000_000


def _osc_sum(coords: np.ndarray, weights: np.ndarray, omegas: np.ndarray, sign: float) -> np.ndarray:
    """sum_j W_j exp(i sign omega L_j) for each omega, chunked for memory.
    Columns of a two-dimensional W are summed independently."""
    n = len(omegas)
    out = np.empty((n,) + weights.shape[1:], dtype=complex)
    chunk = max(1, _TABLE_ENTRIES // max(1, len(coords)))
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


def _blocked_sum(weights: np.ndarray, u0: float, du: float, omegas: np.ndarray,
                 sign: float) -> np.ndarray:
    """sum_j W_j exp(i sign omega (u0 + j du)) at each omega, in any order.

    With j = a B + b, B = ceil(sqrt(N)) and W zero-padded to an A x B table,
    the sum is sum_a G[omega, a] sum_b E[omega, b] W[a, b], where the giant
    steps are G = exp(i sign omega (u0 + a B du)) and the baby steps are
    E = exp(i sign omega b du).  Each omega's row is its own (1 x B) @ (B x A)
    product: a plain matrix product would round a row differently with the
    number of rows, and the chunks would then change the result.
    """
    n = len(weights)
    b = math.isqrt(n - 1) + 1 if n else 1
    a = -(-n // b)
    table = np.zeros(a * b, dtype=complex)
    table[:n] = weights
    table = table.reshape(a, b).T
    out = np.empty(len(omegas), dtype=complex)
    chunk = max(1, _TABLE_ENTRIES // (a + b))
    for i in range(0, len(omegas), chunk):
        om = sign * omegas[i : i + chunk]
        baby = np.exp(1j * np.outer(om, du * np.arange(b)))
        giant = np.exp(1j * np.outer(om, u0 + du * (b * np.arange(a))))
        out[i : i + chunk] = np.sum(giant * (baby[:, None, :] @ table)[:, 0], axis=1)
    return out


def _uniform_sum(weights: np.ndarray, u0: float, du: float, at, sign: float) -> np.ndarray:
    """sum_j W_j exp(i sign omega (u0 + j du)) at each omega of `at`: one
    chirp-z transform at a UniformGrid, the blocked sum at an array."""
    if isinstance(at, UniformGrid):
        return _chirp_sum(weights, u0, du, at.start, at.step, at.count, sign)
    return _blocked_sum(weights, u0, du, at, sign)
