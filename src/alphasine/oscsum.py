"""Oscillatory sums sum_j W_j exp(i sign omega L_j), one per kind of grid.

`_osc_sum` is the dense sum: any nodes L_j, any omegas, one cosine and one
sine matrix product per chunk of omegas.  It serves mu's non-uniform nodes
ln j alone.  Uniform nodes L_j = u0 + j du take one of two sums, and
`_uniform_sum` alone picks between them:

- at a UniformGrid of omegas, `_chirp_sum` forms the sum as one chirp-z
  transform (Bluestein); `_turns` gives its chirps with whole turns dropped
  exactly, so phases of many turns keep their digits.  Everything that
  depends only on the two grids (chirps, filter FFT, phase factors) is a
  read-only plan from `_chirp_plan`, cached per grid pair, so a repeated
  call costs two FFTs;
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
from functools import lru_cache

import numpy as np

from .grid import UniformGrid

# the most phase entries one chunk of omegas may take: omegas times nodes in
# the dense sum, omegas times baby plus giant steps in the blocked sum
_TABLE_ENTRIES = 10_000_000


def _osc_sum(coords: np.ndarray, weights: np.ndarray, omegas: np.ndarray, sign: float) -> np.ndarray:
    """sum_j W_j exp(i sign omega L_j) for each omega, chunked for memory."""
    n = len(omegas)
    out = np.empty(n, dtype=complex)
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


@lru_cache(maxsize=4)
def _chirp_plan(n: int, u0: float, du: float, om0: float, dom: float, count: int, sign: float):
    """The grid-dependent part of `_chirp_sum`, built once per pair of grids.

    Keyed on (n, u0, du, om0, dom, count, sign), it holds the FFT size, the
    input chirp exp(i sign om0 du j), the reversed j^2 chirp (a view of the
    m^2 table from `_turns`, not a copy), the FFT of the conjugate m^2 chirp
    (the filter) and the output factor exp(i sign u0 (om0 + k dom)) times
    the k^2 chirp.  That is 32 (n + count) bytes plus 16 per FFT point,
    1.5 MB on the mu grid; the cache keeps at most four plans.
    Every array is read-only, since every later call shares it.
    """
    size = 1 << (n + count - 2).bit_length()
    beta = sign * dom * du / (4.0 * math.pi)
    m = np.arange(1 - n, count, dtype=np.int64)
    # m runs over -j and k, so the j^2 and k^2 chirps are entries of the m^2 one
    turns = _turns(beta, m * m)
    turns.setflags(write=False)
    chirp_in = np.exp(1j * sign * om0 * du * np.arange(n))
    filt = np.fft.fft(np.conj(turns), size)
    chirp_out = np.exp(1j * sign * u0 * (om0 + dom * np.arange(count))) * turns[n - 1 :]
    for arr in (chirp_in, filt, chirp_out):
        arr.setflags(write=False)
    return size, chirp_in, turns[n - 1 :: -1], filt, chirp_out


def _chirp_sum(weights: np.ndarray, u0: float, du: float, om0: float, dom: float,
               count: int, sign: float) -> np.ndarray:
    """sum_j W_j exp(i sign (om0 + k dom)(u0 + j du)) for k < count.

    Both grids are uniform, so this is a chirp-z transform: Bluestein's
    kj = (k^2 + j^2 - (k - j)^2) / 2 makes it one linear convolution.  The
    chirps and the filter's FFT come from the cached `_chirp_plan`, so a
    call takes one FFT of the chirped weights and one inverse FFT.  Their
    large phases cost no digits, because `_turns` drops whole turns.
    """
    n = len(weights)
    size, chirp_in, chirp_rev, filt, chirp_out = _chirp_plan(n, u0, du, om0, dom, count, sign)
    # in place, so that a call holds one FFT-sized buffer beside the plan
    x = weights * chirp_in
    x *= chirp_rev
    spec = np.fft.fft(x, size)
    spec *= filt
    conv = np.fft.ifft(spec, out=spec)[n - 1 : n - 1 + count]
    return chirp_out * conv


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
