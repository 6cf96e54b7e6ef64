"""The chirp-z sum that rebuilt its chirps and its filter on every call,
before `oscsum._chirp_sum` took them from a cached plan, kept as the
reference the cached sum is compared with byte for byte.

It takes the same operations in the same order as the cached sum, so the
two agree bit for bit on real weights, which every caller passes; only
where the grid-dependent factors are built differs.
"""

import math

import numpy as np

from alphasine.oscsum import _turns


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
    m = np.arange(1 - n, count, dtype=np.int64)
    # m runs over -j and k, so the j^2 and k^2 chirps are entries of the m^2 one
    turns = _turns(beta, m * m)
    x = weights * np.exp(1j * sign * om0 * du * np.arange(n)) * turns[n - 1 :: -1]
    conv = np.fft.ifft(np.fft.fft(x, size) * np.fft.fft(np.conj(turns), size))[n - 1 : n - 1 + count]
    return np.exp(1j * sign * u0 * (om0 + dom * np.arange(count))) * turns[n - 1 :] * conv
