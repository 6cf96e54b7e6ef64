"""The per-draw loop that `cli.gaussian_noise` ran before it reused one
generator, kept as the reference it is compared with.

Draw i is the first standard normal of a Generator on a new Philox bit
generator keyed (seed, i).
"""

import numpy as np


def gaussian_noise_per_draw(seed: int, count: int) -> np.ndarray:
    out = np.empty(count)
    for i in range(count):
        bitgen = np.random.Philox(key=np.array([seed, i], dtype=np.uint64))
        out[i] = np.random.Generator(bitgen).standard_normal()
    return out
