"""The three example functions on the half-line and the closed forms of the
Fourier transforms fhat(t) = int_R f(|x|) e^{-ixt} dx of their even
extensions: a Gaussian, x^2 e^{-x} and the slowly decaying (1 + x^2)^{-2}."""

import math

import numpy as np


def f1(x):
    return np.exp(-np.asarray(x, dtype=float) ** 2)


def f2(x):
    x = np.asarray(x, dtype=float)
    return x * x * np.exp(-np.abs(x))


def f3(x):
    return (1.0 + np.asarray(x, dtype=float) ** 2) ** -2.0


def fhat1(t):
    return math.sqrt(math.pi) * np.exp(-np.asarray(t, dtype=float) ** 2 / 4.0)


def fhat2(t):
    t = np.asarray(t, dtype=float)
    return 4.0 * (1.0 - 3.0 * t * t) / (1.0 + t * t) ** 3


def fhat3(t):
    t = np.abs(np.asarray(t, dtype=float))
    return math.pi / 2.0 * (1.0 + t) * np.exp(-t)


# name -> (f, fhat); the builtins of `alphasine forward --f`
BUILTINS = {"f1": (f1, fhat1), "f2": (f2, fhat2), "f3": (f3, fhat3)}
