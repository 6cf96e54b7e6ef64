"""The row-by-row back substitution that `fourier_inv.solve_xi` ran before it
solved the triangular system in blocks of equal N // n, kept as the
reference the block solve is compared with.

Row n of eta = C xi reads eta_n = c_1 xi_n + sum_{k=2}^{N//n} c_k xi_{kn};
rows are solved one at a time in decreasing n, each with one gather and one
dot product.
"""

import numpy as np


def solve_xi_rows(coeffs, eta) -> np.ndarray:
    eta = np.asarray(eta, dtype=float)
    n = len(eta)
    c = coeffs.coeffs
    xi = np.zeros(n)
    for row in range(n, 0, -1):
        kmax = n // row
        acc = eta[row - 1]
        if kmax >= 2:
            idx = np.arange(2 * row, kmax * row + 1, row) - 1
            acc -= float(np.dot(c[2 : kmax + 1], xi[idx]))
        xi[row - 1] = acc / c[1]
    return xi
