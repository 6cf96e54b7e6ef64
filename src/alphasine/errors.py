"""Exception types shared across the package."""


class NonConvergence(RuntimeError):
    """A quadrature or series evaluation exhausted its budget above tolerance."""


class SingularDiagonal(ValueError):
    """The triangular system has a vanishing diagonal (alpha = 0)."""


class NoTailSamples(ValueError):
    """No samples beyond the cutoff R are available for the constant estimate."""


class ShortSampleRange(ValueError):
    """The samples of g end too near 0 for the direct route's u = ln y grid."""


class EvenIntegerAlpha(ValueError):
    """Circle inversion is impossible for alpha in {0, 2, 4, ...}."""


class CoefficientUnderflow(ValueError):
    """A requested kernel coefficient is too small to divide by."""
