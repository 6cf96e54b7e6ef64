"""Forward and inverse |sin|^a / |cos|^a kernel transforms on the half-line
and the circle."""

__version__ = "0.1.0"

from .direct_inv import (
    DirectConfig,
    h2_inverse,
    h_forward,
    invert_direct,
    mu,
    mu_table,
)
from .errors import (
    CoefficientUnderflow,
    EvenIntegerAlpha,
    NoTailSamples,
    NonConvergence,
    ShortSampleRange,
    SingularDiagonal,
)
from .forward import k_cosine, t_sine, t_sine_series
from .fourier_inv import (
    FourierSamples,
    MollifierKind,
    build_rhs,
    estimate_f0,
    invert_fourier,
    mollifier_kernel,
    solve_xi,
    synthesize,
)
from .grid import SampledFunction, UniformGrid
from .quad import QuadSpec, integrate, integrate_kernel_split
from .sas import SasParams, f0_from_scale, g_from_codifference
from .specfun import (
    CoefficientTable,
    cosine_coeffs,
    lambda_alpha,
    operator_norm_bound,
    sin_power_integral,
    sine_coeffs,
)
from .sphere import PeriodicDensity, circle_grid, invert_sphere, k_sphere_grid

__all__ = [
    "DirectConfig", "h2_inverse", "h_forward", "invert_direct", "mu", "mu_table",
    "CoefficientUnderflow", "EvenIntegerAlpha", "NoTailSamples", "NonConvergence",
    "ShortSampleRange", "SingularDiagonal",
    "k_cosine", "t_sine", "t_sine_series",
    "FourierSamples", "MollifierKind", "build_rhs", "estimate_f0", "invert_fourier",
    "mollifier_kernel", "solve_xi", "synthesize",
    "SampledFunction", "UniformGrid",
    "QuadSpec", "integrate", "integrate_kernel_split",
    "SasParams", "f0_from_scale", "g_from_codifference",
    "CoefficientTable", "cosine_coeffs", "lambda_alpha", "operator_norm_bound",
    "sin_power_integral", "sine_coeffs",
    "PeriodicDensity", "circle_grid", "invert_sphere", "k_sphere_grid",
]
