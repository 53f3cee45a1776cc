"""Numerical laboratory for singular integral operators on Jordan curves.

Building blocks: discretized Jordan curves with arc-length quadrature,
variable exponents and their Luxemburg--Nakano norms, the Cauchy singular
integral with its Riesz projections, pointwise-multiplier norms, and Toeplitz
finite sections with a trivial-kernel/dense-image probe.
"""

__version__ = "0.1.0"

from .curves import (
    CarlesonReport,
    JordanCurve,
    carleson_constant,
    curve_from_name,
    curve_to_csv,
    make_ellipse,
    make_parametric_curve,
    make_perturbed_circle,
    make_square,
    make_unit_circle,
)
from .exponents import (
    ExponentFunction,
    LogHolderReport,
    conjugate_exponent_r,
    dominance_check,
    essential_bounds,
    exponent_constant,
    exponent_from_preset,
    log_holder_constant,
    partition_infinity_sets,
)
from .spaces import (
    MultiplierBounds,
    NormResult,
    UnitBallCheck,
    luxemburg_norm,
    modular,
    multiplier_norm_lower,
    multiplier_norm_via_theorem,
    multiplier_witness,
    norm_value,
    unit_ball_check,
)
from .cauchy import (
    AdjointResiduals,
    PlemeljResidual,
    adjoint_residuals,
    apply_S,
    cauchy_offcurve,
    conjugation_H,
    plemelj_residual,
    riesz_projections,
)
from .toeplitz import (
    DichotomyVerdict,
    KernelReport,
    Symbol,
    dichotomy_probe,
    finite_section,
    numerical_kernel,
    symbol_from_coefficients,
    symbol_from_preset,
    symbol_from_samples,
    symbol_values,
)
