"""Radial Gelfand problem on the unit ball: -Delta u = lambda a(|x|) e^u.

Shooting parametrization of the radial solution branch, the singular
solution and its amplitude, Morse indices counted by two independent
methods, bifurcation-diagram classification at N = 10, Hardy quotients,
and explicit instability witnesses for N <= 9.
"""

from .bifurcation import (
    BifurcationCurve,
    ClassificationReport,
    TurningPoint,
    check_lower_envelope,
    check_separation,
    classify,
    refine_fold,
    trace_curve,
    zero_number,
)
from ._stepper import IntegrationError
from .radial_ode import (
    ProblemConfig,
    RadialProfile,
    ShootResult,
    asymptotic_diagnostics,
    default_grid,
    explicit_lambda_h,
    flux_residual,
    integrate_ivp,
    integrate_singular,
    pohozaev_residual,
    rescaled_profile,
    residual_Uh,
)
from .spectral import (
    DiskPotential,
    MethodDisagreement,
    RadialPotential,
    SpectralReport,
    WitnessReport,
    bessel_j0,
    explicit_uh,
    hardy_constant,
    hardy_quotient_xi_n,
    instability_witness_leq9,
    j0_zero,
    morse_index,
    potential_from_shoot,
    potential_from_singular,
    reduce_to_disk,
    singular_stability,
    solution_stability,
)
from .weights import (
    Weight,
    WeightParseError,
    make_ah,
    parse_weight,
    ratio_derivative_sign,
)

__version__ = "0.1.0"

__all__ = [
    "BifurcationCurve",
    "ClassificationReport",
    "DiskPotential",
    "IntegrationError",
    "MethodDisagreement",
    "ProblemConfig",
    "RadialPotential",
    "RadialProfile",
    "ShootResult",
    "SpectralReport",
    "TurningPoint",
    "Weight",
    "WeightParseError",
    "WitnessReport",
    "asymptotic_diagnostics",
    "bessel_j0",
    "check_lower_envelope",
    "check_separation",
    "classify",
    "default_grid",
    "explicit_lambda_h",
    "explicit_uh",
    "flux_residual",
    "hardy_constant",
    "hardy_quotient_xi_n",
    "instability_witness_leq9",
    "integrate_ivp",
    "integrate_singular",
    "j0_zero",
    "make_ah",
    "morse_index",
    "parse_weight",
    "pohozaev_residual",
    "potential_from_shoot",
    "potential_from_singular",
    "ratio_derivative_sign",
    "reduce_to_disk",
    "refine_fold",
    "rescaled_profile",
    "residual_Uh",
    "singular_stability",
    "solution_stability",
    "trace_curve",
    "zero_number",
]
