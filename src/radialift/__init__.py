"""Radial Fourier transforms in any dimension.

Two routes to the same object: direct Hankel-type quadrature of the
transform integral, and the dimension-recursion lift that produces the
(n+2)-dimensional transform from the n-dimensional one by
-(1/(2 pi r)) d/dr.  Validated against the closed-form kernel catalog
(sech family, resolvents, spectral projections, wave propagators).
"""

from .bessel import Order, bessel_j, bessel_j_tilde, bessel_zeros
from .expr import Expression, differentiate, evaluate, parse, simplify
from .kernels import (dalembert, even_to_squared, heat_kernel, heat_profile,
                      kernel_of_multiplier, kirchhoff, projection_kernel,
                      projection_profile, resolvent_kernel, resolvent_profile,
                      sech_transform_profile)
from .lift import (AnalyticEngine, CentralFDEngine, ChebyshevEngine,
                   CoefficientTable, corollary_coefficients,
                   iterate_operator_symbolic, lift_once, lift_once_symbolic,
                   lift_prediff, lift_to_dimension)
from .quadrature import (QuadratureResult, QuadratureSpec, integrate_finite,
                         split_halfline_at_zeros)
from .transform import (AnalyticProfile, CallableProfile, RadialProfile,
                        SampledProfile, hankel, hankel_fourier_relation,
                        integrability_check, profile_from_text, radial_fourier,
                        radial_fourier_grid, radial_fourier_result,
                        sphere_surface, spherical_mean)

__version__ = "0.1.0"

__all__ = [
    "Order", "bessel_j", "bessel_j_tilde", "bessel_zeros",
    "Expression", "parse", "evaluate", "differentiate", "simplify",
    "resolvent_profile", "projection_profile", "heat_profile",
    "sech_transform_profile", "resolvent_kernel", "projection_kernel",
    "heat_kernel", "kernel_of_multiplier", "dalembert", "kirchhoff",
    "even_to_squared",
    "CoefficientTable", "corollary_coefficients", "iterate_operator_symbolic",
    "AnalyticEngine", "ChebyshevEngine", "CentralFDEngine",
    "lift_once", "lift_once_symbolic", "lift_prediff", "lift_to_dimension",
    "QuadratureSpec", "QuadratureResult", "integrate_finite",
    "split_halfline_at_zeros",
    "RadialProfile", "AnalyticProfile", "SampledProfile", "CallableProfile",
    "profile_from_text", "radial_fourier", "radial_fourier_grid",
    "radial_fourier_result", "hankel",
    "hankel_fourier_relation", "integrability_check", "sphere_surface",
    "spherical_mean",
]
