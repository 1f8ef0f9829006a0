"""Radial Fourier transforms in any dimension.

Two routes to the same object: direct Hankel-type quadrature of the
transform integral, and the dimension-recursion lift that produces the
(n+2)-dimensional transform from the n-dimensional one by
-(1/(2 pi r)) d/dr.  Validated against the closed-form kernel catalog
(sech family, resolvents, spectral projections, wave propagators).

Importing the package loads the direct route alone: ``bessel``, ``expr``,
``quadrature`` and ``transform``.  The names exported from ``kernels`` and
``lift`` load their module on first use.
"""

import importlib

from .bessel import Order, bessel_j, bessel_j_tilde, bessel_zeros
from .expr import Expression, differentiate, evaluate, parse, simplify
from .quadrature import (QuadratureResult, QuadratureSpec, integrate_finite,
                         split_halfline_at_zeros)
from .transform import (AnalyticProfile, CallableProfile, RadialProfile,
                        SampledProfile, hankel, hankel_fourier_relation,
                        integrability_check, profile_from_text, radial_fourier,
                        radial_fourier_grid, radial_fourier_result,
                        sphere_surface, spherical_mean)

__version__ = "0.1.0"

# resolved on first access by ``__getattr__``
_KERNELS = (
    "resolvent_profile", "projection_profile", "heat_profile",
    "sech_transform_profile", "resolvent_kernel", "projection_kernel",
    "heat_kernel", "kernel_of_multiplier", "dalembert", "kirchhoff",
    "even_to_squared",
)
_LIFT = (
    "CoefficientTable", "corollary_coefficients", "iterate_operator_symbolic",
    "AnalyticEngine", "ChebyshevEngine", "CentralFDEngine",
    "lift_once", "lift_once_symbolic", "lift_prediff", "lift_to_dimension",
)
_LAZY = {**dict.fromkeys(_KERNELS, "kernels"), **dict.fromkeys(_LIFT, "lift")}

__all__ = [
    "Order", "bessel_j", "bessel_j_tilde", "bessel_zeros",
    "Expression", "parse", "evaluate", "differentiate", "simplify",
    *_KERNELS,
    *_LIFT,
    "QuadratureSpec", "QuadratureResult", "integrate_finite",
    "split_halfline_at_zeros",
    "RadialProfile", "AnalyticProfile", "SampledProfile", "CallableProfile",
    "profile_from_text", "radial_fourier", "radial_fourier_grid",
    "radial_fourier_result", "hankel",
    "hankel_fourier_relation", "integrability_check", "sphere_surface",
    "spherical_mean",
]


def __getattr__(name):
    """Load a ``kernels`` or ``lift`` export, and bind it here (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
