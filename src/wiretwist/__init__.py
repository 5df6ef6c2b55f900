"""Twisting stiffness of the steel wire raceway in wire-race ball bearings.

The wire raceway twists about its own circumferential axis when the rolling
elements load the conformal groove machined into it.  This package models
that twisting stiffness from a fibre-stretch deformation assumption:

* exact finite-angle torque by virtual work over the real cross-section,
* the small-angle stiffness constant K_T = (beta E / R) I with the polar
  section integral I split into a closed form plus 1-D quadrature,
* closed forms for the circular section and the fitted engineering formula,
* a full-factorial map of I/r^4 with a constrained least-squares surrogate,
* an independent brute-force differential-element oracle for cross-checks.

Units: mm, N, MPa, rad; stiffness in N*mm/rad.
"""

__version__ = "0.1.0"

from .doe import (
    DoeRow,
    DoeTable,
    SurrogateFit,
    fit_surrogate,
    run_doe,
    surrogate_integral,
)
from .errors import (
    DegenerateFitError,
    DomainError,
    InvalidGeometryError,
    OutOfValidatedRangeWarning,
    QuadratureNotConvergedError,
    WrongSectionKindError,
)
from .geometry import (
    SectionClass,
    SectionGeometry,
    SectionKind,
    WireRing,
    classify_section,
    rho_of_theta,
    theta_limits,
)
from .oracle import GridSpec, oracle_torque
from .quadrature import QuadratureScheme, QuadratureSpec, integrate
from .stiffness import (
    ENGINEERING_FIT_SLOPE,
    SectionIntegral,
    integral_bite_arc,
    integral_full_arc,
    section_integral,
    stiffness_circular,
    stiffness_engineering,
    stiffness_from_integral,
)
from .torque import TorqueCurve, delta_length, torque_curve, torque_full

__all__ = [
    "DegenerateFitError",
    "DoeRow",
    "DoeTable",
    "DomainError",
    "ENGINEERING_FIT_SLOPE",
    "GridSpec",
    "InvalidGeometryError",
    "OutOfValidatedRangeWarning",
    "QuadratureNotConvergedError",
    "QuadratureScheme",
    "QuadratureSpec",
    "SectionClass",
    "SectionGeometry",
    "SectionIntegral",
    "SectionKind",
    "SurrogateFit",
    "TorqueCurve",
    "WireRing",
    "WrongSectionKindError",
    "classify_section",
    "delta_length",
    "fit_surrogate",
    "integral_bite_arc",
    "integral_full_arc",
    "integrate",
    "oracle_torque",
    "rho_of_theta",
    "run_doe",
    "section_integral",
    "stiffness_circular",
    "stiffness_engineering",
    "stiffness_from_integral",
    "surrogate_integral",
    "theta_limits",
    "torque_curve",
    "torque_full",
]
