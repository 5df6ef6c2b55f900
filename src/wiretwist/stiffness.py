"""Section integral and twisting stiffness of the wire (small-angle model).

The geometric factor of the twisting stiffness is the polar section integral

    I = integral over the section of  rho^3 sin^2(theta)  d(rho) d(theta)   [mm^4]

evaluated as an exact closed form over the uncut arc plus 1-D quadrature
along the bite arc, where the upper rho-limit follows the bite boundary.
The stiffness constant of one rolling-element sector is then

    K_T = (beta E / R) I,     beta = 2 pi / Z     [N*mm/rad]

Closed forms:

* circular section:     K_T = (E r^4 / (Z R)) (pi^2 / 2)
* engineering surrogate: K_T = (E r^4 / (Z R)) (pi^2/2 - 0.72 pi [1 - (L/r - r_w/r)])
  with the bracket clamped at 0 once L/r - r_w/r >= 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import OutOfValidatedRangeWarning, WrongSectionKindError
from .geometry import (
    SectionClass,
    SectionGeometry,
    SectionKind,
    WireRing,
    classify_section,
    rho_of_theta,
    theta_limits,
)
from .quadrature import QuadratureSpec, integrate

# Slope of the fitted linear surrogate for I/r^4 against (L/r - r_w/r);
# recoverable from the full-factorial map in the doe module (fit gives ~0.359).
ENGINEERING_FIT_SLOPE = 0.36

# Validated range of the surrogate in terms of x = L/r - r_w/r.
VALIDATED_X_RANGE = (0.25, 1.0)


@dataclass(frozen=True)
class SectionIntegral:
    """Split of the section integral: uncut full-radius arc + bite arc.

    ``total = full_arc + bite_arc`` holds exactly by construction; for a
    full circle the bite part is zero and ``total = pi r^4 / 4``.
    """

    full_arc: float  # closed-form part over theta in [theta2, 2*pi + theta1] [mm^4]
    bite_arc: float  # quadrature part over theta in [theta1, theta2] [mm^4]
    est_error: float  # quadrature error estimate [mm^4]

    @property
    def total(self) -> float:
        return self.full_arc + self.bite_arc


def _r4(r: float) -> float:
    # (r*r)*(r*r) keeps scaling by powers of two exact, unlike pow()
    return (r * r) * (r * r)


def integral_full_arc(section: SectionGeometry) -> float:
    """Closed-form integral over the uncut arc (the whole circle if no bite).

        r^4/4 * (pi + (theta1 - theta2)/2 + (sin 2*theta2 - sin 2*theta1)/4)

    Collapses to pi r^4 / 4 when the bite arc is empty.  Depends only on the
    section, never on ring parameters.
    """
    quarter = 0.25 * _r4(section.r)
    if classify_section(section) is SectionClass.FULL_CIRCLE:
        return math.pi * quarter
    t1, t2 = theta_limits(section)
    return quarter * (
        math.pi + 0.5 * (t1 - t2) + 0.25 * (math.sin(2.0 * t2) - math.sin(2.0 * t1))
    )


def _bite_arc_with_error(
    section: SectionGeometry, quad: QuadratureSpec | None
) -> tuple[float, float]:
    if classify_section(section) is SectionClass.FULL_CIRCLE:
        return 0.0, 0.0
    # Integrate in ratio form on a unit-radius twin so the r^4 prefactor is
    # exact and the quadrature sees the same integrand for geometrically
    # similar sections.
    unit = SectionGeometry.from_ratios(section.rw_ratio, section.L_ratio, section.gamma)
    t1, t2 = theta_limits(unit)

    def f(theta: float) -> float:
        rho = rho_of_theta(unit, theta)
        s = math.sin(theta)
        return s * s * (rho * rho) * (rho * rho)

    value, err = integrate(f, t1, t2, quad)
    quarter = 0.25 * _r4(section.r)
    return quarter * value, quarter * err


def integral_bite_arc(section: SectionGeometry, quad: QuadratureSpec | None = None) -> float:
    """Quadrature integral along the bite arc, rho running up to the bite boundary.

        r^4/4 * int_{theta1}^{theta2} sin^2(theta) (rho(theta)/r)^4 d(theta)

    Returns 0 without integrating when the bite does not reach the section.
    """
    return _bite_arc_with_error(section, quad)[0]


def section_integral(
    section: SectionGeometry, quad: QuadratureSpec | None = None
) -> SectionIntegral:
    """Full section integral, split into its closed-form and quadrature parts."""
    if section.kind is SectionKind.CIRCULAR:
        return SectionIntegral(math.pi * 0.25 * _r4(section.r), 0.0, 0.0)
    bite, err = _bite_arc_with_error(section, quad)
    return SectionIntegral(integral_full_arc(section), bite, err)


def _surrogate_integral(r: float, x: float, slope: float) -> float:
    """Linear surrogate of I: r^4 (pi/4 - slope [1 - x]), clamped at pi r^4/4 for x >= 1."""
    return _r4(r) * (math.pi / 4.0 - slope * max(0.0, 1.0 - x))


def stiffness_from_integral(ring: WireRing, I: float) -> float:
    """Twisting stiffness K_T = (beta E / R) * I  [N*mm/rad]."""
    if I < 0:
        raise ValueError(f"section integral must be non-negative, got {I}")
    return ring.beta * ring.E / ring.R * I


def stiffness_circular(ring: WireRing) -> float:
    """Closed-form twisting stiffness for a circular section [N*mm/rad].

        K_T = (E r^4 / (Z R)) (pi^2 / 2)
    """
    if ring.section.kind is not SectionKind.CIRCULAR:
        raise WrongSectionKindError("stiffness_circular requires a circular section")
    return ring.E * _r4(ring.section.r) / (ring.Z * ring.R) * (math.pi * math.pi / 2.0)


def stiffness_engineering(ring: WireRing) -> float:
    """Engineering-formula twisting stiffness for a wire-race section [N*mm/rad].

        K_T = (E r^4 / (Z R)) (pi^2/2 - 0.72 pi [1 - (L/r - r_w/r)])

    The bracket is clamped at 0 for L/r - r_w/r >= 1, so the value matches
    the circular closed form there and stays continuous across the boundary.
    Outside the mapped range x in [0.25, 1] the value is still returned but
    an OutOfValidatedRangeWarning is emitted.
    """
    sec = ring.section
    if sec.kind is not SectionKind.WIRE_RACE:
        raise WrongSectionKindError("stiffness_engineering requires a wire-race section")
    x = sec.L_ratio - sec.rw_ratio
    lo, hi = VALIDATED_X_RANGE
    # 1e-12 slack keeps roundoff in ratios derived from absolute mm quiet
    if x < lo - 1e-12 or x > hi + 1e-12:
        warnings.warn(
            f"L/r - r_w/r = {x:.6g} lies outside the validated range [{lo}, {hi}]; "
            "the surrogate is extrapolating",
            OutOfValidatedRangeWarning,
            stacklevel=2,
        )
    return stiffness_from_integral(ring, _surrogate_integral(sec.r, x, ENGINEERING_FIT_SLOPE))
