"""Section integral and twisting stiffness of the wire (small-angle model).

The geometric factor of the twisting stiffness is the section integral

    I = II y^2 dA = contour integral of x y^2 dy   [mm^4]

(Green's theorem), summed over the nodes of ``geometry.boundary_walk``: the
integrand is a trigonometric polynomial of degree 4 along each arc, so one
32-point Gauss-Legendre panel per arc is exact to rounding, deep bites
included.  The stiffness constant of one rolling-element sector is then

    K_T = (beta E / R) I,     beta = 2 pi / Z     [N*mm/rad]

Closed forms:

* uncut circle of radius r: K_T = (E r^4 / (Z R)) (pi^2 / 2), for any ring
* engineering surrogate: K_T = (E r^4 / (Z R)) (pi^2/2 - 0.72 pi [1 - (L/r - r_w/r)])
  with the bracket clamped at 0 once L/r - r_w/r >= 1 (no bite: x = 1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import OutOfValidatedRangeWarning
from .geometry import SectionGeometry, WireRing, boundary_walk

# Slope of the fitted linear surrogate for I/r^4 against (L/r - r_w/r);
# recoverable from the full-factorial map in the doe module (fit gives ~0.359).
ENGINEERING_FIT_SLOPE = 0.36

# Validated range of the surrogate in terms of x = L/r - r_w/r.
VALIDATED_X_RANGE = (0.25, 1.0)


@dataclass(frozen=True)
class SectionIntegral:
    """The section integral as the contributions of the two boundary arcs.

    ``total = full_arc + bite_arc``; for an uncut section (no bite, or a
    bite that misses it) the bite part is zero and ``total`` is pi r^4 / 4
    to rounding.
    """

    full_arc: float  # contour integral along the section-circle arc [mm^4]
    bite_arc: float  # contour integral along the bite arc [mm^4]
    est_error: float  # rounding bound n u sum |w_i f_i| over the n nodes, u = 2^-53 [mm^4]

    @property
    def total(self) -> float:
        return self.full_arc + self.bite_arc


def _r4(r: float) -> float:
    # (r*r)*(r*r) keeps scaling by powers of two exact, unlike pow()
    return (r * r) * (r * r)


def section_integral(section: SectionGeometry, quad=None) -> SectionIntegral:
    """I = II y^2 dA [mm^4], split by boundary arc, with its rounding bound.

    Walks the section's own lengths, so no ratio is rounded on the way.
    ``quad`` is accepted and ignored until the benchmark stops passing it.
    """
    parts, magnitude, count = [], 0.0, 0
    for arc in boundary_walk(section):
        terms = [x * y * y * wdy for x, y, wdy in arc]
        parts.append(math.fsum(terms))
        magnitude += math.fsum(abs(t) for t in terms)
        count += len(terms)
    return SectionIntegral(parts[0], parts[1], count * 2.0**-53 * magnitude)


def _bite_x(section: SectionGeometry) -> float:
    """x = L/r - r_w/r, with no bite at the surrogate's anchor x = 1."""
    return 1.0 if section.r_w is None else section.L_ratio - section.rw_ratio


def _surrogate_integral(r: float, x: float, slope: float) -> float:
    """Linear surrogate of I: r^4 (pi/4 - slope [1 - x]), clamped at pi r^4/4 for x >= 1."""
    return _r4(r) * (math.pi / 4.0 - slope * max(0.0, 1.0 - x))


def stiffness_from_integral(ring: WireRing, I: float) -> float:
    """Twisting stiffness K_T = (beta E / R) * I  [N*mm/rad]."""
    if I < 0:
        raise ValueError(f"section integral must be non-negative, got {I}")
    return ring.beta * ring.E / ring.R * I


def stiffness_circular(ring: WireRing) -> float:
    """Closed-form twisting stiffness of the uncut circle of radius r [N*mm/rad].

        K_T = (E r^4 / (Z R)) (pi^2 / 2)

    Any bite of ``ring.section`` is ignored.
    """
    return ring.E * _r4(ring.section.r) / (ring.Z * ring.R) * (math.pi * math.pi / 2.0)


def stiffness_engineering(ring: WireRing) -> float:
    """Engineering-formula twisting stiffness [N*mm/rad].

        K_T = (E r^4 / (Z R)) (pi^2/2 - 0.72 pi [1 - (L/r - r_w/r)])

    The bracket is clamped at 0 for L/r - r_w/r >= 1, so the value matches
    the circular closed form there and stays continuous across the boundary;
    a section without a bite sits at the anchor x = 1.  Outside the mapped range x in [0.25, 1] the value is still returned but
    an OutOfValidatedRangeWarning is emitted.
    """
    x = _bite_x(ring.section)
    lo, hi = VALIDATED_X_RANGE
    # 1e-12 slack keeps roundoff in ratios derived from absolute mm quiet
    if x < lo - 1e-12 or x > hi + 1e-12:
        warnings.warn(
            f"L/r - r_w/r = {x:.6g} lies outside the validated range [{lo}, {hi}]; "
            "the surrogate is extrapolating",
            OutOfValidatedRangeWarning,
            stacklevel=2,
        )
    return stiffness_from_integral(ring, _surrogate_integral(ring.section.r, x, ENGINEERING_FIT_SLOPE))
