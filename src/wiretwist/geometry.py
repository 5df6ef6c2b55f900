"""Wire cross-section and ring geometry.

The raceway wire has a circular cross-section of radius ``r`` from which a
conformal groove (the "bite") may be machined to seat the rolling element:
a second circle of radius ``r_w`` centered at distance ``L`` from the
section center, at polar angle ``gamma``.  Everything here works in polar
coordinates ``(rho, theta)`` attached to the section center.

Units are fixed throughout the package: mm, N, MPa, rad.

Key relations (law of cosines against the bite center):

    r_w^2 = L^2 + rho^2 - 2 L rho cos(gamma - theta)

solved for the near branch of the bite boundary

    rho(theta) = L cos(gamma - theta) - sqrt(r_w^2 - L^2 sin^2(gamma - theta))

and the bite arc ``[theta1, theta2]`` follows from rho(theta) = r.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, InvalidGeometryError, WrongSectionKindError

# |u| slightly above 1 at the tangency boundary is floating-point noise.
TANGENCY_TOL = 1e-12


class SectionKind(Enum):
    CIRCULAR = "circular"
    WIRE_RACE = "wire_race"


class SectionClass(Enum):
    """How the bite circle intersects the section circle."""

    FULL_CIRCLE = "full_circle"  # bite misses the section (or no bite at all)
    PARTIAL_BITE = "partial_bite"  # bite removes a lens from the rim


@dataclass(frozen=True)
class SectionGeometry:
    """Wire cross-section: a full circle, or a circle minus the bite circle.

    Attributes:
        kind: CIRCULAR (no bite) or WIRE_RACE (bite parameters present).
        r: section circle radius [mm].
        r_w: bite circle radius [mm] (WIRE_RACE only).
        L: distance from section center to bite center [mm] (WIRE_RACE only).
        gamma: polar angle of the bite center [rad] (WIRE_RACE only).
    """

    kind: SectionKind
    r: float
    r_w: float | None = None
    L: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0):
            raise InvalidGeometryError(f"section radius must be positive, got r={self.r}")
        if self.kind is SectionKind.CIRCULAR:
            if self.r_w is not None or self.L is not None or self.gamma is not None:
                raise InvalidGeometryError("circular sections take no bite parameters")
            return
        if self.r_w is None or self.L is None or self.gamma is None:
            raise InvalidGeometryError("wire-race sections require r_w, L and gamma")
        for name, val in (("r_w", self.r_w), ("L", self.L), ("gamma", self.gamma)):
            if not math.isfinite(val):
                raise InvalidGeometryError(f"{name} must be finite, got {val}")
        if self.r_w <= 0:
            raise InvalidGeometryError(f"bite radius must be positive, got r_w={self.r_w}")
        if self.L <= 0:
            raise InvalidGeometryError(f"bite center distance must be positive, got L={self.L}")
        if self.L <= self.r_w:
            raise InvalidGeometryError(
                "bite must not cover the section center: require L > r_w "
                f"(got L={self.L}, r_w={self.r_w})"
            )
        if self.L + self.r_w <= self.r:
            raise InvalidGeometryError(
                "bite strictly inside the section would cut a hole: require "
                f"L + r_w > r (got L={self.L}, r_w={self.r_w}, r={self.r})"
            )

    @classmethod
    def circular(cls, r: float) -> "SectionGeometry":
        return cls(SectionKind.CIRCULAR, r)

    @classmethod
    def wire_race(cls, r: float, r_w: float, L: float, gamma: float) -> "SectionGeometry":
        return cls(SectionKind.WIRE_RACE, r, r_w, L, gamma)

    @classmethod
    def from_ratios(
        cls, rw_ratio: float, L_ratio: float, gamma: float, r: float = 1.0
    ) -> "SectionGeometry":
        """Build a wire-race section from the dimensionless ratios r_w/r and L/r."""
        return cls(SectionKind.WIRE_RACE, r, rw_ratio * r, L_ratio * r, gamma)

    @property
    def rw_ratio(self) -> float:
        if self.kind is not SectionKind.WIRE_RACE:
            raise WrongSectionKindError("rw_ratio is defined for wire-race sections only")
        return self.r_w / self.r

    @property
    def L_ratio(self) -> float:
        if self.kind is not SectionKind.WIRE_RACE:
            raise WrongSectionKindError("L_ratio is defined for wire-race sections only")
        return self.L / self.r


@dataclass(frozen=True)
class WireRing:
    """Circumferential wire ring carrying one cross-section.

    Attributes:
        R: ring (circumferential) radius [mm]; must exceed the section radius
           so the fibre length R + rho*cos(theta) stays positive everywhere.
        Z: number of rolling elements; an integral float is stored as int.
        E: Young's modulus [MPa].
        section: the wire cross-section.
    """

    R: float
    Z: int
    E: float
    section: SectionGeometry

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0):
            raise InvalidGeometryError(f"ring radius must be positive, got R={self.R}")
        # bool is an int subclass, so Z=True would pass as one rolling element
        z = self.Z
        if isinstance(z, bool) or not (
            isinstance(z, numbers.Real) and math.isfinite(z) and int(z) == z and z >= 1
        ):
            raise InvalidGeometryError(f"rolling element count must be an integer >= 1, got Z={self.Z}")
        object.__setattr__(self, "Z", int(self.Z))
        if not (math.isfinite(self.E) and self.E > 0):
            raise InvalidGeometryError(f"Young's modulus must be positive, got E={self.E}")
        if self.R <= self.section.r:
            raise InvalidGeometryError(
                f"ring radius must exceed the section radius (got R={self.R}, r={self.section.r})"
            )

    @property
    def beta(self) -> float:
        """Span angle of one rolling-element sector [rad], always 2*pi/Z."""
        return 2.0 * math.pi / self.Z


def classify_section(section: SectionGeometry) -> SectionClass:
    """Classify how the bite intersects the section.

    FULL_CIRCLE iff the bite circle does not reach into the section,
    i.e. L - r_w >= r (equivalently L/r - r_w/r >= 1).  Circular sections
    are always FULL_CIRCLE.  The remaining invalid configurations (bite
    covering the center, bite cutting a hole) are rejected at construction,
    so the classification is total.
    """
    if section.kind is SectionKind.CIRCULAR:
        return SectionClass.FULL_CIRCLE
    if section.L - section.r_w >= section.r:
        return SectionClass.FULL_CIRCLE
    return SectionClass.PARTIAL_BITE


def rho_of_theta(section: SectionGeometry, theta: float) -> float:
    """Polar radius of the bite boundary at angle ``theta`` [mm].

    Near branch of the law-of-cosines quadratic:

        rho(theta) = L cos(gamma - theta) - sqrt(r_w^2 - L^2 sin^2(gamma - theta))

    Valid for PARTIAL_BITE sections and theta inside the bite arc; raises
    DomainError when the square-root argument is negative (theta outside
    the arc subtended by the bite).  Tiny negative arguments from roundoff
    at the arc edges are clamped to zero.
    """
    if section.kind is not SectionKind.WIRE_RACE:
        raise WrongSectionKindError("rho_of_theta requires a wire-race section")
    L, r_w, gamma = section.L, section.r_w, section.gamma
    s = L * math.sin(gamma - theta)
    disc = r_w * r_w - s * s
    if disc < -TANGENCY_TOL * r_w * r_w:
        raise DomainError(
            f"theta={theta} lies outside the bite arc (sqrt argument {disc} < 0)"
        )
    return L * math.cos(gamma - theta) - math.sqrt(max(disc, 0.0))


def theta_limits(section: SectionGeometry) -> tuple[float, float]:
    """Angular limits ``(theta1, theta2)`` of the bite arc, where rho(theta) = r.

        theta_{1,2} = gamma -/+ arccos(u),
        u = (1 + (L/r)^2 - (r_w/r)^2) / (2 L/r)

    ``|u|`` marginally above 1 (tangency, within 1e-12) is clamped to 1.
    For a bite that does not reach the section at all the arc is empty and
    the limits collapse to ``(gamma, gamma)``, which keeps the downstream
    integrals continuous across the full-circle boundary.
    """
    if section.kind is not SectionKind.WIRE_RACE:
        raise WrongSectionKindError("theta_limits requires a wire-race section")
    lr = section.L_ratio
    rw = section.rw_ratio
    u = (1.0 + lr * lr - rw * rw) / (2.0 * lr)
    if u > 1.0:
        u = 1.0
    elif u < -1.0:
        # cannot occur for constructed sections (needs r_w > L + r); guard anyway
        u = -1.0
    half = math.acos(u)
    return section.gamma - half, section.gamma + half
