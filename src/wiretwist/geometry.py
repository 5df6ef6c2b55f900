"""Wire cross-section and ring geometry, and the walk along the section's boundary.

The raceway wire has a circular cross-section of radius ``r`` from which a
conformal groove (the "bite") may be machined to seat the rolling element:
a second circle of radius ``r_w`` centered at distance ``L`` from the
section center, at polar angle ``gamma``.  The plain circular wire is the
section without a bite, and ``classify_section`` alone decides whether a
section is cut: a bite that misses the circle leaves it whole.  Coordinates
``(x, y)`` are attached to the section center, ``x`` pointing away from the
ring axis.

Units are fixed throughout the package: mm, N, MPa, rad.

Every section quantity is an area integral II f dA turned by Green's
theorem into the contour integral of P dy with dP/dx = f.  The boundary is
the section-circle arc outside the bite, counter-clockwise, and the bite arc
inside the section, clockwise; the arcs meet at the ends of the common chord.
``boundary_walk`` returns fixed Gauss-Legendre nodes on both arcs, which is
exact for every accepted section, deep bites (L^2 < r^2 + r_w^2) included.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidGeometryError
from .quadrature import GAUSS_32

_GRADING = 0.25  # length ratio of consecutive panels toward the point nearest the ring axis


def _is_real(value) -> bool:
    """A finite real number.  bool is an int subclass, but never a length, angle or count."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


class SectionClass(Enum):
    """How the bite circle intersects the section circle."""

    FULL_CIRCLE = "full_circle"  # bite misses the section (or no bite at all)
    PARTIAL_BITE = "partial_bite"  # bite removes a lens from the rim


@dataclass(frozen=True)
class SectionGeometry:
    """Wire cross-section: a circle of radius ``r``, cut by an optional bite.

    The bite is given by all three of ``r_w``, ``L`` and ``gamma``, or by
    none of them: the plain circular wire is the section with no bite.

    Attributes:
        r: section circle radius [mm].
        r_w: bite circle radius [mm], or None.
        L: distance from section center to bite center [mm], or None.
        gamma: polar angle of the bite center [rad], or None.
    """

    r: float
    r_w: float | None = None
    L: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if not (_is_real(self.r) and self.r > 0):
            raise InvalidGeometryError(f"section radius must be positive, got r={self.r!r}")
        bite = (self.r_w, self.L, self.gamma)
        if bite == (None, None, None):
            return
        if None in bite:
            raise InvalidGeometryError("a bite takes all of r_w, L and gamma, or none of them")
        for name, val in (("r_w", self.r_w), ("L", self.L), ("gamma", self.gamma)):
            if not _is_real(val):
                raise InvalidGeometryError(f"{name} must be a finite real number, got {val!r}")
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
        return cls(r)

    @classmethod
    def from_ratios(
        cls, rw_ratio: float, L_ratio: float, gamma: float, r: float = 1.0
    ) -> "SectionGeometry":
        """Build a bitten section from the dimensionless ratios r_w/r and L/r."""
        return cls(r, rw_ratio * r, L_ratio * r, gamma)

    @property
    def rw_ratio(self) -> float | None:
        """r_w / r, or None without a bite."""
        return None if self.r_w is None else self.r_w / self.r

    @property
    def L_ratio(self) -> float | None:
        """L / r, or None without a bite."""
        return None if self.L is None else self.L / self.r


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
        if not (_is_real(self.R) and self.R > 0):
            raise InvalidGeometryError(f"ring radius must be positive, got R={self.R!r}")
        if not (_is_real(self.Z) and int(self.Z) == self.Z and self.Z >= 1):
            raise InvalidGeometryError(f"rolling element count must be an integer >= 1, got Z={self.Z!r}")
        object.__setattr__(self, "Z", int(self.Z))
        if not (_is_real(self.E) and self.E > 0):
            raise InvalidGeometryError(f"Young's modulus must be positive, got E={self.E!r}")
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

    FULL_CIRCLE iff there is no bite or the bite circle does not reach into
    the section, i.e. L - r_w >= r (equivalently L/r - r_w/r >= 1).  This is
    the one test of whether a section is cut.  The remaining invalid
    configurations (bite covering the center, bite cutting a hole) are
    rejected at construction, so the classification is total.
    """
    if section.r_w is None or section.L - section.r_w >= section.r:
        return SectionClass.FULL_CIRCLE
    return SectionClass.PARTIAL_BITE


def theta_limits(section: SectionGeometry) -> tuple[float, float]:
    """Polar angles ``(theta1, theta2)`` where the bite circle crosses the section circle.

        theta_{1,2} = gamma -/+ arccos(u),
        u = (1 + (L/r)^2 - (r_w/r)^2) / (2 L/r)

    ``u`` above 1 (a bite that misses the section) is clamped to 1, so the
    limits collapse to ``(gamma, gamma)``.  Only the ``integral`` report
    prints them; no computation uses them.
    """
    if section.r_w is None:
        raise ValueError("theta_limits: the section has no bite")
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


Node = tuple[float, float, float]  # (x, y, Gauss weight times dy/dtau)


def boundary_walk(section: SectionGeometry, R: float | None = None) -> tuple[list[Node], list[Node]]:
    """Gauss nodes on the section's boundary: ``(outer, bite)``.

    ``outer`` runs counter-clockwise along the section-circle arc outside the
    bite, ``bite`` clockwise along the bite arc inside the section (its
    weights carry the sign); for an uncut section ``bite`` is empty.  For
    any ``P``, the contour integral of P dy is the sum of ``P(x, y) * wdy``
    over both lists.

    Both arcs are written about their apex on the bite axis, so nothing
    cancels at large r_w/r, and take 32-point Gauss-Legendre panels.  Given a
    ring radius ``R``, the panels are graded toward the point of smallest
    R + x, where an integrand with 1/(R + x) is near-singular as R/r
    approaches 1; without it each arc takes one panel on each side of its
    apex, exact to rounding for the polynomial integrands of area moments.
    """
    r = section.r
    if classify_section(section) is SectionClass.FULL_CIRCLE:
        return _arc(R, 0.0, -r, r, -math.pi, math.pi, 1.0), []
    L, r_w, gamma = section.L, section.r_w, section.gamma
    # common chord: distance d from the section centre, half-length h; r - (L - r_w) > 0 is the bite depth
    d = ((L - r_w) * (L + r_w) + r * r) / (2.0 * L)
    h = math.sqrt(max((r + d) * (r - (L - r_w)) * (r_w + L - r) / (2.0 * L), 0.0))
    outer = _arc(R, gamma, -r, r, math.atan2(h, d) - math.pi, math.pi - math.atan2(h, d), 1.0)
    half = math.atan2(h, ((L - r) * (L + r) + r_w * r_w) / (2.0 * L))  # half-angle at the bite centre
    return outer, _arc(R, gamma, L - r_w, r_w, -half, half, -1.0)


def _arc(R: float | None, gamma: float, apex: float, radius: float, lo: float, hi: float, sign: float) -> list[Node]:
    """Nodes for tau from lo to hi along the circle about s = apex + radius in the
    bite frame (s along the bite axis at angle gamma, w across it):
    s = apex + 2 radius sin^2(tau/2), w = -radius sin(tau)."""
    cg, sg = math.cos(gamma), math.sin(gamma)
    if R is None:
        edges = sorted({lo, 0.0, hi})  # one panel on each side of the apex
    else:
        # Panels shrink by _GRADING toward t_star, the point of smallest R + x
        # (tau = -gamma or the nearer end), down to the tau-distance to its zero.
        t_star = min(max(-math.remainder(gamma, 2.0 * math.pi), lo), hi)
        s_star = apex + 2.0 * radius * math.sin(0.5 * t_star) ** 2
        depth = max(R + s_star * cg + radius * math.sin(t_star) * sg, 0.0) / radius
        reach = max(min(depth, math.sqrt(2.0 * depth)), 1e-15)
        cuts = {lo, hi, t_star}
        for end in (lo, hi):
            span = end - t_star
            while abs(span) > reach:
                span *= _GRADING
                cuts.add(t_star + span)
        edges = sorted(cuts)

    nodes = []
    for a, b in zip(edges, edges[1:]):
        mid, half = 0.5 * (b + a), 0.5 * (b - a)
        for t, weight in GAUSS_32:
            tau = mid + half * t
            s, w = apex + 2.0 * radius * math.sin(0.5 * tau) ** 2, -radius * math.sin(tau)
            wdy = sign * (half * weight) * -radius * math.cos(tau + gamma)
            nodes.append((s * cg - w * sg, s * sg + w * cg, wdy))
    return nodes
