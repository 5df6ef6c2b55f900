"""Finite-angle torque of the twisted wire and torque-angle curves.

Virtual work over the section gives the twisting moment at a finite angle
``alpha`` (undeformed section orientation, no large-displacement update):

    T(alpha) = beta E 4 sin^2(alpha/2) / alpha * M(alpha/2),
    M(phi)   = II sin^2(theta + phi) rho^2 / (R + x) dA = (M0 - cos 2phi Mc + sin 2phi Ms) / 2,

with M0, Mc, Ms = II {x^2 + y^2, x^2 - y^2, 2xy} / (R + x) dA free of alpha.
Green's theorem makes each the contour integral of P dy with dP/dx its
integrand; with u = x/R and g(u) = log1p u - u + u^2/2 (a series at small |u|,
where x^2/2 - R x + R^2 ln(R + x) would lose (R/r)^2 in relative accuracy)

    P0, Pc = R^2 g(u) +/- y^2 log1p u,    Ps = 2 y R (u^2/2 - g(u)).

The boundary is the section-circle arc outside the bite, counter-clockwise,
and the bite arc inside the section, clockwise: exact for every accepted
section, deep bites (L^2 < r^2 + r_w^2) included.  Both arcs are written
about their apex on the bite axis, so nothing cancels at large r_w/r, and
take fixed 32-point Gauss-Legendre panels graded toward the point of
smallest R + x, where P is near-singular as R/r approaches 1.

T(0) := 0.  K_origin = beta E M(0) = beta E II y^2/(R + x) dA is exact, with
beta E I / R its thin-ring limit.  Secant stiffnesses
T(+/-alpha_max)/(+/-alpha_max) differ for asymmetric (wire-race) sections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .geometry import SectionKind, WireRing
from .quadrature import _gauss_rule

if TYPE_CHECKING:
    import numpy as np

_GRADING = 0.25  # length ratio of consecutive panels toward the near-singular point
# g(u) = log1p u - u + u^2/2 = u^3 sum_j (-u)^j / (j + 3); for |u| < 0.25, 28 terms reach 1e-17
_SERIES_COEFFS = tuple(1.0 / (j + 3) for j in range(28))


@dataclass(frozen=True)
class TorqueCurve:
    """Sampled torque-angle curve with derived stiffness constants.

    Attributes:
        alphas: twist angles [rad], sorted ascending, including 0.
        torques: twisting moments [N*mm] matching ``alphas``; T(0) = 0.
        K_origin: exact slope dT/dalpha at alpha = 0, beta E II y^2/(R + x) dA
            [N*mm/rad]; its thin-ring limit is beta E I / R.
        K_secant_pos: T(+alpha_max)/alpha_max [N*mm/rad].
        K_secant_neg: T(-alpha_max)/(-alpha_max) [N*mm/rad].
    """

    alphas: np.ndarray
    torques: np.ndarray
    K_origin: float
    K_secant_pos: float
    K_secant_neg: float

    @property
    def samples(self) -> list[tuple[float, float]]:
        return [(float(a), float(t)) for a, t in zip(self.alphas, self.torques)]


def delta_length(rho: float, theta: float, alpha: float, ring: WireRing) -> float:
    """Length change of the fibre at (rho, theta) for twist angle alpha [mm].

        delta L = beta * rho * (cos(theta + alpha) - cos(theta))
    """
    return ring.beta * rho * (math.cos(theta + alpha) - math.cos(theta))


def _arc_moments(R: float, gamma: float, apex: float, radius: float, lo: float, hi: float):
    """Integrals of (P0, Pc, Ps) dy, tau from lo to hi, along the circle about
    s = apex + radius in the bite frame (s along the bite axis at angle gamma):
    s = apex + 2 radius sin^2(tau/2), w = -radius sin(tau)."""
    import numpy as np

    # Panels shrink by _GRADING toward t_star, the point of smallest R + x
    # (tau = -gamma or the nearer end), down to the tau-distance to its zero.
    cg, sg = math.cos(gamma), math.sin(gamma)
    t_star = min(max(-math.remainder(gamma, 2.0 * math.pi), lo), hi)
    s_star = apex + 2.0 * radius * math.sin(0.5 * t_star) ** 2
    depth = max(R + s_star * cg + radius * math.sin(t_star) * sg, 0.0) / radius
    reach = max(min(depth, math.sqrt(2.0 * depth)), 1e-15)
    edges = {lo, hi, t_star}
    for end in (lo, hi):
        span = end - t_star
        while abs(span) > reach:
            span *= _GRADING
            edges.add(t_star + span)
    edges = np.array(sorted(edges))

    nodes, weights = (np.array(v) for v in _gauss_rule(32))
    half = 0.5 * np.diff(edges)[:, None]
    tau = ((0.5 * (edges[1:] + edges[:-1]))[:, None] + half * nodes).ravel()
    wdy = (half * weights).ravel() * -radius * np.cos(tau + gamma)  # weight times dy/dtau
    s, w = apex + 2.0 * radius * np.sin(0.5 * tau) ** 2, -radius * np.sin(tau)
    x, y = s * cg - w * sg, s * sg + w * cg

    u = x / R
    lg = np.log1p(u)
    series = np.polynomial.polynomial.polyval(-u, _SERIES_COEFFS)
    g = np.where(np.abs(u) < 0.25, u * u * u * series, lg - u + 0.5 * u * u)
    base, y2lg = R * R * g, y * y * lg
    return wdy @ (base + y2lg), wdy @ (base - y2lg), wdy @ (2.0 * R * y * (0.5 * u * u - g))


def _moments(ring: WireRing) -> tuple[float, float, float]:
    """The alpha-free section moments (M0, Mc, Ms) [mm^3], see the module docstring."""
    sec, R, r = ring.section, ring.R, ring.section.r
    if sec.kind is SectionKind.CIRCULAR or sec.L - sec.r_w >= r:
        return tuple(float(m) for m in _arc_moments(R, 0.0, -r, r, -math.pi, math.pi))
    L, r_w, gamma = sec.L, sec.r_w, sec.gamma
    # common chord: distance d from the section centre, half-length h; r - (L - r_w) > 0 is the bite depth
    d = ((L - r_w) * (L + r_w) + r * r) / (2.0 * L)
    h = math.sqrt(max((r + d) * (r - (L - r_w)) * (r_w + L - r) / (2.0 * L), 0.0))
    outer = _arc_moments(R, gamma, -r, r, math.atan2(h, d) - math.pi, math.pi - math.atan2(h, d))
    bite = math.atan2(h, ((L - r) * (L + r) + r_w * r_w) / (2.0 * L))  # half-angle at the bite centre
    inner = _arc_moments(R, gamma, L - r_w, r_w, -bite, bite)  # taken clockwise below
    return tuple(float(a - b) for a, b in zip(outer, inner))


def _torque(ring: WireRing, alpha: float, moments: tuple[float, float, float]) -> float:
    """T(alpha) = beta E 4 sin^2(alpha/2) / alpha * M(alpha/2), for alpha != 0."""
    m0, mc, ms = moments
    moment = 0.5 * (m0 - math.cos(alpha) * mc + math.sin(alpha) * ms)
    return ring.beta * ring.E * 4.0 * math.sin(0.5 * alpha) ** 2 / alpha * moment


def torque_full(ring: WireRing, alpha: float, quad=None) -> float:
    """Twisting moment at finite angle ``alpha`` [N*mm]; T(0) = 0 by continuity.

    Requires |alpha| < pi/2 (beyond that the fibre-stretch deformation
    assumption is meaningless).  ``quad`` is accepted and ignored: the
    moments use a fixed rule and need no quadrature policy.
    """
    if not abs(alpha) < math.pi / 2.0:
        raise ValueError(f"twist angle must satisfy |alpha| < pi/2, got {alpha}")
    if alpha == 0.0:
        return 0.0
    return _torque(ring, alpha, _moments(ring))


def torque_curve(ring: WireRing, alpha_max: float, n_steps: int = 21, quad=None) -> TorqueCurve:
    """Sample T(alpha) on [-alpha_max, +alpha_max] and derive stiffness constants.

    The grid is uniform and always contains alpha = 0 (an even ``n_steps``
    is rounded up to the next odd count).  Every sample comes from one
    evaluation of the section moments, so each equals ``torque_full``;
    K_origin = beta E (M0 - Mc)/2 exactly.  ``quad`` is accepted and ignored.
    """
    if not (0.0 < alpha_max < math.pi / 2.0):
        raise ValueError(f"alpha_max must lie in (0, pi/2), got {alpha_max}")
    if n_steps < 2:
        raise ValueError(f"n_steps must be >= 2, got {n_steps}")
    import numpy as np

    n = n_steps if n_steps % 2 == 1 else n_steps + 1
    half = (n - 1) // 2
    positive = np.linspace(0.0, alpha_max, half + 1)
    alphas = np.concatenate([-positive[:0:-1], positive])

    moments = _moments(ring)
    torques = np.array([0.0 if a == 0.0 else _torque(ring, float(a), moments) for a in alphas])

    return TorqueCurve(
        alphas=alphas,
        torques=torques,
        K_origin=ring.beta * ring.E * 0.5 * (moments[0] - moments[1]),
        K_secant_pos=float(torques[-1] / alphas[-1]),
        K_secant_neg=float(torques[0] / alphas[0]),
    )
