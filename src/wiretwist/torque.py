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

The contour is ``geometry.boundary_walk`` with the ring radius, whose panels
grade toward the point of smallest R + x, where P is near-singular as R/r
approaches 1: exact for every accepted section, deep bites included.

T(0) := 0.  K_origin = beta E M(0) = beta E II y^2/(R + x) dA is exact, with
beta E I / R its thin-ring limit.  Secant stiffnesses
T(+/-alpha_max)/(+/-alpha_max) differ for asymmetric (wire-race) sections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .geometry import WireRing, boundary_walk

if TYPE_CHECKING:
    import numpy as np

# g(u) = log1p u - u + u^2/2 = u^3 sum_j (-u)^j / (j + 3); for |u| < 0.25, 28 terms reach 1e-17.
# Highest power first, for Horner's rule.
_SERIES_COEFFS = tuple(1.0 / (j + 3) for j in reversed(range(28)))


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


def _moments(ring: WireRing) -> tuple[float, float, float]:
    """The alpha-free section moments (M0, Mc, Ms) [mm^3], see the module docstring."""
    R = ring.R
    terms = []
    for arc in boundary_walk(ring.section, R):
        for x, y, wdy in arc:
            u = x / R
            lg = math.log1p(u)
            if abs(u) < 0.25:
                series = 0.0
                for c in _SERIES_COEFFS:
                    series = c + series * -u
                g = u * u * u * series
            else:
                g = lg - u + 0.5 * u * u
            base, y2lg = R * R * g, y * y * lg
            terms.append((wdy * (base + y2lg), wdy * (base - y2lg), wdy * (2.0 * R * y * (0.5 * u * u - g))))
    return tuple(math.fsum(column) for column in zip(*terms))


def _torque(ring: WireRing, alpha: float, moments: tuple[float, float, float]) -> float:
    """T(alpha) = beta E 4 sin^2(alpha/2) / alpha * M(alpha/2), for alpha != 0."""
    m0, mc, ms = moments
    moment = 0.5 * (m0 - math.cos(alpha) * mc + math.sin(alpha) * ms)
    return ring.beta * ring.E * 4.0 * math.sin(0.5 * alpha) ** 2 / alpha * moment


def torque_full(ring: WireRing, alpha: float, quad=None) -> float:
    """Twisting moment at finite angle ``alpha`` [N*mm]; T(0) = 0 by continuity.

    Requires |alpha| < pi/2 (beyond that the fibre-stretch deformation
    assumption is meaningless).  ``quad`` is accepted and ignored until the
    benchmark stops passing it.
    """
    if not abs(alpha) < math.pi / 2.0:
        raise ValueError(f"twist angle must satisfy |alpha| < pi/2, got {alpha}")
    if alpha == 0.0:
        return 0.0
    return _torque(ring, alpha, _moments(ring))


def torque_curve(ring: WireRing, alpha_max: float, n_steps: int = 21) -> TorqueCurve:
    """Sample T(alpha) on [-alpha_max, +alpha_max] and derive stiffness constants.

    The grid is uniform and always contains alpha = 0 (an even ``n_steps``
    is rounded up to the next odd count).  Every sample comes from one
    evaluation of the section moments, so each equals ``torque_full``;
    K_origin = beta E (M0 - Mc)/2 exactly.
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
