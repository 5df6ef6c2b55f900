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
import sys
from dataclasses import dataclass

from .geometry import WireRing, boundary_walk

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

    alphas: tuple[float, ...]
    torques: tuple[float, ...]
    K_origin: float
    K_secant_pos: float
    K_secant_neg: float

    @property
    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.alphas, self.torques))


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
    """T(alpha) = beta E 4 sin^2(alpha/2) / alpha * M(alpha/2), for a normal alpha != 0.

    The factor is formed as (2 sin(alpha/2)) (2 sin(alpha/2) / alpha), which
    neither underflows nor goes subnormal for any normal alpha.
    """
    m0, mc, ms = moments
    moment = 0.5 * (m0 - math.cos(alpha) * mc + math.sin(alpha) * ms)
    chord = 2.0 * math.sin(0.5 * alpha)
    return ring.beta * ring.E * chord * (chord / alpha) * moment


def torque_full(ring: WireRing, alpha: float, quad=None) -> float:
    """Twisting moment at finite angle ``alpha`` [N*mm]; T(0) = 0 by continuity.

    Requires |alpha| < pi/2 (beyond that the fibre-stretch deformation
    assumption is meaningless) and rejects a subnormal alpha.  ``quad`` is
    accepted and ignored until the benchmark stops passing it.
    """
    if not abs(alpha) < math.pi / 2.0:
        raise ValueError(f"twist angle must satisfy |alpha| < pi/2, got {alpha}")
    if 0.0 < abs(alpha) < sys.float_info.min:
        raise ValueError(f"twist angle must be 0 or at least {sys.float_info.min} in magnitude, got {alpha}")
    if alpha == 0.0:
        return 0.0
    return _torque(ring, alpha, _moments(ring))


def torque_curve(ring: WireRing, alpha_max: float, n_steps: int = 21) -> TorqueCurve:
    """Sample T(alpha) on [-alpha_max, +alpha_max] and derive stiffness constants.

    The grid is uniform and always contains alpha = 0 (an even ``n_steps``
    is rounded up to the next odd count).  Every sample comes from one
    evaluation of the section moments, so each equals ``torque_full``;
    K_origin = beta E (M0 - Mc)/2 exactly.  Every nonzero sample must be a
    normal float: a grid step alpha_max/(n_steps//2) below the smallest one
    is rejected.
    """
    if not (0.0 < alpha_max < math.pi / 2.0):
        raise ValueError(f"alpha_max must lie in (0, pi/2), got {alpha_max}")
    if n_steps < 2:
        raise ValueError(f"n_steps must be >= 2, got {n_steps}")
    n = n_steps if n_steps % 2 == 1 else n_steps + 1
    half = (n - 1) // 2
    if alpha_max / half < sys.float_info.min:
        raise ValueError(
            f"the smallest twist angle alpha_max/{half} must be at least {sys.float_info.min}, "
            f"got {alpha_max / half}"
        )
    # the nodes of numpy.linspace(0, alpha_max, half + 1), bit for bit
    positive = [i * (alpha_max / half) for i in range(half)] + [alpha_max]
    alphas = tuple(-a for a in reversed(positive[1:])) + tuple(positive)

    moments = _moments(ring)
    torques = tuple(0.0 if a == 0.0 else _torque(ring, a, moments) for a in alphas)

    return TorqueCurve(
        alphas=alphas,
        torques=torques,
        K_origin=ring.beta * ring.E * 0.5 * (moments[0] - moments[1]),
        K_secant_pos=torques[-1] / alphas[-1],
        K_secant_neg=torques[0] / alphas[0],
    )
