"""Finite-angle torque of the twisted wire and torque-angle curves.

Virtual work over the section gives the twisting moment at a finite angle
``alpha`` (undeformed section orientation, no large-displacement update):

    T(alpha) = (beta E / alpha) * II  (cos(theta+alpha) - cos(theta))^2
               / (R + rho cos(theta)) * rho^3  d(rho) d(theta)
             = beta E 4 sin^2(alpha/2) / alpha * M(alpha/2),
    M(phi)   = II sin^2(theta + phi) rho^3 / (R + rho cos(theta)) d(rho) d(theta).

The rho-integral is smooth and is done with a fixed 32-point Gauss rule; the
theta-integral uses the adaptive backend, split at the bite-arc limits where
the rho-limit is only C0.  Since sin^2(theta + phi) is a first harmonic in
2 phi, so is M: from the moments M0, M45, M90 at phi = 0, pi/4, pi/2,

    M(phi) = (M0 + M90)/2 + (M0 - M90)/2 cos 2phi + (M45 - (M0 + M90)/2) sin 2phi,

so a whole torque curve takes three quadratures.  All three integrands are
non-negative, so the relative tolerance keeps its meaning; the sin 2theta
moment, which vanishes for the circle, is never integrated directly.

T(0) := 0 by continuity.  The origin stiffness is exact, K_origin =
beta E M0 = beta E II y^2 / (R + x) dA, with the small-angle beta E I / R as
its thin-ring limit.  Secant stiffnesses are T(+/-alpha_max)/(+/-alpha_max)
and differ for asymmetric (wire-race) sections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    SectionClass,
    WireRing,
    classify_section,
    rho_of_theta,
    theta_limits,
)
from .quadrature import QuadratureSpec, integrate

_INNER_X, _INNER_W = np.polynomial.legendre.leggauss(32)


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


def _inner_rho_integral(R: float, theta: float, upper: float) -> float:
    """int_0^upper rho^3 / (R + rho cos(theta)) d(rho), fixed 32-point Gauss."""
    half = 0.5 * upper
    x = half * (_INNER_X + 1.0)
    return half * float(np.sum(_INNER_W * x**3 / (R + x * math.cos(theta))))


def _moment(ring: WireRing, phi: float, quad: QuadratureSpec | None) -> float:
    """Section moment M(phi) = int sin^2(theta + phi) h(theta) d(theta) [mm^3].

    h(theta) is the rho-integral of rho^3 / (R + rho cos(theta)) over the
    material; the theta-integral is split at the bite-arc limits.
    """
    section = ring.section
    R = ring.R
    r = section.r

    def g_full(theta: float) -> float:
        s = math.sin(theta + phi)
        return s * s * _inner_rho_integral(R, theta, r)

    if classify_section(section) is SectionClass.FULL_CIRCLE:
        return integrate(g_full, 0.0, 2.0 * math.pi, quad)[0]

    t1, t2 = theta_limits(section)

    def g_bite(theta: float) -> float:
        s = math.sin(theta + phi)
        return s * s * _inner_rho_integral(R, theta, rho_of_theta(section, theta))

    bite, _ = integrate(g_bite, t1, t2, quad)
    outer, _ = integrate(g_full, t2, t1 + 2.0 * math.pi, quad)
    return bite + outer


def _torque_from_moment(ring: WireRing, alpha: float, moment: float) -> float:
    """T(alpha) = beta E 4 sin^2(alpha/2) / alpha * M(alpha/2), for alpha != 0."""
    return ring.beta * ring.E * 4.0 * math.sin(0.5 * alpha) ** 2 / alpha * moment


def torque_full(ring: WireRing, alpha: float, quad: QuadratureSpec | None = None) -> float:
    """Twisting moment at finite angle ``alpha`` [N*mm]; T(0) = 0 by continuity.

    Requires |alpha| < pi/2 (beyond that the fibre-stretch deformation
    assumption is meaningless).
    """
    if not abs(alpha) < math.pi / 2.0:
        raise ValueError(f"twist angle must satisfy |alpha| < pi/2, got {alpha}")
    if alpha == 0.0:
        return 0.0
    return _torque_from_moment(ring, alpha, _moment(ring, 0.5 * alpha, quad))


def torque_curve(
    ring: WireRing,
    alpha_max: float,
    n_steps: int = 21,
    quad: QuadratureSpec | None = None,
) -> TorqueCurve:
    """Sample T(alpha) on [-alpha_max, +alpha_max] and derive stiffness constants.

    The grid is uniform and always contains alpha = 0 (an even ``n_steps``
    is rounded up to the next odd count).  Every sample comes from the three
    section moments M0, M45 and M90; K_origin = beta E M0 exactly.
    """
    if not (0.0 < alpha_max < math.pi / 2.0):
        raise ValueError(f"alpha_max must lie in (0, pi/2), got {alpha_max}")
    if n_steps < 2:
        raise ValueError(f"n_steps must be >= 2, got {n_steps}")

    n = n_steps if n_steps % 2 == 1 else n_steps + 1
    half = (n - 1) // 2
    positive = np.linspace(0.0, alpha_max, half + 1)
    alphas = np.concatenate([-positive[:0:-1], positive])

    m0, m45, m90 = (_moment(ring, phi, quad) for phi in (0.0, 0.25 * math.pi, 0.5 * math.pi))
    mean = 0.5 * (m0 + m90)
    cos_amp, sin_amp = 0.5 * (m0 - m90), m45 - mean
    # M(alpha/2) = mean + cos_amp cos(alpha) + sin_amp sin(alpha)
    torques = np.array([
        0.0 if a == 0.0
        else _torque_from_moment(ring, a, mean + cos_amp * math.cos(a) + sin_amp * math.sin(a))
        for a in alphas
    ])

    return TorqueCurve(
        alphas=alphas,
        torques=torques,
        K_origin=ring.beta * ring.E * m0,
        K_secant_pos=float(torques[-1] / alphas[-1]),
        K_secant_neg=float(torques[0] / alphas[0]),
    )
