"""References owned by the benchmark; no code here is shared with ``wiretwist``.

Both references treat the section as region algebra: the disk of radius ``r``
at the origin minus its intersection (the lens) with the bite disk of radius
``r_w`` centred at distance ``L`` along angle ``gamma``.  Neither assumes that
a ray from the centre leaves the material at the near branch of the bite,
so both stay exact for deep bites (``L^2 < r^2 + r_w^2``).

* ``second_moment`` -- ``I = integral of y^2 dA`` in closed form.  The lens
  splits along the common chord into two circular segments, each with the
  standard segment area, first and second moments (Roark, *Formulas for
  Stress and Strain*, Table A.1); the parallel-axis theorem moves them onto
  the section's x-axis.
* ``torque_ref`` -- the finite-angle torque and origin stiffness on a grid
  of rays.  Along each ray the material is one or two exact rho-intervals;
  the rho-integral is a 16-point Gauss rule on each interval, and theta is
  split at every angle where the intervals change shape (bite-arc limits and
  tangent rays), with a 64-point Gauss rule on each piece after a smoothstep
  substitution that absorbs the square-root behaviour at tangent rays.
"""

from __future__ import annotations

import math

import numpy as np

_RHO_X, _RHO_W = np.polynomial.legendre.leggauss(16)
_TH_X, _TH_W = np.polynomial.legendre.leggauss(64)


def _segment_moments(a: float, t: float) -> tuple[float, float, float, float]:
    """Moments of the segment {s^2 + w^2 < a^2, s > t} in its local frame.

    Returns (area, integral of s, integral of s^2, integral of w^2).
    """
    phi = math.acos(max(-1.0, min(1.0, t / a)))
    s, c = math.sin(phi), math.cos(phi)
    a2 = a * a
    area = a2 * (phi - s * c)
    first = 2.0 / 3.0 * a2 * a * s**3
    i_ss = a2 * a2 / 4.0 * (phi - s * c + 2.0 * s**3 * c)
    i_ww = a2 * a2 / 12.0 * (3.0 * phi - 3.0 * s * c - 2.0 * s**3 * c)
    return area, first, i_ss, i_ww


def _segment_y2(cx: float, cy: float, nx: float, ny: float, a: float, t: float) -> float:
    """Integral of y^2 over {|p - c| < a, (p - c).n > t} in global coordinates.

    With y = cy + s*ny + w*nx, the cross terms in w vanish by symmetry.
    """
    area, first, i_ss, i_ww = _segment_moments(a, t)
    return cy * cy * area + 2.0 * cy * ny * first + ny * ny * i_ss + nx * nx * i_ww


def second_moment(r: float, r_w: float | None = None, L: float | None = None,
                  gamma: float | None = None) -> float:
    """Exact ``I = integral of y^2 dA`` of the section [mm^4]."""
    full = math.pi * r**4 / 4.0
    if r_w is None or L >= r + r_w:
        return full
    ux, uy = math.cos(gamma), math.sin(gamma)
    d1 = (L * L + r * r - r_w * r_w) / (2.0 * L)  # common chord, from the origin
    lens = _segment_y2(0.0, 0.0, ux, uy, r, d1) + _segment_y2(
        L * ux, L * uy, -ux, -uy, r_w, L - d1
    )
    return full - lens


def _breakpoints(r: float, r_w: float, L: float, gamma: float) -> np.ndarray:
    """Angles in [gamma - pi, gamma + pi] where the ray intervals change shape."""
    pts = [-math.pi, math.pi]
    if L < r + r_w:
        u = (r * r + L * L - r_w * r_w) / (2.0 * L * r)
        half = math.acos(max(-1.0, min(1.0, u)))
        tang = math.asin(r_w / L)
        pts += [-half, half, -tang, tang]
    return gamma + np.unique(np.array(pts))


def _ray_intervals(theta: np.ndarray, r: float, r_w: float | None, L: float | None,
                   gamma: float | None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Material rho-intervals [lo, hi] along each ray; empty ones have lo == hi."""
    zero = np.zeros_like(theta)
    full = np.full_like(theta, r)
    if r_w is None:
        return [(zero, full)]
    phi = theta - gamma
    disc = r_w * r_w - (L * np.sin(phi)) ** 2
    hits = (disc > 0.0) & (np.cos(phi) > 0.0)
    root = np.sqrt(np.where(hits, disc, 0.0))
    near = np.where(hits, np.minimum(r, L * np.cos(phi) - root), r)
    far = np.where(hits, np.minimum(r, L * np.cos(phi) + root), r)
    return [(zero, near), (far, full)]


def _rho_integral(lo: np.ndarray, hi: np.ndarray, weight) -> np.ndarray:
    half = 0.5 * (hi - lo)
    rho = 0.5 * (hi + lo)[:, None] + half[:, None] * _RHO_X[None, :]
    return half * (weight(rho) @ _RHO_W)


def _theta_nodes(r, r_w, L, gamma) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights in theta over one full turn."""
    edges = _breakpoints(r, r_w, L, gamma) if r_w is not None else np.array([0.0, 2 * math.pi])
    s = 0.5 * (_TH_X + 1.0)
    ds = 0.5 * _TH_W * 6.0 * s * (1.0 - s)  # smoothstep 3s^2 - 2s^3
    step = 3.0 * s * s - 2.0 * s**3
    thetas, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        thetas.append(a + (b - a) * step)
        weights.append((b - a) * ds)
    return np.concatenate(thetas), np.concatenate(weights)


def second_moment_by_rays(r, r_w=None, L=None, gamma=None) -> float:
    """``I`` by the ray quadrature, to check it against ``second_moment``."""
    theta, w = _theta_nodes(r, r_w, L, gamma)
    f = sum(
        _rho_integral(lo, hi, lambda rho: rho**3)
        for lo, hi in _ray_intervals(theta, r, r_w, L, gamma)
    )
    return float(np.sum(w * np.sin(theta) ** 2 * f))


def torque_ref(R: float, Z: int, E: float, alphas, r: float, r_w=None, L=None,
               gamma=None) -> tuple[np.ndarray, float]:
    """Torques T(alpha) [N*mm] at each of ``alphas`` and K_origin [N*mm/rad].

        T(alpha) = beta E (4 sin^2(alpha/2) / alpha)
                   * II sin^2(theta + alpha/2) rho^3 / (R + rho cos theta)
        K_origin = beta E II sin^2(theta) rho^3 / (R + rho cos theta)
    """
    beta = 2.0 * math.pi / Z
    theta, w = _theta_nodes(r, r_w, L, gamma)
    c = np.cos(theta)[:, None]
    g = w * sum(
        _rho_integral(lo, hi, lambda rho: rho**3 / (R + rho * c))
        for lo, hi in _ray_intervals(theta, r, r_w, L, gamma)
    )
    alphas = np.asarray(alphas, dtype=float)
    torques = np.zeros_like(alphas)
    for i, a in enumerate(alphas):
        if a != 0.0:
            h = 0.5 * a
            torques[i] = beta * E * 4.0 * math.sin(h) ** 2 / a * np.sum(g * np.sin(theta + h) ** 2)
    k_origin = beta * E * float(np.sum(g * np.sin(theta) ** 2))
    return torques, k_origin
