"""40-digit reference values of the section moments for tests/test_moments.py.

    python tests/moment_reference.py

prints the ``CASES`` table that the test stores, so the test suite does not
need mpmath.  Each row is ``(rw_ratio, x, gamma, R, M0, Mc, Ms)`` for the
section r = 1, r_w = rw_ratio, L = rw_ratio + x (``None`` for the uncut
circle), where

    M0, Mc, Ms = II {x^2 + y^2, x^2 - y^2, 2 x y} / (R + x) dA.

The inputs are the exact floats that ``SectionGeometry.from_ratios`` stores.
The method shares nothing with ``wiretwist.torque`` beyond Green's theorem:
each moment is -(contour integral of Q dx) with Q the polynomial
y-antiderivative (x^2 y + y^3/3, x^2 y - y^3/3, x y^2) / (R + x), integrated
along each boundary arc in its circle's own polar angle by tanh-sinh
quadrature at 45 digits, split at the pole's nearest point x = -R with
nodes graded toward it.  A moment that vanishes by symmetry is written 0.0.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 45

CONDITIONING_GRID = [
    # nearly flat grooves: large r_w/r at three bite depths
    *[(rw, x, math.radians(30.0), 2.0) for rw in (10.0, 1e2, 1e4, 1e6) for x in (0.05, 0.5, 0.99)],
    # ring radius close to the wire radius, where the integrand's pole nears the
    # rim, and a thin ring, where x^2/2 - R x + R^2 ln(R + x) would cancel
    *[
        shape + (R,)
        for R in (1.5, 1.05, 1.001, 1.0 + 1e-6, 1e4)
        for shape in ((None, None, None), (3.0, 0.5, math.radians(45.0)), (3.0, 0.5, math.radians(150.0)))
    ],
]


def _arc(R, cx, cy, rad, t0, t1):
    """-(integral of (Q0, Qc, Qs) dx) along c + rad (cos t, sin t), t from t0 to t1."""
    lo, hi = min(t0, t1), max(t0, t1)
    pts = {lo, hi}
    pole = mp.pi + 2 * mp.pi * mp.ceil((lo - mp.pi) / (2 * mp.pi))  # x is smallest at t = pi
    while pole <= hi:
        pts.add(pole)
        pts |= {pole + s * mp.mpf(10) ** -e for e in range(1, 12) for s in (-1, 1)}
        pole += 2 * mp.pi
    pts = sorted(p for p in pts if lo <= p <= hi)

    def q(t, i):
        x, y = cx + rad * mp.cos(t), cy + rad * mp.sin(t)
        val = (x * x * y + y**3 / 3, x * x * y - y**3 / 3, x * y * y)[i] / (R + x)
        return val * rad * mp.sin(t)  # -Q dx/dt

    sign = 1 if t1 >= t0 else -1
    return [sign * mp.quad(lambda t: q(t, i), pts) for i in range(3)]


def moments(rw, x, gamma, R):
    """(M0, Mc, Ms) of the section r = 1, r_w = rw, L = rw + x at angle gamma."""
    R, r = mp.mpf(R), mp.mpf(1)
    if rw is None:
        return _arc(R, 0, 0, r, -mp.pi, mp.pi)
    r_w, L, gamma = mp.mpf(rw), mp.mpf(rw + x), mp.mpf(gamma)
    d = (L * L - r_w * r_w + r * r) / (2 * L)  # the common chord's distance from the centre
    h = mp.sqrt(r * r - d * d)
    a, b = mp.atan2(h, d), mp.atan2(h, L - d)
    outer = _arc(R, 0, 0, r, gamma + a, gamma + 2 * mp.pi - a)  # counter-clockwise
    bite = _arc(R, L * mp.cos(gamma), L * mp.sin(gamma), r_w, gamma + mp.pi + b, gamma + mp.pi - b)
    return [u + v for u, v in zip(outer, bite)]


def main() -> None:
    print("CASES = [")
    for rw, x, gamma, R in CONDITIONING_GRID:
        m = moments(rw, x, gamma, R)
        vals = [0.0 if abs(v) < 1e-30 * abs(m[0]) else float(v) for v in m]
        print(f"    ({rw!r}, {x!r}, {gamma!r}, {R!r}, {vals[0]!r}, {vals[1]!r}, {vals[2]!r}),")
    print("]")


if __name__ == "__main__":
    main()
