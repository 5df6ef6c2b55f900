"""40-digit reference values of the section integral for tests/test_section_reference.py.

    python tests/section_reference.py

prints the ``CASES`` table that the test stores, so the test suite does not
need mpmath (``pip install .[reference]``).  Each row is
``(r, rw_ratio, x, gamma, I)`` for the section of radius r with
r_w = rw_ratio * r and L = (rw_ratio + x) * r, with I = II y^2 dA over the
disk of radius r minus the lens it shares with the bite disk.

The inputs are the exact floats that ``SectionGeometry.from_ratios(rw_ratio,
rw_ratio + x, gamma, r=r)`` stores; at r = 3.3 and r = 0.7 these are not
exact multiples of r, so the rows there pin I for the stored lengths, not
for the rounded ratios.
The method shares nothing with ``wiretwist``: the common chord splits the
lens into two circular segments, whose second moments have closed forms.
In the bite frame (s along the bite axis, w across it) the lens is mirror
symmetric, so II s w dA = 0 and

    I = pi/4 - sin^2(gamma) II_lens s^2 dA - cos^2(gamma) II_lens w^2 dA.

Moving the bite segment's moment to the section centre cancels about
2 log10(r_w/r) digits, and its angle is about r/r_w, so the segment terms
cancel about as many again; 80-digit arithmetic leaves well over 40.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 80

RW_RATIOS = [0.5 * (2e8) ** (k / 8) for k in range(9)]  # log-spaced from 0.5 to 1e8
X_VALUES = [1e-3, 0.05, 0.5, 0.99, 1.2]
GAMMAS = [math.radians(g) for g in (0.0, 45.0, 90.0, 150.0)]
# Deep bites (L^2 < r^2 + r_w^2) where the former polar split was off by 41.5%, 5.0% and 0.96%.
DEEP_ANCHORS = [(0.5, 0.001, math.radians(90.0)), (1.2, 0.05, 0.0), (3.0, 0.05, math.radians(45.0))]
RADII = [1.0, 3.3, 0.7]  # 1 keeps the ratios exact; the others are not powers of two
GRID = [(1.0, rw, x, g) for rw in RW_RATIOS for x in X_VALUES for g in GAMMAS]
GRID += [(1.0, *shape) for shape in DEEP_ANCHORS if (1.0, *shape) not in GRID]
GRID += [(r, rw, x, g) for r in RADII[1:] for rw in RW_RATIOS for x in X_VALUES for g in GAMMAS]


def _segment(a, t):
    """Segment {n >= t} of the disk of radius a: area, II n dA, II n^2 dA, II m^2 dA.

    n runs along the chord's normal from the disk centre, m along the chord.
    """
    phi = mp.acos(t / a)
    s = mp.sin(phi)
    area = a**2 * (phi - s * mp.cos(phi))
    first = 2 * a**3 * s**3 / 3
    nn = a**4 / 4 * (phi - mp.sin(4 * phi) / 4)
    mm = 2 * a**4 / 3 * (3 * phi / 8 - mp.sin(2 * phi) / 4 + mp.sin(4 * phi) / 32)
    return area, first, nn, mm


def section_integral(r, rw, x, gamma):
    """I of the section r, r_w = rw * r, L = (rw + x) * r (floats as stored) at angle gamma."""
    r_w, L = rw * r, (rw + x) * r  # the floats that from_ratios stores
    r = mp.mpf(r)
    r_w, L, gamma = mp.mpf(r_w) / r, mp.mpf(L) / r, mp.mpf(gamma)  # scaled exactly to r = 1
    if L - r_w >= 1:
        return r**4 * mp.pi / 4
    d = (L * L - r_w * r_w + 1) / (2 * L)  # the common chord's distance from the section centre
    _, _, ss_near, ww_near = _segment(mp.mpf(1), d)  # s = n
    area, first, nn, ww_far = _segment(r_w, L - d)  # s = L - n
    ss_far = L * L * area - 2 * L * first + nn
    return r**4 * (mp.pi / 4 - mp.sin(gamma) ** 2 * (ss_near + ss_far) - mp.cos(gamma) ** 2 * (ww_near + ww_far))


def main() -> None:
    print("CASES = [")
    for r, rw, x, gamma in GRID:
        print(f"    ({r!r}, {rw!r}, {x!r}, {gamma!r}, {mp.nstr(section_integral(r, rw, x, gamma), 40)}),")
    print("]")


if __name__ == "__main__":
    main()
