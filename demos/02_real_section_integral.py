"""The real wire-race section: bite geometry and the section integral.

A real raceway wire is a circle of radius r with a conformal groove (the
"bite") machined into it: a second circle of radius r_w centered at distance
L from the section center, at angle gamma.  The stiffness-governing integral

    I = II y^2 dA = contour integral of x y^2 dy

(Green's theorem) is summed along the section's boundary: the section-circle
arc outside the bite and the bite arc inside the section, which meet at the
ends of the common chord.
"""

import math

from wiretwist import (
    SectionGeometry,
    WireRing,
    classify_section,
    section_integral,
    stiffness_circular,
    stiffness_engineering,
    stiffness_from_integral,
    theta_limits,
)


def main():
    # reference case: r_w/r = 3, L/r = 3.5, gamma = 45 deg, r = 3.3 mm
    sec = SectionGeometry.from_ratios(3.0, 3.5, math.pi / 4, r=3.3)
    print(f"section: r={sec.r} mm, r_w={sec.r_w:.2f} mm, L={sec.L:.2f} mm, gamma=45 deg")
    print(f"classification: {classify_section(sec).value}")

    t1, t2 = theta_limits(sec)
    print(f"the bite cuts the rim between theta1={t1:.4f} rad and theta2={t2:.4f} rad "
          f"(spans {math.degrees(t2 - t1):.1f} deg);")
    print(f"the groove bottom lies at L - r_w = {sec.L - sec.r_w:.2f} mm from the centre\n")

    integ = section_integral(sec)
    r4 = sec.r**4
    print("section integral, by boundary arc:")
    print(f"  section-circle arc = {integ.full_arc:.6f} mm^4")
    print(f"  bite arc           = {integ.bite_arc:.6f} mm^4  "
          f"(rounding bound {integ.est_error:.1e})")
    print(f"  total              = {integ.total:.6f} mm^4   I/r^4 = {integ.total / r4:.9f}")
    print(f"  full circle gives    {math.pi * r4 / 4:.6f} mm^4\n")

    ring = WireRing(227.0, 82, 210000.0, sec)
    k_num = stiffness_from_integral(ring, integ.total)
    k_eng = stiffness_engineering(ring)
    k_circ = stiffness_circular(WireRing(227.0, 82, 210000.0, SectionGeometry.circular(3.3)))
    print("twisting stiffness of one ball sector:")
    print(f"  uncut circular wire   K = {k_circ:7.1f} N*mm/rad")
    print(f"  real section, exact   K = {k_num:7.1f} N*mm/rad")
    print(f"  engineering formula   K = {k_eng:7.1f} N*mm/rad "
          f"({(k_eng - k_num) / k_num * 100:+.2f}% vs exact)")


if __name__ == "__main__":
    main()
