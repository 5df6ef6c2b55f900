"""Finite-angle torque curves: where the linear stiffness stops being the story.

The virtual-work torque integral is exact in the twist angle alpha.  For a
circular section T(alpha) is odd and the secant stiffness barely moves; the
bitten section is asymmetric, so twisting toward the groove differs from
twisting away from it and the two secant stiffnesses split.
"""

import math

from wiretwist import SectionGeometry, WireRing, torque_curve

REF = dict(R=227.0, Z=82, E=210000.0)


def describe(label, ring, alpha_max=0.1):
    curve = torque_curve(ring, alpha_max, n_steps=9)
    print(f"{label}:")
    print(f"  {'alpha [rad]':>12} {'T [N*mm]':>12} {'T/alpha':>10}")
    for a, t in curve.samples:
        slope = "" if a == 0.0 else f"{t / a:10.1f}"
        print(f"  {a:>12.4f} {t:>12.4f} {slope:>10}")
    print(f"  K_origin     = {curve.K_origin:9.2f} N*mm/rad  (exact, alpha -> 0)")
    print(f"  K_secant(+)  = {curve.K_secant_pos:9.2f} N*mm/rad  at +{alpha_max}")
    print(f"  K_secant(-)  = {curve.K_secant_neg:9.2f} N*mm/rad  at -{alpha_max}")
    gap = (curve.K_secant_pos - curve.K_secant_neg) / curve.K_origin
    print(f"  secant asymmetry = {gap * 100:+.2f}% of K_origin\n")
    return curve


def main():
    circular = WireRing(section=SectionGeometry.circular(3.3), **REF)
    real = WireRing(
        section=SectionGeometry.from_ratios(3.0, 3.5, math.pi / 4, r=3.3), **REF
    )

    c = describe("circular section", circular)
    r = describe("wire-race section (r_w/r=3, L/r=3.5, gamma=45 deg)", real)

    print("takeaways:")
    print(f"  - circular: secants match to {abs(c.K_secant_pos - c.K_secant_neg):.2e} "
          "(odd symmetry of T)")
    print("  - real section: the sign of the twist matters; a bearing model that")
    print("    linearizes at the origin should use K_origin, not a one-sided secant")


if __name__ == "__main__":
    main()
