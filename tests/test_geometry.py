"""Section/ring construction, classification and the walk along the section boundary."""

from __future__ import annotations

import math

import numpy as np
import pytest

from wiretwist import (
    InvalidGeometryError,
    SectionClass,
    SectionGeometry,
    WireRing,
    WrongSectionKindError,
    classify_section,
    theta_limits,
)
from wiretwist.geometry import boundary_walk

PI = math.pi


class TestSectionConstruction:
    def test_circular_valid(self):
        sec = SectionGeometry.circular(3.3)
        assert sec.r == 3.3
        assert sec.r_w is None

    def test_wire_race_valid(self):
        sec = SectionGeometry.wire_race(3.3, 9.9, 11.55, PI / 4)
        assert sec.rw_ratio == pytest.approx(3.0)
        assert sec.L_ratio == pytest.approx(3.5)

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
    def test_bad_section_radius(self, r):
        with pytest.raises(InvalidGeometryError):
            SectionGeometry.circular(r)

    @pytest.mark.parametrize("field", ["r", "r_w", "L", "gamma"])
    @pytest.mark.parametrize("bad", [True, False, "3.3", None, 1j])
    def test_non_real_section_value_rejected(self, field, bad):
        """bool would pass as 1 or 0 and a string would end in a bare TypeError."""
        values = dict(r=1.0, r_w=3.0, L=3.5, gamma=PI / 4)
        values[field] = bad
        with pytest.raises(InvalidGeometryError, match=field):
            SectionGeometry.wire_race(**values)

    def test_non_real_ratio_rejected(self):
        with pytest.raises(InvalidGeometryError):
            SectionGeometry.from_ratios(3, 3.5, True)

    def test_bool_circular_radius_rejected(self):
        with pytest.raises(InvalidGeometryError):
            SectionGeometry.circular(True)

    def test_bite_covering_center_rejected(self):
        """L <= r_w puts the section center inside the bite."""
        with pytest.raises(InvalidGeometryError, match="L > r_w"):
            SectionGeometry.wire_race(1.0, 3.0, 2.5, PI / 4)

    def test_hole_topology_rejected(self):
        """L + r_w <= r would cut a hole strictly inside the section."""
        with pytest.raises(InvalidGeometryError, match=r"L \+ r_w > r"):
            SectionGeometry.wire_race(10.0, 1.0, 2.0, PI / 4)

    def test_circular_refuses_bite_parameters(self):
        with pytest.raises(InvalidGeometryError):
            SectionGeometry(kind=SectionGeometry.circular(1.0).kind, r=1.0, r_w=2.0)

    def test_wire_race_requires_all_bite_parameters(self):
        from wiretwist import SectionKind

        with pytest.raises(InvalidGeometryError):
            SectionGeometry(kind=SectionKind.WIRE_RACE, r=1.0, r_w=3.0, L=3.5)


class TestClassifySection:
    def test_circular_is_full_circle(self):
        assert classify_section(SectionGeometry.circular(1.0)) is SectionClass.FULL_CIRCLE

    def test_tangent_bite_is_full_circle(self):
        """L - r_w = r exactly: the bite just misses the section."""
        sec = SectionGeometry.wire_race(1.0, 3.0, 4.0, PI / 4)
        assert classify_section(sec) is SectionClass.FULL_CIRCLE

    def test_partial_bite(self):
        sec = SectionGeometry.wire_race(1.0, 3.0, 3.5, PI / 4)
        assert classify_section(sec) is SectionClass.PARTIAL_BITE

    @pytest.mark.parametrize("k", [0.1, 0.5, 2.0, 3.3, 1000.0])
    def test_scale_invariance(self, k):
        """Multiplying (r, r_w, L) by k > 0 leaves the classification unchanged.

        Points sit away from the L - r_w = r boundary, where a one-ulp
        rounding of the scaled lengths can legitimately flip the class.
        """
        for rw, lr in [(3.0, 3.5), (2.0, 3.4), (2.2, 2.9)]:
            base = SectionGeometry.wire_race(1.0, rw, lr, PI / 4)
            scaled = SectionGeometry.wire_race(k, rw * k, lr * k, PI / 4)
            assert classify_section(scaled) is classify_section(base)


class TestBoundaryWalk:
    SHAPES = [(3.0, 0.5, PI / 4), (3.0, 0.05, PI / 4), (0.5, 0.001, PI / 2), (1e6, 0.3, 2.0)]

    @pytest.mark.parametrize("R", [None, 1.05, 227.0])
    def test_nodes_lie_on_their_circles(self, R):
        """Outer nodes at distance r from the centre, bite nodes at r_w from the bite centre."""
        for rw, x, gamma in self.SHAPES:
            sec = SectionGeometry.from_ratios(rw, rw + x, gamma)
            outer, bite = boundary_walk(sec, R)
            cx, cy = sec.L * math.cos(gamma), sec.L * math.sin(gamma)
            assert all(abs(math.hypot(px, py) - 1.0) < 1e-14 for px, py, _ in outer)
            assert all(abs(math.hypot(px - cx, py - cy) - sec.r_w) < 1e-14 * sec.r_w for px, py, _ in bite)
            # the outer arc stays out of the bite, the bite arc inside the section
            assert all(math.hypot(px - cx, py - cy) >= sec.r_w * (1.0 - 1e-14) for px, py, _ in outer)
            assert all(math.hypot(px, py) <= 1.0 + 1e-14 for px, py, _ in bite)

    @pytest.mark.parametrize("R", [None, 1.05, 227.0])
    def test_contour_encloses_the_section_area(self, R):
        """The contour integral of x dy is the area, pi r^2 less the lens."""
        for rw, x, gamma in self.SHAPES:
            sec = SectionGeometry.from_ratios(rw, rw + x, gamma)
            L = sec.L
            d = ((L - rw) * (L + rw) + 1.0) / (2.0 * L)  # common chord: distance, half-length h
            h = math.sqrt(1.0 - d * d)
            lens = math.acos(d) - d * h
            phi = math.atan2(h, L - d)  # segment of the bite disk, with its small-angle series
            lens += rw * rw * (phi - math.sin(phi) * math.cos(phi) if phi > 1e-3 else 2.0 * phi**3 / 3.0)
            area = sum(px * wdy for arc in boundary_walk(sec, R) for px, _, wdy in arc)
            assert area == pytest.approx(PI - lens, rel=1e-12)


class TestThetaLimits:
    def test_reference_case(self):
        """u = 4.25/7 for r_w/r=3, L/r=3.5: limits about -0.1329 and 1.7037."""
        sec = SectionGeometry.from_ratios(3.0, 3.5, PI / 4)
        t1, t2 = theta_limits(sec)
        u = (1.0 + 3.5**2 - 3.0**2) / (2.0 * 3.5)
        assert u == pytest.approx(4.25 / 7.0)
        assert t1 == pytest.approx(-0.1329, abs=1e-4)
        assert t2 == pytest.approx(1.7037, abs=1e-4)

    def test_against_bisection_root(self):
        """Limits must agree with a bisection solve for the rim point on the bite circle."""
        sec = SectionGeometry.from_ratios(3.0, 3.5, PI / 4)
        t1, t2 = theta_limits(sec)

        def f(theta):
            # squared distance of the rim point at theta from the bite centre, less r_w^2
            return sec.L**2 + sec.r**2 - 2.0 * sec.L * sec.r * math.cos(sec.gamma - theta) - sec.r_w**2

        lo, hi = sec.gamma, t2 + 0.2 * (t2 - sec.gamma)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        assert t2 == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_tangent_case_collapses(self):
        """L/r - r_w/r = 1: u = 1 and the arc collapses onto gamma."""
        sec = SectionGeometry.wire_race(1.0, 3.0, 4.0, PI / 4)
        t1, t2 = theta_limits(sec)
        assert t1 == PI / 4
        assert t2 == PI / 4

    def test_missing_bite_collapses(self):
        sec = SectionGeometry.from_ratios(3.0, 4.5, 0.3)
        assert theta_limits(sec) == (0.3, 0.3)

    def test_gamma_shift_equivariance(self):
        """Shifting gamma by delta shifts both limits by delta."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            rw = rng.uniform(1.5, 4.0)
            x = rng.uniform(0.05, 0.95)
            gamma = rng.uniform(0.0, PI)
            delta = rng.uniform(-2.0, 2.0)
            t1, t2 = theta_limits(SectionGeometry.from_ratios(rw, rw + x, gamma))
            s1, s2 = theta_limits(SectionGeometry.from_ratios(rw, rw + x, gamma + delta))
            assert s1 - t1 == pytest.approx(delta, abs=1e-12)
            assert s2 - t2 == pytest.approx(delta, abs=1e-12)

    def test_ordering_around_gamma(self, real_section):
        t1, t2 = theta_limits(real_section)
        assert t1 < real_section.gamma < t2

    def test_wrong_kind(self, circular_section):
        with pytest.raises(WrongSectionKindError):
            theta_limits(circular_section)


class TestWireRing:
    def test_valid(self, real_ring):
        assert real_ring.beta == pytest.approx(2.0 * PI / 82)

    def test_beta_consistent_with_z(self):
        for z in (1, 2, 41, 82, 500):
            ring = WireRing(227.0, z, 210000.0, SectionGeometry.circular(3.3))
            assert ring.beta == 2.0 * PI / z

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(R=0.0, Z=82, E=210000.0),
            dict(R=-5.0, Z=82, E=210000.0),
            dict(R=227.0, Z=0, E=210000.0),
            dict(R=227.0, Z=82, E=0.0),
            dict(R=2.0, Z=82, E=210000.0),  # R <= section radius
        ],
    )
    def test_invalid_ring(self, kwargs):
        with pytest.raises(InvalidGeometryError):
            WireRing(section=SectionGeometry.circular(3.3), **kwargs)

    @pytest.mark.parametrize("z", [True, False, 82.5, math.nan, math.inf, "82"])
    def test_non_integer_count_rejected(self, z):
        """Z=True would otherwise pass as one rolling element (beta = 2 pi)."""
        with pytest.raises(InvalidGeometryError):
            WireRing(227.0, z, 210000.0, SectionGeometry.circular(3.3))

    @pytest.mark.parametrize("field", ["R", "E"])
    @pytest.mark.parametrize("bad", [True, False, "227", None])
    def test_non_real_ring_value_rejected(self, field, bad):
        values = dict(R=227.0, Z=82, E=210000.0)
        values[field] = bad
        with pytest.raises(InvalidGeometryError, match=f"{field}="):
            WireRing(section=SectionGeometry.circular(3.3), **values)

    def test_integral_float_count_stored_as_int(self):
        ring = WireRing(227.0, 82.0, 210000.0, SectionGeometry.circular(3.3))
        assert ring.Z == 82 and type(ring.Z) is int
