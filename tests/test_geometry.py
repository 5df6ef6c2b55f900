"""Section/ring construction, classification and bite-boundary geometry."""

from __future__ import annotations

import math

import numpy as np
import pytest

from wiretwist import (
    InvalidGeometryError,
    DomainError,
    SectionClass,
    SectionGeometry,
    WireRing,
    WrongSectionKindError,
    classify_section,
    rho_of_theta,
    theta_limits,
)

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


class TestRhoOfTheta:
    def test_symmetry_axis_value(self, real_section):
        """At theta = gamma: rho = L - r_w (1.65 mm for the reference section)."""
        rho = rho_of_theta(real_section, real_section.gamma)
        assert rho == pytest.approx(1.65, abs=1e-12)

    def test_equals_r_at_arc_limits(self, real_section):
        t1, t2 = theta_limits(real_section)
        assert rho_of_theta(real_section, t1) == pytest.approx(real_section.r, rel=1e-12)
        assert rho_of_theta(real_section, t2) == pytest.approx(real_section.r, rel=1e-12)

    def test_against_quadratic_root(self):
        """The closed form must match the smaller positive root of the
        law-of-cosines quadratic, solved independently."""
        sec = SectionGeometry.from_ratios(3.0, 3.5, PI / 4)
        theta = sec.gamma - 0.5
        roots = np.roots(
            [1.0, -2.0 * sec.L * math.cos(sec.gamma - theta), sec.L**2 - sec.r_w**2]
        )
        expected = min(root for root in roots.real if root > 0)
        assert rho_of_theta(sec, theta) == pytest.approx(expected, rel=1e-12)
        assert rho_of_theta(sec, theta) == pytest.approx(0.5847033, abs=1e-6)

    def test_domain_error_outside_bite_arc(self, real_section):
        """Perpendicular to the bite direction the ray misses the bite circle
        entirely (|sin(gamma - theta)| > r_w/L) and the sqrt argument is
        negative."""
        with pytest.raises(DomainError):
            rho_of_theta(real_section, real_section.gamma + PI / 2.0)

    def test_wrong_kind(self, circular_section):
        with pytest.raises(WrongSectionKindError):
            rho_of_theta(circular_section, 0.0)

    def test_law_of_cosines_residual(self):
        """rho plugged back into the law of cosines: residual < 1e-9 r_w^2."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            rw = rng.uniform(1.5, 4.0)
            x = rng.uniform(0.05, 0.95)
            gamma = rng.uniform(0.0, 2.0 * PI)
            sec = SectionGeometry.from_ratios(rw, rw + x, gamma)
            t1, t2 = theta_limits(sec)
            for frac in (0.01, 0.25, 0.5, 0.75, 0.99):
                theta = t1 + frac * (t2 - t1)
                rho = rho_of_theta(sec, theta)
                residual = sec.r_w**2 - (
                    sec.L**2 + rho**2 - 2.0 * sec.L * rho * math.cos(sec.gamma - theta)
                )
                assert abs(residual) < 1e-9 * sec.r_w**2
                assert 0.0 < rho <= sec.r * (1.0 + 1e-12)

    def test_minimum_at_gamma(self):
        """rho is minimal at theta = gamma, with value L - r_w."""
        sec = SectionGeometry.from_ratios(2.5, 3.1, 1.2)
        t1, t2 = theta_limits(sec)
        thetas = np.linspace(t1, t2, 201)
        rhos = np.array([rho_of_theta(sec, t) for t in thetas])
        assert rhos.min() == pytest.approx(sec.L - sec.r_w, rel=1e-9)
        assert abs(thetas[rhos.argmin()] - sec.gamma) < (t2 - t1) / 200.0


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
        """Limits must agree with a bisection solve of rho(theta) = r."""
        sec = SectionGeometry.from_ratios(3.0, 3.5, PI / 4)
        t1, t2 = theta_limits(sec)

        def f(theta):
            return rho_of_theta(sec, theta) - sec.r

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

    def test_integral_float_count_stored_as_int(self):
        ring = WireRing(227.0, 82.0, 210000.0, SectionGeometry.circular(3.3))
        assert ring.Z == 82 and type(ring.Z) is int
