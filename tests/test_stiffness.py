"""Section integral (one boundary walk) and the stiffness closed forms."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretwist import (
    OutOfValidatedRangeWarning,
    SectionGeometry,
    WireRing,
    section_integral,
    stiffness_circular,
    stiffness_engineering,
    stiffness_from_integral,
    surrogate_integral,
)
from conftest import GAMMA_CLASSES, REF_E, REF_GAMMA, REF_R, REF_Z

PI = math.pi


def brute_force_integral(section: SectionGeometry, n: int = 2000) -> float:
    """2-D midpoint Riemann sum of rho^3 sin^2(theta) over the material region.

    Independent of the boundary walk: membership is decided per cell
    by distance from the bite center.
    """
    r = section.r
    rho = (np.arange(n) + 0.5) * (r / n)
    theta = (np.arange(2 * n) + 0.5) * (2.0 * PI / (2 * n))
    P, T = np.meshgrid(rho, theta, indexing="ij")
    if section.r_w is not None:
        dist_sq = section.L**2 + P**2 - 2.0 * section.L * P * np.cos(section.gamma - T)
        material = dist_sq >= section.r_w**2
    else:
        material = np.ones_like(P, dtype=bool)
    integrand = P**3 * np.sin(T) ** 2
    return float(np.sum(integrand * material)) * (r / n) * (2.0 * PI / (2 * n))


class TestFullArcIntegral:
    """The contribution of the section-circle arc."""

    def test_unit_circle(self):
        assert section_integral(SectionGeometry.circular(1.0)).full_arc == pytest.approx(PI / 4)

    def test_circular_reference(self):
        value = section_integral(SectionGeometry.circular(3.3)).full_arc
        assert value == pytest.approx(PI * 3.3**4 / 4.0, rel=1e-14)
        assert value == pytest.approx(93.142, abs=1e-3)

    def test_full_circle_bite_case(self):
        sec = SectionGeometry.from_ratios(3.0, 4.0, PI / 4)
        assert section_integral(sec).full_arc == pytest.approx(PI / 4, rel=1e-14)


class TestBiteArcIntegral:
    """The contribution of the bite arc."""

    def test_full_circle_returns_zero_exactly(self):
        assert section_integral(SectionGeometry.from_ratios(2.0, 3.0, PI / 4)).bite_arc == 0.0

    def test_r4_scaling_exact(self):
        """Same ratios at r and 2r: the integral scales by exactly 16."""
        small = section_integral(SectionGeometry.from_ratios(3.0, 3.5, PI / 4, r=1.0))
        large = section_integral(SectionGeometry.from_ratios(3.0, 3.5, PI / 4, r=2.0))
        assert large.bite_arc == 16.0 * small.bite_arc
        assert large.total == 16.0 * small.total


class TestSectionIntegral:
    @pytest.mark.parametrize(
        "rw, x, expected",
        [
            (2.0, 0.25, 0.522088805),
            (2.5, 0.5, 0.604207922),
            (3.0, 0.5, 0.600254386),
            (2.5, 0.75, 0.705624706),
            (2.0, 1.0, PI / 4),
        ],
    )
    def test_benchmark_values(self, rw, x, expected):
        integ = section_integral(SectionGeometry.from_ratios(rw, rw + x, PI / 4))
        assert integ.total == pytest.approx(expected, abs=1e-9)

    def test_cross_validated_value_rw3_x025(self):
        """The (3, 3.25) point, whose published value is an erratum: the
        corrected value is confirmed by the closed form and a brute-force sum
        (see the conftest note)."""
        integ = section_integral(SectionGeometry.from_ratios(3.0, 3.25, PI / 4))
        assert integ.total == pytest.approx(0.508321853954, abs=1e-9)
        assert integ.total == pytest.approx(brute_force_integral(
            SectionGeometry.from_ratios(3.0, 3.25, PI / 4)), rel=1e-4)

    def test_split_adds_exactly(self, real_section):
        integ = section_integral(real_section)
        assert integ.total == integ.full_arc + integ.bite_arc

    @pytest.mark.parametrize("kind", ["circular", "real"])
    def test_split_consistency_vs_brute_force(self, kind, circular_section, real_section):
        """Total integral vs 2000x4000 masked Riemann sum: within 1e-4 relative."""
        sec = circular_section if kind == "circular" else real_section
        integ = section_integral(sec)
        assert integ.total == pytest.approx(brute_force_integral(sec, n=2000), rel=1e-4)

    def test_gamma_class_invariance(self):
        """I identical across the four symmetric gamma values."""
        base = section_integral(SectionGeometry.from_ratios(3.0, 3.5, GAMMA_CLASSES[0])).total
        for gamma in GAMMA_CLASSES[1:]:
            value = section_integral(SectionGeometry.from_ratios(3.0, 3.5, gamma)).total
            assert value == pytest.approx(base, rel=1e-9)

    def test_monotone_in_x(self):
        """I strictly increases with x = L/r - r_w/r at fixed r_w/r."""
        for rw in (2.0, 2.5, 3.0):
            xs = np.linspace(0.25, 1.0, 7)
            vals = [
                section_integral(SectionGeometry.from_ratios(rw, rw + x, PI / 4)).total
                for x in xs
            ]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_upper_bound_full_circle(self):
        """Removing material cannot increase the integral, deep bites and flat grooves included."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            rw = 0.5 * (2e8) ** rng.uniform(0.0, 1.0)  # r_w/r from 0.5 to 1e8
            x = 1.5 * rng.uniform(0.0, 1.0) ** 2  # bite depth, deep bites near x = 0 weighted up
            sec = SectionGeometry.from_ratios(rw, rw + max(x, 1e-9), rng.uniform(0, 2 * PI))
            total = section_integral(sec).total
            assert 0.0 < total <= PI / 4 + 1e-12

    def test_error_estimate_small(self, real_section):
        integ = section_integral(real_section)
        assert 0.0 < integ.est_error < 1e-8 * integ.total
        assert type(integ.est_error) is float


# Accepted shapes over the whole domain: r_w/r log-uniform in [0.5, 1e8], any bite angle.
rw_ratios = st.floats(math.log(0.5), math.log(1e8)).map(math.exp)
gammas = st.floats(-PI, PI)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rw_ratios, st.floats(1e-6, 1.5), gammas)
def test_section_integral_properties(rw, x, gamma):
    """I(gamma) + I(gamma + pi/2) is free of gamma; I is continuous where the bite turns
    deep (L^2 = r^2 + r_w^2) and where it leaves the section (L - r_w = r)."""

    def integral(L_ratio, angle):
        return section_integral(SectionGeometry.from_ratios(rw, L_ratio, angle)).total

    polar = integral(rw + x, gamma) + integral(rw + x, gamma + PI / 2)
    assert polar == pytest.approx(integral(rw + x, 0.0) + integral(rw + x, PI / 2), rel=1e-13)

    # Moving the bite by dL sweeps at most 2 pi dL of area, where y^2 <= 1: |dI| <= 2 pi |dL|.
    def step(L_ratio):
        dL = max(1e-9, 4.0 * math.ulp(L_ratio))
        return abs(integral(L_ratio + dL, gamma) - integral(L_ratio - dL, gamma)) / (2.0 * dL)

    deep = math.sqrt(1.0 + rw * rw)
    if deep - rw > 8.0 * max(1e-9, 4.0 * math.ulp(deep)):  # the boundary is representable in floats
        assert step(deep) <= 2.0 * PI
    assert step(rw + 1.0) <= 2.0 * PI


class TestStiffnessFromIntegral:
    def test_reference_value(self, real_ring):
        integ = section_integral(real_ring.section)
        k = stiffness_from_integral(real_ring, integ.total)
        assert k == pytest.approx(5046.0, abs=1.0)

    def test_matches_circular_closed_form(self, circular_ring):
        i_full = PI * 3.3**4 / 4.0
        assert stiffness_from_integral(circular_ring, i_full) == pytest.approx(
            stiffness_circular(circular_ring), rel=1e-14
        )

    def test_linear_in_E_exact(self, real_ring):
        doubled = WireRing(REF_R, REF_Z, 2.0 * REF_E, real_ring.section)
        assert stiffness_from_integral(doubled, 70.0) == 2.0 * stiffness_from_integral(
            real_ring, 70.0
        )

    def test_inverse_in_Z_exact(self, real_ring):
        doubled = WireRing(REF_R, 2 * REF_Z, REF_E, real_ring.section)
        assert stiffness_from_integral(doubled, 70.0) == 0.5 * stiffness_from_integral(
            real_ring, 70.0
        )

    def test_inverse_in_R_exact(self, real_ring):
        doubled = WireRing(2.0 * REF_R, REF_Z, REF_E, real_ring.section)
        assert stiffness_from_integral(doubled, 70.0) == 0.5 * stiffness_from_integral(
            real_ring, 70.0
        )

    def test_linear_in_I(self, real_ring):
        assert stiffness_from_integral(real_ring, 0.0) == 0.0
        k1 = stiffness_from_integral(real_ring, 35.0)
        assert stiffness_from_integral(real_ring, 70.0) == pytest.approx(2.0 * k1, rel=1e-15)

    def test_negative_integral_rejected(self, real_ring):
        with pytest.raises(ValueError):
            stiffness_from_integral(real_ring, -1.0)


class TestStiffnessCircular:
    def test_reference_value(self, circular_ring):
        assert stiffness_circular(circular_ring) == pytest.approx(6602.0, abs=1.0)

    def test_doubling_z_halves(self):
        base = WireRing(REF_R, REF_Z, REF_E, SectionGeometry.circular(3.3))
        doubled = WireRing(REF_R, 2 * REF_Z, REF_E, SectionGeometry.circular(3.3))
        assert stiffness_circular(doubled) == 0.5 * stiffness_circular(base)

    def test_doubling_r_times_16(self):
        base = WireRing(REF_R, REF_Z, REF_E, SectionGeometry.circular(3.3))
        big = WireRing(REF_R, REF_Z, REF_E, SectionGeometry.circular(6.6))
        assert stiffness_circular(big) == pytest.approx(16.0 * stiffness_circular(base), rel=1e-15)

    def test_wrong_kind(self, real_ring):
        """A cut ring gets the closed form of its uncut twin."""
        twin = WireRing(real_ring.R, real_ring.Z, real_ring.E, SectionGeometry.circular(real_ring.section.r))
        assert stiffness_circular(real_ring) == stiffness_circular(twin)


class TestStiffnessEngineering:
    def test_reference_value(self, real_ring):
        assert stiffness_engineering(real_ring) == pytest.approx(5089.0, abs=1.0)

    def test_x_quarter_value(self):
        """x = 0.25 evaluates to about 4333 N*mm/rad for the reference ring."""
        ring = WireRing(
            REF_R, REF_Z, REF_E, SectionGeometry.from_ratios(2.0, 2.25, REF_GAMMA, r=3.3)
        )
        assert stiffness_engineering(ring) == pytest.approx(4332.7, abs=0.5)

    def test_equals_circular_at_x_one(self):
        ring = WireRing(
            REF_R, REF_Z, REF_E, SectionGeometry.from_ratios(3.0, 4.0, REF_GAMMA, r=3.3)
        )
        circ = WireRing(REF_R, REF_Z, REF_E, SectionGeometry.circular(3.3))
        assert stiffness_engineering(ring) == pytest.approx(stiffness_circular(circ), rel=1e-14)

    def test_continuous_at_clamp(self):
        """No jump of the engineering formula across x = 1."""
        def k_at(x):
            ring = WireRing(
                REF_R, REF_Z, REF_E, SectionGeometry.from_ratios(3.0, 3.0 + x, REF_GAMMA, r=3.3)
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", OutOfValidatedRangeWarning)
                return stiffness_engineering(ring)

        below = k_at(1.0 - 1e-9)
        at = k_at(1.0)
        above = k_at(1.0 + 1e-9)
        assert below == pytest.approx(at, rel=1e-8)
        assert above == pytest.approx(at, rel=1e-12)

    @pytest.mark.parametrize("x", [0.1, 0.2, 1.1, 1.5])
    def test_out_of_range_warns(self, x):
        ring = WireRing(
            REF_R, REF_Z, REF_E, SectionGeometry.from_ratios(3.0, 3.0 + x, REF_GAMMA, r=3.3)
        )
        with pytest.warns(OutOfValidatedRangeWarning):
            stiffness_engineering(ring)

    @pytest.mark.parametrize("x", [0.25, 0.5, 1.0])
    def test_in_range_does_not_warn(self, x, recwarn):
        ring = WireRing(
            REF_R, REF_Z, REF_E, SectionGeometry.from_ratios(3.0, 3.0 + x, REF_GAMMA, r=3.3)
        )
        stiffness_engineering(ring)
        assert not [w for w in recwarn if issubclass(w.category, OutOfValidatedRangeWarning)]

    @pytest.mark.parametrize("x", [0.25, 0.6, 1.0, 1.3])
    def test_is_surrogate_integral_stiffness(self, x):
        """K_eng = (beta E / R) * surrogate I, the same surrogate the DOE module fits."""
        sec = SectionGeometry.from_ratios(3.0, 3.0 + x, REF_GAMMA, r=3.3)
        ring = WireRing(REF_R, REF_Z, REF_E, sec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OutOfValidatedRangeWarning)
            k_eng = stiffness_engineering(ring)
            k_surrogate = stiffness_from_integral(ring, surrogate_integral(sec))
        assert k_eng == pytest.approx(k_surrogate, rel=1e-14)

    def test_wrong_kind(self, circular_ring, recwarn):
        """An uncut ring sits at the anchor x = 1: the circular value, without a warning."""
        k_eng = stiffness_engineering(circular_ring)
        assert k_eng == pytest.approx(stiffness_circular(circular_ring), rel=1e-15)
        assert not [w for w in recwarn if issubclass(w.category, OutOfValidatedRangeWarning)]

    def test_surrogate_accuracy_on_grid(self):
        """Engineering formula within 2% of the quadrature stiffness at every
        factorial-map grid point."""
        for rw in (2.0, 2.5, 3.0):
            for x in (0.25, 0.5, 0.75, 1.0):
                sec = SectionGeometry.from_ratios(rw, rw + x, REF_GAMMA, r=3.3)
                ring = WireRing(REF_R, REF_Z, REF_E, sec)
                k_num = stiffness_from_integral(ring, section_integral(sec).total)
                k_eng = stiffness_engineering(ring)
                assert abs(k_eng - k_num) / k_num <= 0.02
