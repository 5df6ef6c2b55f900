"""Finite-angle torque, torque curves from three section moments, origin stiffness."""

from __future__ import annotations

import math

import numpy as np
import pytest

import wiretwist.torque as torque_module
from wiretwist import (
    SectionGeometry,
    WireRing,
    delta_length,
    section_integral,
    stiffness_circular,
    stiffness_from_integral,
    torque_curve,
    torque_full,
)
from conftest import REF_E, REF_GAMMA, REF_R, REF_Z

PI = math.pi


class TestDeltaLength:
    def test_zero_twist(self, circular_ring):
        assert delta_length(2.0, 1.0, 0.0, circular_ring) == 0.0

    def test_top_fibre_first_order(self, circular_ring):
        """At theta = pi/2 the fibre shortens by ~ beta*rho*alpha for small alpha."""
        alpha = 1e-6
        dl = delta_length(3.3, PI / 2.0, alpha, circular_ring)
        assert dl == pytest.approx(-circular_ring.beta * 3.3 * alpha, rel=1e-5)

    def test_reference_evaluation(self, circular_ring):
        """beta=2pi/82, rho=3.3, theta=pi/2, alpha=0.1 -> about -0.025243 mm."""
        dl = delta_length(3.3, PI / 2.0, 0.1, circular_ring)
        assert dl == pytest.approx(-0.025243, abs=2e-6)


class TestTorqueFull:
    def test_zero_angle_is_zero(self, circular_ring):
        assert torque_full(circular_ring, 0.0) == 0.0

    def test_angle_domain(self, circular_ring):
        with pytest.raises(ValueError):
            torque_full(circular_ring, PI / 2.0)
        with pytest.raises(ValueError):
            torque_full(circular_ring, -2.0)

    def test_small_angle_slope_matches_closed_form(self, circular_ring):
        """T/alpha at alpha = 1e-4 within 0.2% of the circular closed form."""
        alpha = 1e-4
        slope = torque_full(circular_ring, alpha) / alpha
        k8 = stiffness_circular(circular_ring)
        assert abs(slope - k8) / k8 < 2e-3

    def test_odd_symmetry_circular(self, circular_ring):
        for alpha in (0.01, 0.05, 0.2):
            t_pos = torque_full(circular_ring, alpha)
            t_neg = torque_full(circular_ring, -alpha)
            assert t_neg == pytest.approx(-t_pos, rel=1e-9)

    def test_sign_follows_alpha(self, real_ring):
        assert torque_full(real_ring, 0.05) > 0.0
        assert torque_full(real_ring, -0.05) < 0.0

    def test_full_circle_bite_equals_circular(self):
        """A wire-race section whose bite misses the wire behaves as circular."""
        degenerate = WireRing(
            REF_R, REF_Z, REF_E, SectionGeometry.from_ratios(3.0, 4.2, REF_GAMMA, r=3.3)
        )
        circular = WireRing(REF_R, REF_Z, REF_E, SectionGeometry.circular(3.3))
        assert torque_full(degenerate, 0.03) == pytest.approx(
            torque_full(circular, 0.03), rel=1e-12
        )

    def test_deviation_monotone_in_alpha_then_floors(self, circular_ring):
        """|T/alpha - K8|/K8 falls monotonically while the O(alpha^2) error
        dominates, then settles at the small curvature floor (~3.5e-5, the
        R-vs-(R + rho cos theta) correction the closed form drops)."""
        k8 = stiffness_circular(circular_ring)
        alphas = [0.1 / 2**k for k in range(9)]
        devs = [abs(torque_full(circular_ring, a) / a - k8) / k8 for a in alphas]
        assert devs[1] < devs[0]
        assert devs[2] < devs[1]
        assert all(d < 1e-4 for d in devs[2:])

    def test_deviation_monotone_in_ring_radius(self):
        """At fixed small alpha the closed-form deviation falls as R grows."""
        alpha = 0.002
        devs = []
        for factor in (1, 2, 4, 8):
            ring = WireRing(REF_R * factor, REF_Z, REF_E, SectionGeometry.circular(3.3))
            k8 = stiffness_circular(ring)
            devs.append(abs(torque_full(ring, alpha) / alpha - k8) / k8)
        assert all(b < a for a, b in zip(devs, devs[1:]))


class TestTorqueCurve:
    def test_passes_through_origin(self, circular_ring):
        curve = torque_curve(circular_ring, 0.05, n_steps=5)
        assert 0.0 in curve.alphas
        assert curve.torques[list(curve.alphas).index(0.0)] == 0.0

    def test_samples_sorted_and_symmetric_grid(self, circular_ring):
        curve = torque_curve(circular_ring, 0.1, n_steps=9)
        assert np.all(np.diff(curve.alphas) > 0)
        np.testing.assert_allclose(curve.alphas, -curve.alphas[::-1], atol=0)

    def test_even_step_count_normalized(self, circular_ring):
        curve = torque_curve(circular_ring, 0.1, n_steps=4)
        assert len(curve.alphas) == 5

    def test_origin_stiffness_circular(self, circular_ring):
        """K_origin within 0.5% of the circular closed form."""
        curve = torque_curve(circular_ring, 0.1, n_steps=3)
        k8 = stiffness_circular(circular_ring)
        assert abs(curve.K_origin - k8) / k8 < 5e-3

    def test_origin_stiffness_real_section(self, real_ring):
        """K_origin matches its thin-ring limit (beta E / R) I within 0.5% (R/r ~ 69)."""
        curve = torque_curve(real_ring, 0.1, n_steps=3)
        k_num = stiffness_from_integral(real_ring, section_integral(real_ring.section).total)
        assert abs(curve.K_origin - k_num) / k_num < 5e-3

    def test_secants_equal_for_circular(self, circular_ring):
        curve = torque_curve(circular_ring, 0.1, n_steps=5)
        assert curve.K_secant_pos == pytest.approx(curve.K_secant_neg, rel=1e-9)

    def test_secants_differ_for_real_section(self, real_ring):
        """The asymmetric section twists stiffer one way than the other."""
        curve = torque_curve(real_ring, 0.1, n_steps=5)
        rel_gap = abs(curve.K_secant_pos - curve.K_secant_neg) / curve.K_origin
        assert rel_gap > 0.01

    def test_parameter_validation(self, circular_ring):
        with pytest.raises(ValueError):
            torque_curve(circular_ring, 0.0)
        with pytest.raises(ValueError):
            torque_curve(circular_ring, 2.0)
        with pytest.raises(ValueError):
            torque_curve(circular_ring, 0.1, n_steps=1)

    @pytest.mark.parametrize("n_steps", [2, 3, 21, 101])
    def test_three_moments_for_any_step_count(self, real_ring, monkeypatch, n_steps):
        """The whole curve costs one evaluation of the three section moments."""
        calls = []
        moments = torque_module._moments

        def counting(ring):
            calls.append(ring)
            return moments(ring)

        monkeypatch.setattr(torque_module, "_moments", counting)
        torque_curve(real_ring, 0.1, n_steps=n_steps)
        assert calls == [real_ring]


CURVE_SECTIONS = {
    "circle": SectionGeometry.circular(3.3),
    "partial": SectionGeometry.from_ratios(3.0, 3.5, REF_GAMMA, r=3.3),
    "full": SectionGeometry.from_ratios(3.0, 4.2, REF_GAMMA, r=3.3),
}


@pytest.mark.parametrize("kind", sorted(CURVE_SECTIONS))
class TestCurveFromMoments:
    def test_samples_equal_torque_full(self, kind):
        ring = WireRing(REF_R, REF_Z, REF_E, CURVE_SECTIONS[kind])
        curve = torque_curve(ring, 0.3, n_steps=13)
        for alpha, torque in curve.samples:
            assert torque == pytest.approx(torque_full(ring, alpha), rel=1e-10, abs=0.0)

    def test_origin_stiffness_is_secant_limit(self, kind):
        """K_origin equals the central secant (T(a)/a + T(-a)/(-a))/2 at a = 1e-4."""
        ring = WireRing(REF_R, REF_Z, REF_E, CURVE_SECTIONS[kind])
        a = 1e-4
        secant = 0.5 * (torque_full(ring, a) / a + torque_full(ring, -a) / -a)
        assert torque_curve(ring, 0.1, n_steps=3).K_origin == pytest.approx(secant, rel=1e-7)


# Deep bites (L^2 < r^2 + r_w^2): rays near the bite arc pass through the bite
# and re-enter the material, which the old polar split missed by up to 7%.
# Values from the benchmark's exact ray-interval reference on the reference
# ring, alphas (-0.1, -0.05, 0.05, 0.1), made with
#   cd bench && python -c "import math; from reference import torque_ref; [print(s, (t := torque_ref(227.0, 82, 210000.0, [-0.1, -0.05, 0.05, 0.1], 3.3, s[0]*3.3, s[1]*3.3, math.radians(s[2])))[0].tolist(), t[1]) for s in [(3, 3.05, 45), (1.2, 1.25, 0), (0.5, 0.55, 90)]]"
DEEP_REFERENCE = {
    (3.0, 3.05, 45.0): (
        (-376.17062831600646, -187.20342746657286, 185.2035574173985, 368.1861377731511),
        3724.832090760575,
    ),
    (1.2, 1.25, 0.0): (
        (-488.2970923626351, -244.43872702707614, 244.43872702707614, 488.2970923626351),
        4890.710947596929,
    ),
    (0.5, 0.55, 90.0): (
        (-436.5733125034894, -218.26006842663264, 218.27634146317044, 436.638282678123),
        4365.131206921486,
    ),
}


@pytest.mark.parametrize("shape", sorted(DEEP_REFERENCE))
class TestDeepBite:
    @staticmethod
    def _ring(shape):
        rw, lr, gamma_deg = shape
        section = SectionGeometry.from_ratios(rw, lr, math.radians(gamma_deg), r=3.3)
        return WireRing(REF_R, REF_Z, REF_E, section)

    def test_curve_matches_reference(self, shape):
        torques, k_origin = DEEP_REFERENCE[shape]
        curve = torque_curve(self._ring(shape), 0.1, n_steps=5)
        got = [t for a, t in curve.samples if a != 0.0]
        assert got == pytest.approx(torques, rel=1e-10, abs=0.0)
        assert curve.K_origin == pytest.approx(k_origin, rel=1e-10, abs=0.0)

    def test_torque_full_matches_reference(self, shape):
        torques, _ = DEEP_REFERENCE[shape]
        ring = self._ring(shape)
        got = [torque_full(ring, a) for a in (-0.1, -0.05, 0.05, 0.1)]
        assert got == pytest.approx(torques, rel=1e-10, abs=0.0)
