"""Brute-force differential-element oracle and its agreement with quadrature."""

from __future__ import annotations

import math

import pytest

from wiretwist import (
    GridSpec,
    SectionGeometry,
    WireRing,
    oracle_torque,
    stiffness_circular,
    torque_full,
)
from conftest import REF_E, REF_R, REF_Z

PI = math.pi


class TestGridSpec:
    def test_defaults(self):
        grid = GridSpec()
        assert grid.n_rho == 400 and grid.n_theta == 400

    @pytest.mark.parametrize("n_rho, n_theta", [(7, 100), (100, 7), (0, 0)])
    def test_minimum_resolution(self, n_rho, n_theta):
        with pytest.raises(ValueError):
            GridSpec(n_rho, n_theta)


class TestOracleTorque:
    def test_zero_angle_rejected(self, circular_ring):
        with pytest.raises(ValueError):
            oracle_torque(circular_ring, 0.0)

    def test_circular_matches_closed_form(self, circular_ring):
        """800x800 grid at alpha = 1e-3: within 0.1% of the closed form."""
        t = oracle_torque(circular_ring, 1e-3, GridSpec(800, 800))
        k8 = stiffness_circular(circular_ring)
        assert abs(t / 1e-3 - k8) / k8 < 1e-3

    @pytest.mark.parametrize("alpha", [1e-3, -1e-3, 0.1, -0.1])
    @pytest.mark.parametrize("kind", ["circular", "real"])
    def test_matches_quadrature(self, alpha, kind, circular_ring, real_ring):
        ring = circular_ring if kind == "circular" else real_ring
        t_oracle = oracle_torque(ring, alpha, GridSpec(400, 400))
        t_quad = torque_full(ring, alpha)
        assert abs(t_oracle - t_quad) / abs(t_quad) < 1e-3

    def test_positive_virtual_work(self, real_ring):
        """Summed work is a sum of squares: T/alpha >= 0 for either sign."""
        for alpha in (0.3, 0.05, -0.05, -0.3):
            assert oracle_torque(real_ring, alpha, GridSpec(64, 64)) / alpha >= 0.0

    def test_self_convergence(self, real_ring):
        """Doubling the grid moves the result by less than 0.05%."""
        coarse = oracle_torque(real_ring, 1e-3, GridSpec(400, 400))
        fine = oracle_torque(real_ring, 1e-3, GridSpec(800, 800))
        assert abs(fine - coarse) / abs(fine) < 5e-4

    def test_quadratic_error_decay_circular(self, circular_ring):
        """Circular section: midpoint-grid error vs quadrature drops ~4x per
        grid doubling (O(1/n^2))."""
        t_ref = torque_full(circular_ring, 1e-3)
        errors = [
            abs(oracle_torque(circular_ring, 1e-3, GridSpec(n, n)) - t_ref)
            for n in (100, 200, 400)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.0 < coarse / fine < 5.0

    def test_tiny_section_torque_vanishes(self):
        """Torque scales as r^4: a near-zero-measure section carries none."""
        ring = WireRing(REF_R, REF_Z, REF_E, SectionGeometry.circular(1e-3))
        assert abs(oracle_torque(ring, 0.01, GridSpec(32, 32))) < 1e-9

    def test_deterministic(self, real_ring):
        a = oracle_torque(real_ring, 0.01, GridSpec(300, 300))
        b = oracle_torque(real_ring, 0.01, GridSpec(300, 300))
        assert a == b

    def test_bite_reduces_torque(self, circular_ring, real_ring):
        """Removing material cannot stiffen the wire."""
        t_full = oracle_torque(circular_ring, 0.01, GridSpec(256, 256))
        t_bitten = oracle_torque(real_ring, 0.01, GridSpec(256, 256))
        assert t_bitten < t_full


# The oracle at 64^2 and 400^2, as computed with a meshgrid and n^2 cosines:
# with 1-D trig tables broadcast through the same float operations, a section
# that the bite circle does not cut gives the same bits, and so does the
# tangent bite L - r_w = r, which removes no cell.
BIT_SHAPES = {
    "uncut": SectionGeometry.circular(3.3),
    "full": SectionGeometry.from_ratios(3.0, 4.2, PI / 4.0, r=3.3),
    "tangent": SectionGeometry.from_ratios(2.0, 3.0, PI / 4.0, r=3.3),
}
BIT_VALUES = {
    (64, "uncut", 0.001): 6.601875587111577,
    (64, "uncut", -0.15): -988.4264258468193,
    (64, "full", 0.001): 6.601875587111577,
    (64, "full", -0.15): -988.4264258468193,
    (400, "uncut", 0.001): 6.60266098663492,
    (400, "uncut", -0.15): -988.5440151733598,
    (400, "full", 0.001): 6.60266098663492,
    (400, "full", -0.15): -988.5440151733598,
    (64, "tangent", 0.001): 6.601875587111577,
    (64, "tangent", -0.15): -988.4264258468193,
    (400, "tangent", 0.001): 6.60266098663492,
    (400, "tangent", -0.15): -988.5440151733598,
}


@pytest.mark.parametrize("n, kind, alpha", sorted(BIT_VALUES))
def test_bit_identical_to_meshgrid_oracle(n, kind, alpha):
    ring = WireRing(REF_R, REF_Z, REF_E, BIT_SHAPES[kind])
    assert oracle_torque(ring, alpha, GridSpec(n, n)) == BIT_VALUES[n, kind, alpha]


# Deep bites 0.045 and 0.021 inside the deep-bite boundary L^2 = r^2 + r_w^2,
# as (r_w/r, L/r, gamma, R, Z, E, r, alpha): counting each cell by its center
# alone, the 800^2 oracle missed the exact torque by 1.26e-3 and 1.18e-3.
NEAR_BOUNDARY = [
    (2.53953, 2.68457, 3.10626, 143.929, 75, 198959.0, 1.20061, 0.131234),
    (3.74383, 3.85442, 6.1098, 164.909, 107, 197244.0, 2.59076, 0.0696687),
]


@pytest.mark.parametrize("n", [400, 800])
@pytest.mark.parametrize("case", NEAR_BOUNDARY)
def test_sub_cells_near_the_bite_circle(case, n):
    """Sub-sampling the cells the bite circle cuts keeps the oracle within 1e-4."""
    rw, lr, gamma, R, Z, E, r, alpha = case
    ring = WireRing(R, Z, E, SectionGeometry.from_ratios(rw, lr, gamma, r=r))
    exact = torque_full(ring, alpha)
    assert abs(oracle_torque(ring, alpha, GridSpec(n, n)) - exact) / exact < 1e-4
