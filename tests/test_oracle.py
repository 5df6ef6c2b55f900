"""Brute-force differential-element oracle and its agreement with quadrature."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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

    @pytest.mark.parametrize("n_rho, n_theta", [(4097, 100), (100, 4097), (100000, 100000)])
    def test_maximum_resolution(self, n_rho, n_theta):
        with pytest.raises(ValueError, match="at most 4096x4096"):
            GridSpec(n_rho, n_theta)

    @pytest.mark.parametrize("n", [100.5, 100.0, "100", True, None])
    def test_integer_sizes_only(self, n):
        with pytest.raises(ValueError, match="integers"):
            GridSpec(n, 100)
        with pytest.raises(ValueError, match="integers"):
            GridSpec(100, n)

    def test_largest_grid_accepted(self):
        assert GridSpec(4096, 4096).n_rho == 4096


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


# The oracle before its sum was factored: a full n^2 work array, summed by
# numpy's pairwise reduction, with the fibre stretch as cos(theta + alpha) -
# cos(theta).  Sections the bite does not cut at 64^2 and 400^2 (the tangent
# bite L - r_w = r removes no cell), cut ones at 400^2 and 800^2.  The
# factored sum adds in another order, and the old stretch lost about u/|alpha|
# to cancellation (2e-13 to 4.5e-13 of these values at alpha = 1e-3; an
# extended-precision sum of the uncut grid agrees with the factored sum to
# 2e-16), so the values are checked to a tolerance set by alpha.
SHAPES = {
    "uncut": SectionGeometry.circular(3.3),
    "full": SectionGeometry.from_ratios(3.0, 4.2, PI / 4.0, r=3.3),
    "tangent": SectionGeometry.from_ratios(2.0, 3.0, PI / 4.0, r=3.3),
    "partial": SectionGeometry.from_ratios(3.0, 3.5, PI / 4.0, r=3.3),
    "deep-small": SectionGeometry.from_ratios(0.5, 0.501, PI / 4.0, r=3.3),
    "deep": SectionGeometry.from_ratios(3.0, 3.05, PI / 4.0, r=3.3),
}
MESHGRID_VALUES = {
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
    (400, "partial", 0.001): 5.052952925615207,
    (400, "partial", -0.15): -777.6569250513865,
    (400, "deep-small", 0.001): 5.3671695848328165,
    (400, "deep-small", -0.15): -822.0852621401166,
    (400, "deep", 0.001): 3.7243807420754393,
    (400, "deep", -0.15): -566.6420396805455,
    (800, "partial", 0.001): 5.052957087164013,
    (800, "partial", -0.15): -777.658269511883,
    (800, "deep-small", 0.001): 5.3671762494135935,
    (800, "deep-small", -0.15): -822.0868601563177,
    (800, "deep", 0.001): 3.724444111095889,
    (800, "deep", -0.15): -566.6530288985176,
}
MESHGRID_TOL = {0.001: 5e-13, -0.15: 1e-14}


@pytest.mark.parametrize("n, kind, alpha", sorted(MESHGRID_VALUES))
def test_matches_meshgrid_oracle(n, kind, alpha):
    ring = WireRing(REF_R, REF_Z, REF_E, SHAPES[kind])
    expected = MESHGRID_VALUES[n, kind, alpha]
    got = oracle_torque(ring, alpha, GridSpec(n, n))
    assert abs(got - expected) <= MESHGRID_TOL[alpha] * abs(expected)


# Deep bites 0.045 and 0.021 inside the deep-bite boundary L^2 = r^2 + r_w^2,
# as (r_w/r, L/r, gamma, R, Z, E, r, alpha): counting each cell by its center
# alone, the 800^2 oracle missed the exact torque by 1.26e-3 and 1.18e-3.
NEAR_BOUNDARY = [
    (2.53953, 2.68457, 3.10626, 143.929, 75, 198959.0, 1.20061, 0.131234),
    (3.74383, 3.85442, 6.1098, 164.909, 107, 197244.0, 2.59076, 0.0696687),
]


def _ring(case) -> WireRing:
    rw, lr, gamma, R, Z, E, r, _ = case
    return WireRing(R, Z, E, SectionGeometry.from_ratios(rw, lr, gamma, r=r))


@pytest.mark.parametrize("n", [400, 800])
@pytest.mark.parametrize("case", NEAR_BOUNDARY)
def test_sub_cells_near_the_bite_circle(case, n):
    """Sub-sampling the cells the bite circle cuts keeps the oracle within 1e-4."""
    ring, alpha = _ring(case), case[-1]
    exact = torque_full(ring, alpha)
    assert abs(oracle_torque(ring, alpha, GridSpec(n, n)) - exact) / exact < 1e-4


# The first NEAR_BOUNDARY case, as the meshgrid oracle computed it.
ANCHOR_VALUES = {400: 17.55280310885493, 800: 17.55376650822054}


@pytest.mark.parametrize("n", sorted(ANCHOR_VALUES))
def test_deep_anchor_matches_meshgrid_oracle(n):
    case = NEAR_BOUNDARY[0]
    got = oracle_torque(_ring(case), case[-1], GridSpec(n, n))
    assert abs(got - ANCHOR_VALUES[n]) <= 1e-14 * ANCHOR_VALUES[n]


@pytest.mark.parametrize("n, kind", [*((800, kind) for kind in [*sorted(SHAPES), "anchor"]), (4096, "deep-small")])
def test_memory_linear_in_the_grid(n, kind):
    """The oracle allocates at most 8 MB (a full float array is 4.9 MB at 800^2, 128 MB at 4096^2)."""
    ring = _ring(NEAR_BOUNDARY[0]) if kind == "anchor" else WireRing(REF_R, REF_Z, REF_E, SHAPES[kind])
    oracle_torque(ring, 0.1, GridSpec(8, 8))  # numpy's import is not the oracle's memory
    tracemalloc.start()
    try:
        oracle_torque(ring, 0.1, GridSpec(n, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


BLAS_SCRIPT = """
from wiretwist import GridSpec, SectionGeometry, WireRing, oracle_torque
for shape in (SectionGeometry.circular(3.3), SectionGeometry.from_ratios(0.5, 0.501, 1.0, r=3.3)):
    ring = WireRing(227.0, 82, 210000.0, shape)
    for n in (64, 800, 1000):
        print(oracle_torque(ring, 0.1, GridSpec(n, n)).hex())
"""


def test_same_bits_with_one_and_two_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_SCRIPT], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 6


class TestTinyAngles:
    """The fibre stretch over alpha is formed without cancellation."""

    @pytest.mark.parametrize("kind", ["uncut", "partial"])
    def test_torque_over_alpha_settles(self, kind):
        ring = WireRing(REF_R, REF_Z, REF_E, SHAPES[kind])
        limit = oracle_torque(ring, 1e-300, GridSpec(64, 64)) / 1e-300
        for alpha in (1e-12, 1e-17, 1e-160, -1e-160, -1e-300):
            assert oracle_torque(ring, alpha, GridSpec(64, 64)) / alpha == pytest.approx(limit, rel=1e-11)

    @pytest.mark.parametrize("alpha", [5e-324, -1e-310, math.nan])
    def test_subnormal_angle_rejected(self, circular_ring, alpha):
        with pytest.raises(ValueError):
            oracle_torque(circular_ring, alpha)
