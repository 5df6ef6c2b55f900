"""Factorial map of I/r^4, the constrained surrogate fit, serialization."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from wiretwist import (
    DegenerateFitError,
    DoeRow,
    DoeTable,
    OutOfValidatedRangeWarning,
    SectionGeometry,
    SurrogateFit,
    fit_surrogate,
    run_doe,
    surrogate_integral,
)
from conftest import BENCHMARK_I_OVER_R4, GAMMA_CLASSES, VERIFIED_I_3_325

PI = math.pi


@pytest.fixture(scope="module")
def default_table() -> DoeTable:
    return run_doe()


class TestRunDoe:
    def test_row_count_and_order(self, default_table):
        assert len(default_table) == 12
        keys = [(row.rw_ratio, row.x) for row in default_table]
        expected = [(rw, x) for x in (0.25, 0.5, 0.75, 1.0) for rw in (2.0, 2.5, 3.0)]
        assert keys == expected

    def test_benchmark_values(self, default_table):
        """Every row, including the corrected (3, 0.25) entry."""
        for row in default_table:
            assert row.I_over_r4 == pytest.approx(
                BENCHMARK_I_OVER_R4[(row.rw_ratio, row.x)], abs=1e-6
            )

    def test_cross_validated_row(self, default_table):
        row = next(r for r in default_table if (r.rw_ratio, r.x) == (3.0, 0.25))
        assert row.I_over_r4 == pytest.approx(VERIFIED_I_3_325, abs=1e-9)

    def test_anchor_rows_exact(self, default_table):
        for row in default_table:
            if row.x >= 1.0:
                assert row.I_over_r4 == PI / 4.0

    @pytest.mark.parametrize("gamma", GAMMA_CLASSES[1:])
    def test_gamma_classes_identical(self, default_table, gamma):
        other = run_doe(gammas=(gamma,))
        for base_row, other_row in zip(default_table, other):
            assert other_row.I_over_r4 == pytest.approx(base_row.I_over_r4, rel=1e-9)

    def test_order_independence(self, default_table):
        """Evaluating the grid in a different order yields the same values."""
        shuffled = run_doe(rw_ratios=(3.0, 2.0, 2.5), x_values=(1.0, 0.25, 0.75, 0.5))
        by_key = {(r.rw_ratio, r.x): r.I_over_r4 for r in shuffled}
        for row in default_table:
            assert by_key[(row.rw_ratio, row.x)] == row.I_over_r4

    def test_x_derived_not_stored(self):
        row = DoeRow(rw_ratio=2.0, L_ratio=2.625, gamma=PI / 4, I_over_r4=0.6)
        assert row.x == 0.625


class TestFitSurrogate:
    def test_default_grid_slope(self, default_table):
        fit = fit_surrogate(default_table)
        assert 0.355 <= fit.c <= 0.364
        assert fit.c == pytest.approx(0.3579015, abs=1e-6)

    def test_exact_linear_data_recovered(self):
        rows = tuple(
            DoeRow(rw_ratio=2.0, L_ratio=2.0 + x, gamma=PI / 4, I_over_r4=PI / 4 - 0.5 * (1 - x))
            for x in (0.2, 0.4, 0.6, 0.8, 1.0)
        )
        fit = fit_surrogate(DoeTable(rows=rows))
        assert fit.c == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-15)

    def test_single_row(self):
        rows = (DoeRow(rw_ratio=2.0, L_ratio=2.5, gamma=PI / 4, I_over_r4=PI / 4 - 0.2),)
        assert fit_surrogate(DoeTable(rows=rows)).c == pytest.approx(0.4, abs=1e-15)

    def test_anchor_only_rows_degenerate(self):
        rows = tuple(
            DoeRow(rw_ratio=rw, L_ratio=rw + 1.0, gamma=PI / 4, I_over_r4=PI / 4)
            for rw in (2.0, 2.5, 3.0)
        )
        with pytest.raises(DegenerateFitError):
            fit_surrogate(DoeTable(rows=rows))

    def test_refit_idempotent(self, default_table):
        """Fitting data generated by the surrogate itself recovers c exactly."""
        fit = fit_surrogate(default_table)
        synthetic = tuple(
            DoeRow(
                rw_ratio=row.rw_ratio,
                L_ratio=row.L_ratio,
                gamma=row.gamma,
                I_over_r4=float(fit.predict(row.x)),
            )
            for row in default_table
        )
        refit = fit_surrogate(DoeTable(rows=synthetic))
        assert refit.c == pytest.approx(fit.c, abs=1e-14)

    def test_residual_bounds(self, default_table):
        """Per-row residuals stay below 0.0125; per-x group means below 0.011."""
        fit = fit_surrogate(default_table)
        assert np.max(np.abs(fit.residuals)) <= 0.0125
        xs = np.array([row.x for row in default_table])
        for x in np.unique(xs):
            group_mean = float(np.mean(np.asarray(fit.residuals)[xs == x]))
            assert abs(group_mean) <= 0.011

    def test_matches_numpy_normal_equation(self):
        """The plain-float fit sums in another order than numpy; it agrees to a few ulp."""
        rng = random.Random(9)
        for _ in range(50):
            rows = tuple(
                DoeRow(rw, rw + rng.uniform(0.05, 1.2), PI / 4, rng.uniform(0.4, 0.8))
                for rw in (2.0, 2.5, 3.0) for _ in range(4)
            )
            d = np.maximum(0.0, 1.0 - np.array([row.x for row in rows]))
            observed = np.array([row.I_over_r4 for row in rows])
            c_ref = float(np.sum((PI / 4 - observed) * d)) / float(np.sum(d**2))
            fit = fit_surrogate(DoeTable(rows=rows))
            assert fit.c == pytest.approx(c_ref, rel=8 * np.finfo(float).eps)
            np.testing.assert_allclose(fit.residuals, observed - (PI / 4 - c_ref * d), rtol=0, atol=1e-15)

    def test_residuals_are_a_tuple_of_floats(self, default_table):
        fit = fit_surrogate(default_table)
        assert type(fit.residuals) is tuple and len(fit.residuals) == len(default_table)
        assert all(type(v) is float for v in fit.residuals)

    def test_anchor_exact(self, default_table):
        fit = fit_surrogate(default_table)
        assert float(fit.predict(1.0)) == PI / 4.0
        assert float(fit.predict(1.7)) == PI / 4.0

    def test_slope_positive(self, default_table):
        assert fit_surrogate(default_table).c > 0.0


class TestSurrogateIntegral:
    def test_anchor(self):
        sec = SectionGeometry.from_ratios(3.0, 4.0, PI / 4)
        assert surrogate_integral(sec) == pytest.approx(PI / 4.0, rel=1e-15)

    def test_reference_slope_at_half(self):
        sec = SectionGeometry.from_ratios(3.0, 3.5, PI / 4)
        assert surrogate_integral(sec) == pytest.approx(0.6054, abs=1e-4)

    def test_dimensional_scaling(self):
        sec = SectionGeometry.from_ratios(3.0, 3.5, PI / 4, r=3.3)
        assert surrogate_integral(sec) == pytest.approx(71.80, abs=0.01)

    def test_accepts_fit_object(self):
        fit = SurrogateFit(c=0.5, residuals=np.zeros(1))
        sec = SectionGeometry.from_ratios(3.0, 3.5, PI / 4)
        assert surrogate_integral(sec, fit) == pytest.approx(PI / 4.0 - 0.25, rel=1e-14)

    def test_below_range_warns(self):
        sec = SectionGeometry.from_ratios(3.0, 3.1, PI / 4)
        with pytest.warns(OutOfValidatedRangeWarning):
            surrogate_integral(sec)

    def test_circular_section_is_anchor(self):
        assert surrogate_integral(SectionGeometry.circular(2.0)) == pytest.approx(
            PI / 4.0 * 16.0, rel=1e-15
        )


class TestSerialization:
    def test_csv_header_and_endings(self, default_table):
        text = default_table.to_csv()
        lines = text.split("\n")
        assert lines[0] == "rw_ratio,L_ratio,gamma_rad,x,I_over_r4"
        assert text.endswith("\n")
        assert "\r" not in text
        assert len([ln for ln in lines if ln]) == 13

    def test_csv_dot_decimals(self, default_table):
        text = default_table.to_csv()
        assert "0.5" in text
        # every data cell parses as a float
        for line in text.strip().split("\n")[1:]:
            assert len([float(tok) for tok in line.split(",")]) == 5

    def test_csv_round_trip(self, default_table):
        parsed = DoeTable.from_csv(default_table.to_csv())
        assert len(parsed) == len(default_table)
        for a, b in zip(parsed, default_table):
            assert a.rw_ratio == b.rw_ratio
            assert a.L_ratio == b.L_ratio
            assert a.I_over_r4 == pytest.approx(b.I_over_r4, rel=1e-11)

    def test_csv_rejects_bad_header(self):
        with pytest.raises(ValueError):
            DoeTable.from_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_csv_rejects_non_finite_value(self, bad):
        text = f"rw_ratio,L_ratio,gamma_rad,x,I_over_r4\n3,3.5,0.785,0.5,0.6\n3,3.5,0.785,0.5,{bad}\n"
        with pytest.raises(ValueError, match="row 2"):
            DoeTable.from_csv(text)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("3,3.5,0.785,0.5", "CSV row 2 has 4 cells, expected 5"),
            ("3,3.5,0.785,0.5,0.6,1", "CSV row 2 has 6 cells, expected 5"),
            ("3,3.5,0.785,0.5,abc", "CSV row 2 holds a non-numeric cell"),
            ("3,,0.785,0.5,0.6", "CSV row 2 holds a non-numeric cell"),
        ],
    )
    def test_csv_malformed_row_is_named(self, row, message):
        text = f"rw_ratio,L_ratio,gamma_rad,x,I_over_r4\n3,3.5,0.785,0.5,0.6\n{row}\n"
        with pytest.raises(ValueError, match=message):
            DoeTable.from_csv(text)

    def test_csv_rejects_contradicting_x(self):
        """x must equal L_ratio - rw_ratio; it used to be read and silently dropped."""
        text = "rw_ratio,L_ratio,gamma_rad,x,I_over_r4\n3,3.5,0.785,0.5,0.6\n3,3.5,0.785,0.9,0.6\n"
        with pytest.raises(ValueError, match="row 2 has x=0.9"):
            DoeTable.from_csv(text)

    def test_csv_x_check_passes_rendered_rows(self):
        """The 12-digit rendering of to_csv stays far inside the x tolerance."""
        rng = random.Random(4)
        rows = []
        for _ in range(500):
            rw = 10.0 ** rng.uniform(-2.0, 6.0)
            rows.append(DoeRow(rw, rw + rng.uniform(1e-6, 1.5), rng.uniform(0.0, 2 * PI), 0.5))
        parsed = DoeTable.from_csv(DoeTable(rows=tuple(rows)).to_csv())
        assert len(parsed) == len(rows)

    def test_json_rows(self, default_table):
        rows = default_table.to_json_rows()
        assert len(rows) == 12
        assert set(rows[0]) == {"rw_ratio", "L_ratio", "gamma_rad", "x", "I_over_r4"}
        assert rows[0]["rw_ratio"] == 2.0
