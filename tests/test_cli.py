"""Command-line interface: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wiretwist.cli import main
from conftest import BENCHMARK_I_OVER_R4

REAL_FLAGS = ["--rw-ratio", "3", "--L-ratio", "3.5", "--gamma-deg", "45"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStiffnessCommand:
    def test_circular_defaults(self, capsys):
        code, out, _ = run_cli(capsys, ["stiffness"])
        assert code == 0
        assert "6602.44959546" in out

    def test_real_section(self, capsys):
        code, out, _ = run_cli(capsys, ["stiffness", *REAL_FLAGS])
        assert code == 0
        assert "5046.03844696" in out
        assert "5089.27961039" in out

    def test_reference_values_within_one(self, capsys):
        _, out, _ = run_cli(capsys, ["stiffness", *REAL_FLAGS, "--format", "json"])
        results = json.loads(out)["results"]
        assert abs(results["K_circular_Nmm_per_rad"] - 6602.0) < 1.0
        assert abs(results["K_numeric_Nmm_per_rad"] - 5046.0) < 1.0
        assert abs(results["K_engineering_Nmm_per_rad"] - 5089.0) < 1.0

    def test_invalid_geometry_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["stiffness", "--rw-ratio", "3", "--L-ratio", "2.9"]
        )
        assert code == 2
        assert "L > r_w" in err

    def test_json_schema(self, capsys):
        _, out, _ = run_cli(capsys, ["stiffness", "--format", "json"])
        payload = json.loads(out)
        assert set(payload) == {"inputs", "results", "meta"}
        assert payload["meta"] == {"version": "0.1.0"}

    def test_absolute_bite_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["stiffness", "--rw", "9.9", "--L", "11.55", "--gamma-deg", "45", "--format", "json"],
        )
        assert code == 0
        k = json.loads(out)["results"]["K_numeric_Nmm_per_rad"]
        assert abs(k - 5046.0) < 1.0

    def test_ratios_win_with_warning(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["stiffness", "--rw", "5.0", "--L", "7.0", *REAL_FLAGS, "--format", "json"],
        )
        assert code == 0
        assert "ratios win" in err
        assert json.loads(out)["inputs"]["rw_ratio"] == 3.0

    def test_gamma_flags_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["stiffness", "--gamma-deg", "45", "--gamma-rad", "0.7"])
        assert info.value.code == 2


class TestIntegralCommand:
    def test_real_section_report(self, capsys):
        code, out, _ = run_cli(capsys, ["integral", *REAL_FLAGS, "--format", "json"])
        assert code == 0
        res = json.loads(out)["results"]
        assert res["classification"] == "partial_bite"
        assert abs(res["I_over_r4"] - 0.600254386) < 1e-8
        assert res["I_mm4"] == pytest.approx(res["I_full_arc_mm4"] + res["I_bite_arc_mm4"])

    def test_circular_classification(self, capsys):
        _, out, _ = run_cli(capsys, ["integral", "--format", "json"])
        assert json.loads(out)["results"]["classification"] == "full_circle"


class TestDoeCommand:
    def test_default_csv(self, capsys):
        code, out, err = run_cli(capsys, ["doe"])
        assert code == 0
        lines = [ln for ln in out.split("\n") if ln]
        assert lines[0] == "rw_ratio,L_ratio,gamma_rad,x,I_over_r4"
        assert len(lines) == 13
        assert "12 rows" in err

    def test_csv_matches_benchmarks(self, capsys):
        _, out, _ = run_cli(capsys, ["doe"])
        for line in out.strip().split("\n")[1:]:
            rw, _lr, _g, x, val = (float(tok) for tok in line.split(","))
            assert abs(val - BENCHMARK_I_OVER_R4[(rw, x)]) < 1e-6

    def test_gamma_class_equivalence(self, capsys):
        _, out45, _ = run_cli(capsys, ["doe", "--gammas-deg", "45"])
        _, out225, _ = run_cli(capsys, ["doe", "--gammas-deg", "225"])
        col45 = [ln.split(",")[4] for ln in out45.strip().split("\n")[1:]]
        col225 = [ln.split(",")[4] for ln in out225.strip().split("\n")[1:]]
        for a, b in zip(col45, col225):
            assert float(a) == pytest.approx(float(b), rel=1e-9)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "map.csv"
        code, out, _ = run_cli(capsys, ["doe", "--output", str(target)])
        assert code == 0
        assert "12 rows" in out  # with a file target the summary moves to stdout
        content = target.read_text()
        assert content.startswith("rw_ratio,")
        assert "\r" not in content
        assert len([ln for ln in content.split("\n") if ln]) == 13

    def test_json_format(self, capsys):
        _, out, _ = run_cli(capsys, ["doe", "--format", "json"])
        payload = json.loads(out)
        assert len(payload["results"]["rows"]) == 12


class TestFitCommand:
    def test_default_fit(self, capsys):
        code, out, _ = run_cli(capsys, ["fit"])
        assert code == 0
        assert "c = 0.357901490324" in out
        assert "pi^2/2" in out  # regenerated stiffness formula text

    def test_fit_from_csv_round_trip(self, capsys, tmp_path):
        target = tmp_path / "map.csv"
        run_cli(capsys, ["doe", "--output", str(target)])
        code, out, _ = run_cli(capsys, ["fit", "--doe-csv", str(target), "--format", "json"])
        assert code == 0
        c = json.loads(out)["results"]["c"]
        assert 0.355 <= c <= 0.364

    def test_missing_csv_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["fit", "--doe-csv", str(tmp_path / "absent.csv")])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_csv_exit_2(self, capsys, tmp_path, bad):
        target = tmp_path / "map.csv"
        target.write_text(
            f"rw_ratio,L_ratio,gamma_rad,x,I_over_r4\n2,2.25,0.785,0.25,{bad}\n", encoding="utf-8"
        )
        code, out, err = run_cli(capsys, ["fit", "--doe-csv", str(target), "--format", "json"])
        assert code == 2
        assert out == ""
        assert "row 1" in err

    @pytest.mark.parametrize(
        "row, message",
        [("3,3.5,0.785,0.5", "row 1 has 4 cells"), ("3,3.5,abc,0.5,0.6", "row 1 holds a non-numeric cell")],
    )
    def test_malformed_csv_row_exit_2(self, capsys, tmp_path, row, message):
        target = tmp_path / "map.csv"
        target.write_text(f"rw_ratio,L_ratio,gamma_rad,x,I_over_r4\n{row}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["fit", "--doe-csv", str(target)])
        assert code == 2
        assert out == ""
        assert message in err

    def test_contradicting_x_csv_exit_2(self, capsys, tmp_path):
        target = tmp_path / "map.csv"
        target.write_text("rw_ratio,L_ratio,gamma_rad,x,I_over_r4\n3,3.5,0.785,0.9,0.6\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["fit", "--doe-csv", str(target)])
        assert code == 2
        assert out == ""
        assert "row 1 has x=0.9" in err

    def test_anchor_only_csv_exit_2(self, capsys, tmp_path):
        """Rows with x >= 1 sit on the anchor; a map of only such rows cannot fix the slope."""
        target = tmp_path / "map.csv"
        target.write_text(
            "rw_ratio,L_ratio,gamma_rad,x,I_over_r4\n2,3,0.785,1,0.785398163397\n"
            "3,4.5,0.785,1.5,0.785398163397\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, ["fit", "--doe-csv", str(target), "--format", "json"])
        assert code == 2
        assert out == ""
        assert "all rows have x >= 1" in err


class TestTorqueCurveCommand:
    def test_csv_samples(self, capsys):
        code, out, err = run_cli(capsys, ["torque-curve", "--alpha-max", "0.05", "--n-steps", "5"])
        assert code == 0
        lines = [ln for ln in out.split("\n") if ln]
        assert lines[0] == "alpha_rad,torque_Nmm"
        assert len(lines) == 6
        assert "0,0" in out  # passes through the origin
        assert "K_origin=" in err

    def test_json_summary(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["torque-curve", *REAL_FLAGS, "--alpha-max", "0.1", "--n-steps", "3", "--format", "json"],
        )
        res = json.loads(out)["results"]
        assert res["K_secant_pos_Nmm_per_rad"] != res["K_secant_neg_Nmm_per_rad"]
        assert len(res["samples"]) == 3

    def test_bad_alpha_max_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, ["torque-curve", "--alpha-max", "3.0"])
        assert code == 2


ALL_COMMANDS = ["torque-curve", "oracle-check", "stiffness", "integral", "doe", "fit"]


class TestTorqueCommandsTakeNoQuadrature:
    """Every command uses a fixed rule: no quadrature flags, no quadrature block in the JSON meta."""

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    @pytest.mark.parametrize("flag", [["--scheme", "gauss-legendre"], ["--rel-tol", "1e-8"], ["--max-refine", "8"]])
    def test_quadrature_flags_rejected(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_json_meta_has_no_quadrature(self, capsys, command):
        _, out, _ = run_cli(capsys, [command, "--format", "json"])
        assert json.loads(out)["meta"] == {"version": "0.1.0"}


class TestOracleCheckCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["oracle-check", "--alpha", "0.001", "--grid", "400"])
        assert code == 0
        assert "PASS" in out

    def test_threshold_exceeded_exit_4(self, capsys):
        code, out, _ = run_cli(
            capsys, ["oracle-check", "--grid", "64", "--threshold", "1e-12"]
        )
        assert code == 4
        assert "FAIL" in out

    def test_real_section(self, capsys):
        code, out, _ = run_cli(
            capsys, ["oracle-check", *REAL_FLAGS, "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["results"]["passed"] is True


class TestOutOfMemory:
    def test_memory_error_exit_2(self, capsys, monkeypatch):
        """A grid too large to allocate ends with exit 2 and one line, not a traceback."""

        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 TiB for an array")

        monkeypatch.setattr("wiretwist.cli.oracle_torque", refuse)
        code, out, err = run_cli(capsys, ["oracle-check", "--grid", "1000000"])
        assert code == 2
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 7.45 TiB for an array\n"


class TestColdStart:
    """Only the commands that build arrays import numpy."""

    SCRIPT = """
import contextlib, io, sys
import wiretwist, wiretwist.cli
from wiretwist.cli import main
seen = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for command in ("stiffness", "integral", "doe", "fit"):
        for fmt in ("text", "json"):
            assert main([command, "--format", fmt]) == 0
    assert main(["stiffness", "--rw-ratio", "3", "--L-ratio", "3.5"]) == 0
    assert main(["integral", "--rw-ratio", "3", "--L-ratio", "3.5", "--format", "json"]) == 0
    seen.append("numpy" in sys.modules)
    assert main(["oracle-check", "--grid", "64"]) == 0
    seen.append("numpy" in sys.modules)
print(seen)
"""

    def test_numpy_imported_only_by_oracle_check(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[False, True]\n"


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        _, first, _ = run_cli(capsys, ["stiffness", *REAL_FLAGS, "--format", "json"])
        _, second, _ = run_cli(capsys, ["stiffness", *REAL_FLAGS, "--format", "json"])
        assert first == second

    def test_byte_identical_csv(self, capsys):
        _, first, _ = run_cli(capsys, ["doe"])
        _, second, _ = run_cli(capsys, ["doe"])
        assert first == second

    def test_json_and_csv_agree_at_12_digits(self, capsys):
        """The same run rendered as CSV and JSON carries identical numbers."""
        _, csv_out, _ = run_cli(capsys, ["stiffness", *REAL_FLAGS, "--format", "csv"])
        _, json_out, _ = run_cli(capsys, ["stiffness", *REAL_FLAGS, "--format", "json"])
        header, values = csv_out.strip().split("\n")
        csv_map = dict(zip(header.split(","), values.split(",")))
        results = json.loads(json_out)["results"]
        for key, raw in csv_map.items():
            assert float(raw) == results[key]

    def test_doe_csv_json_values_agree(self, capsys):
        _, csv_out, _ = run_cli(capsys, ["doe"])
        _, json_out, _ = run_cli(capsys, ["doe", "--format", "json"])
        json_rows = json.loads(json_out)["results"]["rows"]
        csv_rows = csv_out.strip().split("\n")[1:]
        for line, jrow in zip(csv_rows, json_rows):
            vals = [float(tok) for tok in line.split(",")]
            assert vals == [
                jrow["rw_ratio"], jrow["L_ratio"], jrow["gamma_rad"], jrow["x"], jrow["I_over_r4"]
            ]
