"""The three workloads: seeded items, one op per item, and its check.

Every workload exposes

* ``next_round()`` -- the next list of items; the loop runs whole rounds,
  so every run sees the same class mix, and the same seed gives the same
  rounds in the same order;
* ``op(item, call)`` -- the timed work; ``call(name, fn, *args)`` wraps each
  call into a ``wiretwist`` module so the traced run can time it;
* ``check(item, out)`` -- ``(largest relative error, failure or None)``;
* ``describe(item)`` and ``shape_key(item)``, the shape or None;
* ``clock`` -- the clock that times its ops: CPU time in process, wall
  time for child processes.

A failure is an exception, a non-zero exit, a non-finite value or a value
outside the tolerance.  Two kinds are standing defects of the program at the
commit that defined this benchmark, counted and listed but not a sign of a
broken run (``standing``): wrong values, or a quadrature that does not
converge, on deep-bite inputs; and the oracle's grid error where it was
seen to exceed the 1e-3 threshold while the production value is right:
within ORACLE_GRID_BAND of the deep-bite boundary, and by at most
ORACLE_GRID_CAP.  Any other failure marks the run as incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wiretwist import (
    DoeTable,
    GridSpec,
    OutOfValidatedRangeWarning,
    QuadratureNotConvergedError,
    QuadratureSpec,
    SectionGeometry,
    WireRing,
    classify_section,
    fit_surrogate,
    oracle_torque,
    run_doe,
    section_integral,
    stiffness_circular,
    stiffness_engineering,
    stiffness_from_integral,
    surrogate_integral,
    theta_limits,
    torque_curve,
    torque_full,
)

import inputs
from inputs import DEEP_ANCHORS, Ring, Shape
from reference import second_moment, second_moment_by_rays, torque_ref
from procs import child_env, run_child

# The quadrature runs at rel_tol 1e-10; 100x that separates its own error
# from the deep-bite defect, which is 1e-10 only within 0.1% of the class
# boundary and up to 24% at the corner of the domain.
TOL = 1e-8
# The CLI's own oracle-check threshold, also used for the 800^2 oracle.
ORACLE_TOL = 1e-3
# Where the 400^2 oracle's own grid error was seen above ORACLE_TOL
# (``oracle_grid_scan.py``, 1,200 seeded shapes near the deep-bite boundary):
# up to 0.0224 from the boundary in L/r on the partial side, and by at most
# 2.01e-3; beyond 0.04 it stayed below 5.1e-4.  The 800^2 oracle stayed
# below 1e-3 on the same shapes.
ORACLE_GRID_BAND = 0.04
ORACLE_GRID_CAP = 2.5e-3
# CSV and JSON render 12 significant digits: rounding is below 5e-12.
CLI_TOL = 1e-11
# The paper's engineering formula, written out here: I ~ r^4 (pi/4 - 0.36 [1 - x]).
ENGINEERING_SLOPE = 0.36

ORACLE_GRID = GridSpec(800, 800)
N_STEPS = 21

warnings.simplefilter("ignore", OutOfValidatedRangeWarning)


@dataclass
class Failure:
    kind: str  # tolerance | check-exit | quadrature | oracle-grid | non-finite | exception | mismatch | exit
    detail: str
    deviation: float = math.nan  # oracle-grid: the oracle's relative deviation


def boundary_distance(shape: Shape) -> float:
    """L/r minus its value on the deep-bite boundary L^2 = r^2 + r_w^2."""
    return shape.L - math.sqrt(1.0 + shape.rw * shape.rw)


def standing(failure: Failure, shape: Shape | None) -> bool:
    """True for the known defects: deep-bite results (ROADMAP item 2), oracle grid error."""
    if shape is None or shape.rw is None:
        return False
    if failure.kind == "oracle-grid":
        return abs(boundary_distance(shape)) <= ORACLE_GRID_BAND and failure.deviation <= ORACLE_GRID_CAP
    return shape.cls == "deep" and failure.kind in ("tolerance", "check-exit", "quadrature")


def op_error(error: Exception) -> Failure:
    kind = "quadrature" if isinstance(error, QuadratureNotConvergedError) else "exception"
    return Failure(kind, f"{type(error).__name__}: {error}")


def rel_err(got: float, want: float) -> float:
    if not math.isfinite(got):
        return math.inf
    return abs(got - want) / abs(want) if want != 0.0 else abs(got)


def compare(pairs, tol: float) -> tuple[float, Failure | None]:
    """Largest relative error over (name, got, want) and the first miss."""
    worst, failure = 0.0, None
    for name, got, want in pairs:
        e = rel_err(float(got), float(want))
        worst = max(worst, e)
        if failure is None and not e <= tol:
            kind = "non-finite" if not math.isfinite(float(got)) else "tolerance"
            failure = Failure(kind, f"{name}: got {got!r}, want {want!r} (rel err {e:.3g})")
    return worst, failure


def plain(_name, fn, *args):
    """The untraced ``call``: just the call."""
    return fn(*args)


def build_ring(shape: Shape, ring: Ring) -> WireRing:
    if shape.rw is None:
        section = SectionGeometry.circular(ring.r)
    else:
        section = SectionGeometry.from_ratios(shape.rw, shape.L, shape.gamma, r=ring.r)
    return WireRing(ring.R, ring.Z, ring.E, section)


def _abs_bite(shape: Shape, r: float) -> tuple:
    return () if shape.rw is None else (shape.rw * r, shape.L * r, shape.gamma)


# --------------------------------------------------------------- design-sweep


@dataclass(frozen=True)
class Candidate:
    shape: Shape
    ring: Ring
    ref: tuple[float, float, float, float]  # I, K from I, K by formula, surrogate I


def _sweep_reference(shape: Shape, ring: Ring) -> tuple[float, float, float, float]:
    R, Z, E, r = ring.R, ring.Z, ring.E, ring.r
    r4 = r**4
    I = second_moment(r, *_abs_bite(shape, r))
    bracket = 0.0 if shape.rw is None else max(0.0, 1.0 - (shape.L - shape.rw))
    k_formula = E * r4 / (Z * R) * (math.pi**2 / 2.0 - 2.0 * math.pi * ENGINEERING_SLOPE * bracket)
    i_surrogate = r4 * (math.pi / 4.0 - ENGINEERING_SLOPE * bracket)
    return I, 2.0 * math.pi / Z * E / R * I, k_formula, i_surrogate


def _routes(ring: WireRing, I: float) -> tuple[float, float]:
    k = stiffness_from_integral(ring, I)
    if ring.section.r_w is None:
        return k, stiffness_circular(ring)
    return k, stiffness_engineering(ring)


class DesignSweep:
    """One op is one candidate bearing: geometry, I, stiffness routes, surrogate.

    A round is 16 shapes (1 uncut, then 15 bites split by class area: 5 full,
    7 partial, 3 deep), each paired with 4 seeded rings; the anchors fill the
    first slots of their class.
    """

    MIX = inputs.domain_mix(15)
    RINGS_PER_SHAPE = 4
    clock = time.process_time_ns

    def __init__(self, seed: int, root: Path):
        rng = random.Random(f"design-sweep:{seed}")
        next_shapes = inputs.shape_rounds(self.MIX, rng)
        self.next_round = lambda: [
            self._candidate(s, inputs.random_ring(rng)) for s in next_shapes() for _ in range(self.RINGS_PER_SHAPE)
        ]
        warm = random.Random(f"design-sweep-warmup:{seed}")
        self.warmup = [self._candidate(s, inputs.random_ring(warm)) for s in inputs.shape_rounds(self.MIX, warm)()]

    @staticmethod
    def _candidate(shape: Shape, ring: Ring) -> Candidate:
        return Candidate(shape, ring, _sweep_reference(shape, ring))

    @staticmethod
    def op(c: Candidate, call):
        ring = call("geometry.build", build_ring, c.shape, c.ring)
        I = call("stiffness.section_integral", section_integral, ring.section).total
        k, k_formula = call("stiffness.routes", _routes, ring, I)
        i_surrogate = call("doe.surrogate_integral", surrogate_integral, ring.section)
        return I, k, k_formula, i_surrogate

    @staticmethod
    def check(c: Candidate, out) -> tuple[float, Failure | None]:
        names = ("I", "K_from_I", "K_formula", "I_surrogate")
        return compare(zip(names, out, c.ref), TOL)

    @staticmethod
    def describe(c: Candidate) -> str:
        return f"{c.shape.describe()} {c.ring.describe()}"

    @staticmethod
    def shape_key(c: Candidate):
        return c.shape


# ------------------------------------------------------------ torque-validate


@dataclass(frozen=True, eq=False)
class TorqueCase:
    shape: Shape
    ring: Ring
    alpha_max: float
    alphas: np.ndarray  # the 21-point grid the curve must sample
    ref_torques: np.ndarray
    ref_k0: float


class TorqueValidate:
    """One op is one ring: a 21-step torque curve, then the 800^2 oracle.

    The curve is checked against the benchmark's ray-quadrature reference
    (every sample, K_origin and both secants); the oracle is checked against
    the curve's endpoint, as ``oracle-check`` does, and against the reference.
    A round is 16 rings with the same class mix as ``design-sweep`` (1 uncut,
    5 full, 7 partial, 3 deep); the anchors fill the first slots of their
    class.
    """

    MIX = inputs.domain_mix(15)
    clock = time.process_time_ns

    def __init__(self, seed: int, root: Path):
        for shape in inputs.ANCHORS:  # the two references must agree
            exact, rays = second_moment(1.0, *_abs_bite(shape, 1.0)), second_moment_by_rays(1.0, *_abs_bite(shape, 1.0))
            if not abs(rays - exact) <= 1e-12 * exact:
                raise RuntimeError(f"ray reference {rays!r} != segment reference {exact!r} for {shape}")
        rng = random.Random(f"torque-validate:{seed}")
        next_shapes = inputs.shape_rounds(self.MIX, rng)
        self.next_round = lambda: [self._case(s, rng) for s in next_shapes()]
        self.warmup = [self._case(Shape("uncut"), random.Random(f"torque-validate-warmup:{seed}"))]

    @staticmethod
    def _case(shape: Shape, rng: random.Random) -> TorqueCase:
        ring = inputs.random_ring(rng)
        alpha_max = rng.uniform(0.02, 0.2)
        alphas = alpha_max * (np.arange(N_STEPS) - N_STEPS // 2) / (N_STEPS // 2)
        torques, k0 = torque_ref(ring.R, ring.Z, ring.E, alphas, ring.r, *_abs_bite(shape, ring.r))
        return TorqueCase(shape, ring, alpha_max, alphas, torques, k0)

    @staticmethod
    def op(c: TorqueCase, call):
        ring = call("geometry.build", build_ring, c.shape, c.ring)
        curve = call("torque.curve", torque_curve, ring, c.alpha_max, N_STEPS)
        oracle = call("oracle.torque", oracle_torque, ring, c.alpha_max, ORACLE_GRID)
        return curve, oracle

    @staticmethod
    def check(c: TorqueCase, out) -> tuple[float, Failure | None]:
        curve, oracle = out
        a = c.alpha_max
        if len(curve.alphas) != N_STEPS or curve.torques[N_STEPS // 2] != 0.0:
            return math.inf, Failure("mismatch", f"curve grid {curve.alphas!r}, T(0)={curve.torques[N_STEPS // 2]!r}")
        pairs = [(f"alpha[{i}]", x, y) for i, (x, y) in enumerate(zip(curve.alphas, c.alphas)) if y != 0.0]
        pairs += [(f"T[{i}]", x, y) for i, (x, y) in enumerate(zip(curve.torques, c.ref_torques)) if y != 0.0]
        pairs += [
            ("K_origin", curve.K_origin, c.ref_k0),
            ("K_secant_pos", curve.K_secant_pos, c.ref_torques[-1] / a),
            ("K_secant_neg", curve.K_secant_neg, c.ref_torques[0] / -a),
        ]
        worst, failure = compare(pairs, TOL)
        if failure is not None:
            return worst, failure
        # The curve is right, so an oracle off by more than the threshold is the grid's error.
        deviation, oracle_failure = compare(
            [("oracle vs curve endpoint", oracle, curve.torques[-1]), ("oracle vs reference", oracle, c.ref_torques[-1])],
            ORACLE_TOL,
        )
        if oracle_failure is not None and oracle_failure.kind == "tolerance":
            oracle_failure.kind, oracle_failure.deviation = "oracle-grid", deviation
        return worst, oracle_failure

    @staticmethod
    def describe(c: TorqueCase) -> str:
        return f"{c.shape.describe()} {c.ring.describe()} alpha_max={c.alpha_max:.6g}"

    @staticmethod
    def shape_key(c: TorqueCase):
        return c.shape


# ------------------------------------------------------------------- cli-cold

FORMATS = ("text", "json", "csv")
_NUM = r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan)"
# Every value the text view prints, tied to its own label: (result key, pattern).
_TEXT_LABELS = {
    "stiffness": (
        ("K_circular_Nmm_per_rad", rf"^  K_circular    = {_NUM}   \("),
        ("K_numeric_Nmm_per_rad", rf"^  K_numeric     = {_NUM}   \("),
        ("K_engineering_Nmm_per_rad", rf"^  K_engineering = {_NUM}   \("),
        ("rel_diff_engineering_vs_numeric", rf"^  engineering vs numeric: {_NUM} relative$"),
        ("rel_diff_numeric_vs_circular", rf"^  numeric vs circular:    {_NUM} relative$"),
    ),
    "integral": (
        ("classification", r"^  classification: (\S+)$"),
        ("theta1_rad", rf"^  bite arc limits: theta1={_NUM}, theta2="),
        ("theta2_rad", rf", theta2={_NUM} rad$"),
        ("I_mm4", rf"^  I          = {_NUM} mm\^4$"),
        ("I_full_arc_mm4", rf"^  full arc   = {_NUM} mm\^4$"),
        ("I_bite_arc_mm4", rf"^  bite arc   = {_NUM} mm\^4$"),
        ("est_error_mm4", rf"^  est\. error = {_NUM} mm\^4$"),
        ("I_over_r4", rf"^  I / r\^4    = {_NUM}$"),
    ),
    "fit": (
        ("n_rows", r"^surrogate fit on (\d+) rows "),
        ("c", rf"^  c = {_NUM}   \("),
        ("residual_max_abs", rf"^  max \|residual\| = {_NUM}, rms = "),
        ("residual_rms", rf", rms = {_NUM}$"),
    ),
    "oracle-check": (
        ("torque_quadrature_Nmm", rf"^  torque quadrature = {_NUM} N\*mm$"),
        ("torque_oracle_Nmm", rf"^  torque oracle     = {_NUM} N\*mm$"),
        ("rel_deviation", rf"^  relative deviation = {_NUM} \(threshold "),
        ("threshold", rf" \(threshold {_NUM}\)$"),
        ("passed", r"^  (PASS|FAIL)$"),
    ),
}
_TEXT_LABELS["fit-csv"] = _TEXT_LABELS["fit"]
# Text views that print one line per row: (keys of a row, pattern of a row line).
_TEXT_ROWS = {
    "doe": ("rows.", (".rw_ratio", ".L_ratio", ".gamma_rad", ".x", ".I_over_r4"),
            rf"^  +{_NUM}  +{_NUM}  +{_NUM}  +{_NUM}  {_NUM}$"),
    "fit": ("residuals.", ("",), rf"^    rw=\S+ +x=\S+ +residual={_NUM}$"),
}
_TEXT_ROWS["fit-csv"] = _TEXT_ROWS["fit"]
# The fit's text view prints residuals with 6 decimals.
RESIDUAL_TEXT_ABS_TOL = 5e-7 + 1e-12


@dataclass(frozen=True)
class CliOp:
    kind: str  # stiffness | integral | doe | fit | fit-csv | oracle-check
    fmt: str
    argv: tuple[str, ...]
    shape: Shape | None = None
    ring: Ring | None = None
    grid: tuple | None = None  # doe: (rw_ratios, x_values, gammas_rad)
    csv_path: Path | None = None


def cli_op(kind: str, fmt: str, shape: Shape | None = None, ring: Ring | None = None,
           grid: tuple | None = None, csv_path: Path | None = None) -> CliOp:
    argv = ["fit" if kind == "fit-csv" else kind]
    if ring is not None:
        argv += ["--R", repr(ring.R), "--r", repr(ring.r), "--Z", str(ring.Z), "--E", repr(ring.E)]
    if shape is not None and shape.rw is not None:
        argv += ["--rw-ratio", repr(shape.rw), "--L-ratio", repr(shape.L), "--gamma-rad", repr(shape.gamma)]
    if grid is not None:
        grid = tuple(tuple(values) for values in grid)
        rws, xs, gammas = grid
        argv += ["--rw-ratios", ",".join(map(repr, rws)), "--x-values", ",".join(map(repr, xs)),
                 "--gammas-rad", ",".join(map(repr, gammas))]
    if csv_path is not None:
        argv += ["--doe-csv", str(csv_path)]
    return CliOp(kind, fmt, tuple(argv + ["--format", fmt]), shape, ring, grid, csv_path)


def replay(op: CliOp, call=plain) -> dict:
    """The library calls a subcommand makes, and the results it should print."""
    if op.kind in ("stiffness", "integral", "oracle-check"):
        ring = build_ring(op.shape or Shape("uncut"), op.ring)
        section = ring.section
    if op.kind == "stiffness":
        integ = section_integral(section, QuadratureSpec())
        k_num = stiffness_from_integral(ring, integ.total)
        k_circ = stiffness_circular(WireRing(ring.R, ring.Z, ring.E, SectionGeometry.circular(section.r)))
        res = {"K_circular_Nmm_per_rad": k_circ, "K_numeric_Nmm_per_rad": k_num}
        if section.r_w is not None:
            k_eng = stiffness_engineering(ring)
            res["K_engineering_Nmm_per_rad"] = k_eng
            res["rel_diff_engineering_vs_numeric"] = (k_eng - k_num) / k_num
        res["rel_diff_numeric_vs_circular"] = (k_num - k_circ) / k_circ
        res["section_integral_mm4"] = integ.total
        return res
    if op.kind == "integral":
        integ = section_integral(section, QuadratureSpec())
        res = {
            "classification": classify_section(section).value,
            "I_mm4": integ.total,
            "I_full_arc_mm4": integ.full_arc,
            "I_bite_arc_mm4": integ.bite_arc,
            "est_error_mm4": integ.est_error,
            "I_over_r4": integ.total / ((section.r * section.r) * (section.r * section.r)),
        }
        if section.r_w is not None:
            res["theta1_rad"], res["theta2_rad"] = theta_limits(section)
        return res
    if op.kind == "doe":
        table = call("doe.run_doe", run_doe, *op.grid)
        return {
            f"rows.{i}.{k}": v
            for i, row in enumerate(table)
            for k, v in zip(("rw_ratio", "L_ratio", "gamma_rad", "x", "I_over_r4"),
                            (row.rw_ratio, row.L_ratio, row.gamma, row.x, row.I_over_r4))
        }
    if op.kind in ("fit", "fit-csv"):
        if op.csv_path is None:
            table = call("doe.run_doe", run_doe)
        else:
            table = call("doe.from_csv", DoeTable.from_csv, op.csv_path.read_text(encoding="utf-8"))
        fit = call("doe.fit_surrogate", fit_surrogate, table)
        res = {
            "c": fit.c,
            "residual_max_abs": max(abs(float(v)) for v in fit.residuals),
            "residual_rms": math.sqrt(sum(float(v) ** 2 for v in fit.residuals) / len(fit.residuals)),
            "n_rows": len(table),
        }
        if op.fmt != "csv":
            res.update((f"residuals.{i}", float(v)) for i, v in enumerate(fit.residuals))
        return res
    t_quad = torque_full(ring, 1e-3, QuadratureSpec())
    t_oracle = oracle_torque(ring, 1e-3, GridSpec(400, 400))
    deviation = abs(t_oracle - t_quad) / abs(t_quad)
    return {
        "torque_quadrature_Nmm": t_quad,
        "torque_oracle_Nmm": t_oracle,
        "rel_deviation": deviation,
        "threshold": ORACLE_TOL,
        "passed": deviation <= ORACLE_TOL,
    }


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _flatten(results: dict) -> dict:
    flat = {}
    for key, value in results.items():
        if key == "rows":
            flat.update((f"rows.{i}.{k}", v) for i, row in enumerate(value) for k, v in row.items())
        elif key == "residuals":
            flat.update((f"residuals.{i}", v) for i, v in enumerate(value))
        else:
            flat[key] = value
    return flat


def _text_value(key: str, token: str):
    if key == "passed":
        return token == "PASS"
    return token if key == "classification" else float(token)


def parse_text(op: CliOp, text: str) -> dict:
    """Each value of the text view, read at its own label or row; raises ValueError."""
    got = {}
    for key, pattern in _TEXT_LABELS.get(op.kind, ()):
        found = re.findall(pattern, text, re.MULTILINE)
        if len(found) > 1:
            raise ValueError(f"{key} printed {len(found)} times")
        if found:
            got[key] = _text_value(key, found[0])
    if op.kind in _TEXT_ROWS:
        prefix, keys, pattern = _TEXT_ROWS[op.kind]
        for i, row in enumerate(re.findall(pattern, text, re.MULTILINE)):
            row = row if isinstance(row, tuple) else (row,)
            got.update((f"{prefix}{i}{k}", float(v)) for k, v in zip(keys, row))
    return got


def parse_output(op: CliOp, text: str) -> dict:
    """Strict JSON or CSV parse, or the text view by label, into flat result keys; raises ValueError."""
    if op.fmt == "text":
        return parse_text(op, text)
    if op.fmt == "json":
        doc = json.loads(text, parse_constant=_reject_constant)
        return _flatten(doc["results"])
    rows = list(csv.reader(io.StringIO(text)))
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged CSV")
    if op.kind == "doe":
        return {f"rows.{i}.{k}": float(v) for i, row in enumerate(rows[1:]) for k, v in zip(rows[0], row)}
    if len(rows) != 2:
        raise ValueError(f"expected a header and one row, got {len(rows)} rows")
    return dict(zip(rows[0], rows[1]))


class CliCold:
    """One op is one fresh ``python -m wiretwist.cli`` process.

    A round is 7 ops: stiffness, integral, doe (seeded grid), fit
    (regenerated map), fit --doe-csv (file written at set-up), oracle-check
    on a seeded uncut/full/partial section, and oracle-check on one of the
    deep-bite anchors.  Formats rotate text/json/csv from op to op.
    """

    CLASSES = ("uncut", "full", "partial", "deep")
    clock = time.perf_counter_ns

    def __init__(self, seed: int, root: Path):
        self.root = root
        self.scratch = root / ".bench_out"
        self.env = child_env(root)
        self.rng = rng = random.Random(f"cli-cold:{seed}")
        self.streams = inputs.streams(rng)
        self.csv_path = self.scratch / f"doe-seed{seed}.csv"
        self.csv_path.write_text(run_doe(*self._grid(rng)).to_csv(), encoding="utf-8", newline="")
        self.k = 0
        self.warmup = [cli_op("stiffness", "text", ring=inputs.REFERENCE_RING)]
        self.expected: dict[CliOp, dict] = {}
        self.peak_child_kb = 0

    def next_round(self) -> list[CliOp]:
        k, rng, s = self.k, self.rng, self.streams
        self.k += 1
        specs = [
            ("stiffness", dict(shape=s[self.CLASSES[k % 4]].next(), ring=inputs.random_ring(rng))),
            ("integral", dict(shape=s[self.CLASSES[(k + 2) % 4]].next(), ring=inputs.random_ring(rng))),
            ("doe", dict(grid=self._grid(rng))),
            ("fit", {}),
            ("fit-csv", dict(csv_path=self.csv_path)),
            ("oracle-check", dict(shape=s[self.CLASSES[k % 3]].next(), ring=inputs.random_ring(rng))),
            ("oracle-check", dict(shape=DEEP_ANCHORS[k % 3], ring=inputs.random_ring(rng))),
        ]
        return [cli_op(kind, FORMATS[(7 * k + j) % 3], **kw) for j, (kind, kw) in enumerate(specs)]

    @staticmethod
    def _grid(rng: random.Random) -> tuple:
        """A factorial grid with one x in each quarter of the range, so the fit has rows with x < 1."""
        rws = sorted(inputs.RW_MIN * (inputs.RW_MAX / inputs.RW_MIN) ** rng.random() for _ in range(3))
        xs = [inputs.X_MIN + (j + rng.random()) / 4 * (inputs.X_FULL_MAX - inputs.X_MIN) for j in range(4)]
        return rws, xs, [rng.uniform(0.0, 2.0 * math.pi)]

    def argv(self, op: CliOp) -> list[str]:
        return [sys.executable, "-m", "wiretwist.cli", *op.argv]

    def op(self, op: CliOp, call):
        return call("cli.run", run_child, self.argv(op), self.env, self.root, self.scratch)

    def check(self, op: CliOp, out) -> tuple[float, Failure | None]:
        self.peak_child_kb = max(self.peak_child_kb, out.maxrss_kb)
        stderr = out.stderr.decode("utf-8", "replace").strip()[-300:]
        if out.returncode == 3:  # the CLI's exit code for a quadrature failure
            return math.inf, Failure("quadrature", f"exit 3: {stderr}")
        if out.returncode not in (0, 4):
            return math.inf, Failure("exit", f"exit {out.returncode}: {stderr}")
        if op not in self.expected:
            self.expected[op] = replay(op)
        want = self.expected[op]
        worst, failure = self._compare(op, out.stdout.decode("utf-8"), want)
        if failure is None and out.returncode == 4:
            # exit 4 is oracle-check reporting a deviation above its threshold
            if want.get("passed") is not False:
                return worst, Failure("exit", f"exit 4 where the library passes: {stderr}")
            t_ref = torque_ref(op.ring.R, op.ring.Z, op.ring.E, [1e-3], op.ring.r,
                               *_abs_bite(op.shape, op.ring.r))[0][0]
            quad_err = rel_err(want["torque_quadrature_Nmm"], t_ref)
            kind = "oracle-grid" if quad_err <= TOL else "check-exit"
            failure = Failure(kind, f"exit 4: oracle deviation {want['rel_deviation']:.4g}, "
                                    f"quadrature torque off the reference by {quad_err:.3g}",
                              want["rel_deviation"])
        return worst, failure

    @staticmethod
    def _compare(op: CliOp, text: str, want: dict) -> tuple[float, Failure | None]:
        try:
            got = parse_output(op, text)
        except (ValueError, KeyError) as exc:
            return math.inf, Failure("mismatch", f"unparseable {op.fmt}: {exc}")
        if op.fmt == "text":  # the text view leaves out some keys of the other views
            printed = {key for key, _ in _TEXT_LABELS.get(op.kind, ())}
            prefix = _TEXT_ROWS[op.kind][0] if op.kind in _TEXT_ROWS else None
            want = {k: v for k, v in want.items() if k in printed or (prefix and k.startswith(prefix))}
            extra = sorted(set(got) - set(want))
            if extra:
                return math.inf, Failure("mismatch", f"unexpected {extra[:3]}")
        pairs = []
        for k, v in want.items():
            if k not in got:
                return math.inf, Failure("mismatch", f"missing {k}")
            if isinstance(v, (str, bool)):
                if str(got[k]) != str(v):
                    return math.inf, Failure("mismatch", f"{k}: got {got[k]!r}, want {v!r}")
            elif op.fmt == "text" and k.startswith("residuals."):
                if not abs(float(got[k]) - v) <= RESIDUAL_TEXT_ABS_TOL:
                    return math.inf, Failure("mismatch", f"{k}: got {got[k]!r}, want {v!r}")
            else:
                pairs.append((k, float(got[k]), v))
        worst, failure = compare(pairs, CLI_TOL)
        if failure is not None and failure.kind == "tolerance":
            failure.kind = "mismatch"  # the CLI disagrees with the library
        return worst, failure

    @staticmethod
    def describe(op: CliOp) -> str:
        return " ".join(op.argv)

    @staticmethod
    def shape_key(op: CliOp):
        return op.shape


WORKLOADS = {
    "design-sweep": DesignSweep,
    "torque-validate": TorqueValidate,
    "cli-cold": CliCold,
}
