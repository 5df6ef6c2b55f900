"""Spans around calls into each ``wiretwist`` layer, and the per-layer metrics.

A span is ``[name, start_ns, end_ns, parent index, op id, work]``; spans are
kept in memory and written out when the run ends.  ``work`` is a count seen
from outside the layer: torque samples, oracle grid cells, CLI stdout bytes.

Per-layer metrics come from the workload's own traced ops where it calls the
layer.  For layers the workload does not call, a fixed probe on the paper's
reference bearing gives the per-call numbers, so that every traced run
reports every layer; counts and shares always come from the workload's ops.
The CLI start-up layers (interpreter, import, in-process ``main``, render)
are probes in every workload.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from wiretwist import DoeTable, cli, fit_surrogate, oracle_torque, run_doe, torque_curve
from wiretwist.doe import DEFAULT_GAMMAS, DEFAULT_RW_RATIOS, DEFAULT_X_VALUES

import workloads as wl
from inputs import ANCHORS, REFERENCE_RING, Shape
from procs import run_child

WORK = {
    "torque.curve": lambda args, result: len(result.alphas),
    "oracle.torque": lambda args, result: args[2].n_rho * args[2].n_theta,
    "cli.run": lambda args, result: len(result.stdout),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = [name, t0, t1, parent, self.op_id, 0]
        if name in WORK:
            self.spans[index][5] = WORK[name](args, result)
        return result


PROBE_SHAPES = {
    "uncut": Shape("uncut"),
    "full": Shape.bite(3.0, 4.2, 0.7),
    "partial": ANCHORS[0],
    "deep": ANCHORS[2],
}
PROBE_KINDS = ("stiffness", "integral", "doe", "fit", "fit-csv", "oracle-check")


def _csv_roundtrip(table):
    return DoeTable.from_csv(table.to_csv())


def _main_quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _import_times(stderr: str) -> tuple[float, float]:
    """(wiretwist.cli, numpy) cumulative import time [ms] from ``-X importtime``."""
    total, numpy_us = 0, 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        if name.strip() == "numpy":
            numpy_us = int(cumulative)
        if name.startswith(" wiretwist"):  # top level: one space after the bar
            total += int(cumulative)
    return total / 1e3, numpy_us / 1e3


def probe(tracer: Tracer, root: Path, scratch: Path, env: dict) -> dict:
    """Fixed calls into every layer; returns the values that are not spans."""
    for cls, shape in PROBE_SHAPES.items():
        tracer.op_id = ("probe", cls)
        candidate = wl.Candidate(shape, REFERENCE_RING, None)
        for _ in range(5):
            wl.DesignSweep.op(candidate, tracer.call)
    tracer.op_id = ("probe", "partial")
    ring = wl.build_ring(ANCHORS[0], REFERENCE_RING)
    for _ in range(2):
        tracer.call("torque.curve", torque_curve, ring, 0.1, wl.N_STEPS)
    for _ in range(3):
        tracer.call("oracle.torque", oracle_torque, ring, 0.1, wl.ORACLE_GRID)
    tracemalloc.start()
    oracle_torque(ring, 0.1, wl.ORACLE_GRID)
    oracle_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    for _ in range(3):
        table = tracer.call("doe.run_doe", run_doe)
        tracer.call("doe.fit_surrogate", fit_surrogate, table)
        tracer.call("doe.csv_roundtrip", _csv_roundtrip, table)

    tracer.op_id = ("probe", "cli")
    python = [sys.executable]
    for _ in range(5):
        tracer.call("cli.interpreter", run_child, python + ["-c", "pass"], env, root, scratch)
    imports = []
    for _ in range(5):
        child = run_child(python + ["-X", "importtime", "-c", "import wiretwist.cli"], env, root, scratch)
        imports.append(_import_times(child.stderr.decode("utf-8", "replace")))
    csv_path = scratch / "probe-doe.csv"
    csv_path.write_text(run_doe().to_csv(), encoding="utf-8", newline="")
    render = []
    for kind in PROBE_KINDS:
        shape = PROBE_SHAPES["partial"] if kind in ("stiffness", "integral", "oracle-check") else None
        op = wl.cli_op(
            kind, "json", shape=shape,
            ring=REFERENCE_RING if shape is not None else None,
            grid=(DEFAULT_RW_RATIOS, DEFAULT_X_VALUES, DEFAULT_GAMMAS) if kind == "doe" else None,
            csv_path=csv_path if kind == "fit-csv" else None,
        )
        mains, replays = [], []
        for _ in range(3):
            t0 = time.perf_counter_ns()
            tracer.call(f"cli.main.{kind}", _main_quiet, list(op.argv))
            t1 = time.perf_counter_ns()
            tracer.call(f"cli.replay.{kind}", wl.replay, op, tracer.call)
            t2 = time.perf_counter_ns()
            mains.append(t1 - t0)
            replays.append(t2 - t1)
        render.append((statistics.median(mains) - statistics.median(replays)) / 1e6)
    return {
        "oracle.peak_alloc_mb": oracle_peak / 2**20,
        "cli.import_ms": statistics.median(t for t, _ in imports),
        "cli.import_numpy_ms": statistics.median(n for _, n in imports),
        "cli.render_ms": statistics.median(render),
    }


def layer_metrics(tracer: Tracer, op_class: dict, probed: dict) -> tuple[dict, dict]:
    """Per-layer metrics and, for each, whether it came from the ops or the probe.

    ``op_class`` maps the op id of every traced op to its shape class.
    """
    loop: dict[str, list] = {}
    prb: dict[str, list] = {}
    for span in tracer.spans:
        is_probe = isinstance(span[4], tuple)
        (prb if is_probe else loop).setdefault(span[0], []).append(span)
    op_total = sum(s[2] - s[1] for s in loop.get("op", []))
    metrics, sources = {}, {}

    def cls_of(span):
        return span[4][1] if isinstance(span[4], tuple) else op_class.get(span[4])

    def spans(name, cls=None):
        def pick(group):
            return [s for s in group.get(name, []) if cls is None or cls_of(s) == cls]
        own = pick(loop)
        return (own, "ops") if own else (pick(prb), "probe")

    def put(metric, value, unit, source):
        metrics[metric] = (value, unit)
        sources[metric] = source

    def p50(metric, name, scale, unit, cls=None):
        chosen, source = spans(name, cls)
        put(metric, statistics.median(s[2] - s[1] for s in chosen) / scale, unit, source)

    def share(metric, name):
        busy = sum(s[2] - s[1] for s in loop.get(name, []))
        put(metric, busy / op_total if op_total else 0.0, "frac", "ops")

    def per_work(metric, name, scale, unit):
        chosen, source = spans(name)
        work = sum(s[5] for s in chosen)
        put(metric, sum(s[2] - s[1] for s in chosen) / scale / work, unit, source)

    def work(metric, name):
        put(metric, sum(s[5] for s in loop.get(name, [])), "count", "ops")

    p50("geometry.build_us", "geometry.build", 1e3, "us")
    share("geometry.share", "geometry.build")
    p50("stiffness.section_integral_us", "stiffness.section_integral", 1e3, "us")
    for cls in ("uncut", "full", "partial", "deep"):
        p50(f"stiffness.section_integral_us.{cls}", "stiffness.section_integral", 1e3, "us", cls)
    share("stiffness.section_integral_share", "stiffness.section_integral")
    p50("stiffness.routes_us", "stiffness.routes", 1e3, "us")
    p50("doe.surrogate_integral_us", "doe.surrogate_integral", 1e3, "us")
    p50("doe.run_doe_ms", "doe.run_doe", 1e6, "ms")
    p50("doe.fit_ms", "doe.fit_surrogate", 1e6, "ms")
    p50("doe.csv_roundtrip_ms", "doe.csv_roundtrip", 1e6, "ms")
    p50("torque.curve_ms", "torque.curve", 1e6, "ms")
    work("torque.samples", "torque.curve")
    per_work("torque.ms_per_sample", "torque.curve", 1e6, "ms")
    share("torque.share", "torque.curve")
    p50("oracle.ms", "oracle.torque", 1e6, "ms")
    work("oracle.cells", "oracle.torque")
    per_work("oracle.ns_per_cell", "oracle.torque", 1.0, "ns")
    put("oracle.peak_alloc_mb", probed["oracle.peak_alloc_mb"], "MB", "probe")
    share("oracle.share", "oracle.torque")
    p50("cli.interpreter_ms", "cli.interpreter", 1e6, "ms")
    put("cli.import_ms", probed["cli.import_ms"], "ms", "probe")
    put("cli.import_numpy_ms", probed["cli.import_numpy_ms"], "ms", "probe")
    for kind in PROBE_KINDS:
        p50(f"cli.main_ms.{kind}", f"cli.main.{kind}", 1e6, "ms")
    put("cli.render_ms", probed["cli.render_ms"], "ms", "probe")
    work("cli.bytes_out", "cli.run")
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite layer metrics: {bad}")
    return metrics, sources
