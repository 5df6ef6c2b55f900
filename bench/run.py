"""wiretwist benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload design-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the benchmark imports ``wiretwist`` from
``src/`` there and exits with code 2, printing no result, when it is absent.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``failed`` counts the ops that failed other than by a standing defect of the
program (see ``workloads.standing``); ops that miss by a standing defect
count in ``ok_frac`` and ``accuracy_digits`` and in the failure file.
Failures, and with ``--trace 1`` the spans, go to ``.bench_out/``.
See ``bench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("design-sweep", "torque-validate", "cli-cold")
SETUP_REPEATS = 7
# -log10 of a relative error below double resolution is capped at 17 digits.
ERR_FLOOR = 1e-17
# In-process ops are timed in CPU time: on a shared virtual machine the
# hypervisor takes the CPU away for tens of milliseconds at a time (steal
# time), which would swamp the tail of millisecond ops.  Ops that are child
# processes (cli-cold) and set-up are timed in wall time, since a child's
# CPU time also counts the threads numpy starts at import.  The host's speed
# also swings by up to 1.7x within a minute.  So a run times a fixed
# pure-Python kernel that calls nothing in wiretwist, in bursts of
# CAL_BURST between two ops at least CAL_EVERY_NS apart and at the end of
# every round, on the same clock as its ops (the workload's ``clock``).
# Each op time is scaled to a host that runs the kernel in 1 ms, by the
# kernel time around it: scaled = measured * CAL_REF_NS / k, where k is the
# mean of the medians of the bursts before and after the op.  The measured
# throughput is printed too.  A run ends at the round boundary where its
# scaled op time comes nearest to --seconds, so the number of rounds, and
# with it the percentile that op_tail_ms reads, does not follow the host's
# speed.  Set-up, a few fresh processes before the ops, is timed in wall
# time and scaled by the trimmed mean of the run's kernel bursts in wall
# time.
CAL_ITERATIONS = 4000
CAL_REF_NS = 1_000_000
CAL_EVERY_NS = 100_000_000
CAL_BURST = 3
# Op times kept for the median; beyond this many ops it is the median of a
# seeded uniform sample, so that the benchmark's own memory, which counts in
# peak_rss_mb, does not grow when the program gets faster.
SAMPLE_CAP = 2**17


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Times:
    """Op times in constant memory: count, total, the 11 largest, a sample for the median."""

    def __init__(self, seed: int):
        self.n = 0
        self.total = 0.0
        self.top: list[float] = []  # min-heap of the 11 largest
        self.sample = array("d", bytes(8 * SAMPLE_CAP))
        self.rng = random.Random(seed)

    def add(self, t: float) -> None:
        if self.n < SAMPLE_CAP:
            self.sample[self.n] = t
        else:
            j = self.rng.randrange(self.n + 1)
            if j < SAMPLE_CAP:
                self.sample[j] = t
        self.n += 1
        self.total += t
        if len(self.top) < 11:
            heapq.heappush(self.top, t)
        elif t > self.top[0]:
            heapq.heapreplace(self.top, t)

    def median(self) -> float:
        return statistics.median(self.sample[: min(self.n, SAMPLE_CAP)])

    def tail(self) -> tuple[float, float]:
        """The highest percentile with at least 10 samples beyond it: (percentile, time).

        That is the 11th-largest time; with 10 ops or fewer, the largest.
        """
        if self.n > 10:
            return 100.0 * (self.n - 10) / self.n, self.top[0]
        return 100.0, max(self.top)


@dataclass
class Loop:
    """What the rounds of one phase saw; failures go to ``log`` as JSON lines."""

    times: Times  # scaled op times
    log: object
    attempted: int = 0
    failed: int = 0  # every failure, standing defects too: 1 - ok_frac
    unexpected: int = 0  # failures that are not a standing defect: the result's ``failed``
    worst_err: float = 0.0
    rounds: int = 0
    measured_ns: int = 0  # op time as measured, before scaling
    kinds: Counter = field(default_factory=Counter)
    kernel_ns: list = field(default_factory=list)  # burst medians on the workload's clock
    kernel_wall_ns: list = field(default_factory=list)  # the same bursts in wall time
    shapes: set | None = None  # distinct shapes, kept only when traced

    def add(self, other: "Loop") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        self.worst_err = max(self.worst_err, other.worst_err)
        self.kinds += other.kinds


def calibration_burst(clock) -> tuple[float, float]:
    """Median time [ns] of CAL_BURST runs of a fixed pure-Python loop with no
    wiretwist in it, on ``clock`` and in wall time."""
    on_clock, wall = [], []
    for _ in range(CAL_BURST):
        w0, c0 = time.perf_counter_ns(), clock()
        s = 0.0
        for i in range(CAL_ITERATIONS):
            x = i * 1e-4
            s += math.sin(x) * math.sin(x) / (1.0 + x)
        on_clock.append(clock() - c0)
        wall.append(time.perf_counter_ns() - w0)
    return statistics.median(on_clock), statistics.median(wall)


def kernel_scale(kernel_ns: list) -> float:
    """CAL_REF_NS over the mean kernel time, the top and bottom tenth trimmed."""
    ordered = sorted(kernel_ns)
    cut = len(ordered) // 10
    kept = ordered[cut: len(ordered) - cut]
    return CAL_REF_NS / (sum(kept) / len(kept))


def run_rounds(work, loop: Loop, seconds=None, n_rounds=None, tracer=None, op_class=None) -> None:
    """Run ``n_rounds`` whole rounds, or as many as bring the scaled op time nearest to ``seconds``."""
    from workloads import op_error, plain, standing

    call = tracer.call if tracer is not None else plain
    start_ns = loop.times.total
    pending: list[int] = []  # measured times of the ops since the last burst

    def burst() -> None:
        """Time the kernel, then scale the pending ops by the bursts on both sides of them."""
        on_clock, wall = calibration_burst(work.clock)
        if loop.kernel_ns:
            scale = 2.0 * CAL_REF_NS / (loop.kernel_ns[-1] + on_clock)
            for t in pending:
                loop.times.add(t * scale)
            pending.clear()
        loop.kernel_ns.append(on_clock)
        loop.kernel_wall_ns.append(wall)

    def more(done: int) -> bool:
        if n_rounds is not None:
            return done < n_rounds
        if done == 0:
            return True
        elapsed_ns = loop.times.total - start_ns
        return elapsed_ns * (1.0 + 0.5 / done) < seconds * 1e9  # elapsed plus half a round

    burst()
    next_burst = time.perf_counter_ns() + CAL_EVERY_NS
    done = 0
    while more(done):
        for item in work.next_round():
            if time.perf_counter_ns() >= next_burst:
                burst()
                next_burst = time.perf_counter_ns() + CAL_EVERY_NS
            shape = work.shape_key(item)
            if tracer is not None:
                tracer.op_id = loop.attempted
                op_class[loop.attempted] = shape.cls if shape is not None else None
            t0 = work.clock()
            try:
                out = call("op", work.op, item, call)
                error = None
            except Exception as exc:  # every op failure is counted, never fatal
                out, error = None, exc
            t1 = work.clock()
            pending.append(t1 - t0)
            loop.measured_ns += t1 - t0
            loop.attempted += 1
            if loop.shapes is not None and shape is not None:
                loop.shapes.add(shape)
            if error is None:
                err, failure = work.check(item, out)
                if math.isfinite(err):
                    loop.worst_err = max(loop.worst_err, err)
            else:
                failure = op_error(error)
            if failure is not None:
                loop.failed += 1
                loop.kinds[failure.kind] += 1
                loop.unexpected += not standing(failure, shape)
                record = {"input": work.describe(item), "kind": failure.kind, "standing": standing(failure, shape),
                          "detail": failure.detail}
                loop.log.write(json.dumps(record) + "\n")
        burst()
        next_burst = time.perf_counter_ns() + CAL_EVERY_NS
        done += 1
    loop.rounds += done


def setup(name: str, seed: int):
    """Build the workload, then run its warm-up items untimed."""
    import workloads

    work = workloads.WORKLOADS[name](seed, ROOT)
    for item in work.warmup:
        work.check(item, work.op(item, workloads.plain))
    gc.collect()
    # Keep the benchmark's own objects out of the collector's scans while timing.
    gc.freeze()
    return work


def scaled_setup(loop: Loop, setup_measured_s: float) -> float:
    scaled = setup_measured_s * kernel_scale(loop.kernel_wall_ns)
    print(f"setup_s is the median of {SETUP_REPEATS} set-ups: {setup_measured_s:.6g} s measured, "
          f"{scaled:.6g} s scaled")
    return scaled


def end_to_end(loop: Loop, setup_measured_s: float, peak_kb: int) -> dict:
    p, tail_ns = loop.times.tail()
    measured_ops_per_s = loop.attempted / (loop.measured_ns / 1e9)
    print(f"op_tail_ms is p{p:.4g} over {loop.attempted} ops ({loop.rounds} rounds); "
          f"op times scaled by {loop.times.total / loop.measured_ns:.4g} on the whole; "
          f"measured ops_per_s {measured_ops_per_s:.6g} 1/s")
    return {
        "setup_s": (scaled_setup(loop, setup_measured_s), "s"),
        "ops_per_s": (loop.attempted / (loop.times.total / 1e9), "1/s"),
        "op_p50_ms": (loop.times.median() / 1e6, "ms"),
        "op_tail_ms": (tail_ns / 1e6, "ms"),
        "ok_frac": (1.0 - loop.failed / loop.attempted, "frac"),
        "accuracy_digits": (-math.log10(max(loop.worst_err, ERR_FLOOR)), "digits"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def traced(work, args, loop: Loop, setup_measured_s: float) -> dict:
    """Untraced rounds for half the time, the same rounds traced, then the probe."""
    import numpy
    import tracing
    from procs import child_env

    run_rounds(work, loop, seconds=args.seconds / 2)
    replay = setup(args.workload, args.seed)  # a fresh copy yields the same rounds
    tracer, op_class = tracing.Tracer(), {}
    traced_loop = Loop(Times(args.seed), loop.log, shapes=set())
    run_rounds(replay, traced_loop, n_rounds=loop.rounds, tracer=tracer, op_class=op_class)
    probed = tracing.probe(tracer, ROOT, OUT, child_env(ROOT))
    metrics, sources = tracing.layer_metrics(tracer, op_class, probed)
    # both phases ran the same rounds, each scaled by its own kernel bursts
    metrics["trace.overhead_frac"] = (traced_loop.times.total / loop.times.total - 1.0, "frac")
    metrics["trace.ops_attempted"] = (traced_loop.attempted, "count")
    metrics["trace.distinct_shapes"] = (len(traced_loop.shapes), "count")
    metrics["host.kernel_ms"] = (1.0 / kernel_scale(loop.kernel_ns + traced_loop.kernel_ns), "ms")
    record = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "git_commit": git_commit(),
            "setup_s": scaled_setup(loop, setup_measured_s),
            "setup_measured_s": setup_measured_s,
        },
        "metrics": {k: {"value": v, "unit": u, "source": sources.get(k, "ops")} for k, (v, u) in metrics.items()},
        "span_fields": ["name", "start_ns", "end_ns", "parent", "op", "work"],
        "spans": [[s[0], s[1], s[2], s[3], list(s[4]) if isinstance(s[4], tuple) else s[4], s[5]] for s in tracer.spans],
    }
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(record), encoding="utf-8")
    loop.add(traced_loop)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wiretwist" / "__init__.py").is_file():
        print(f"error: {SRC / 'wiretwist'} not found; run from the root of a wiretwist checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    import wiretwist

    if not Path(wiretwist.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported wiretwist from {wiretwist.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    from procs import child_env, run_child

    env = child_env(ROOT)
    child = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    setups = []
    for _ in range(SETUP_REPEATS):
        done = run_child(child, env, ROOT, OUT)
        if done.returncode != 0:
            print(done.stderr.decode("utf-8", "replace"), file=sys.stderr)
            return 1
        setups.append(done.wall_ns / 1e9)
    setup_s = statistics.median(setups)

    work = setup(args.workload, args.seed)
    failures_path = OUT / f"failures-{args.workload}-seed{args.seed}.jsonl"
    with open(failures_path, "w", encoding="utf-8") as log:
        loop = Loop(Times(args.seed), log)
        if args.trace:
            metrics = traced(work, args, loop, setup_s)
        else:
            run_rounds(work, loop, seconds=args.seconds)
            peak_kb = getattr(work, "peak_child_kb", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = end_to_end(loop, setup_s, peak_kb)

    kinds = ", ".join(f"{n} {k}" for k, n in sorted(loop.kinds.items())) or "none"
    print(f"{args.workload} seed {args.seed}: {loop.attempted} ops, {loop.failed} failed ({kinds}; "
          f"failed_frac {loop.failed / loop.attempted:.6g}), {loop.unexpected} not a standing defect; "
          f"listed in {failures_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    result = {
        "correct": loop.unexpected == 0,
        "attempted": loop.attempted,
        "failed": loop.unexpected,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
