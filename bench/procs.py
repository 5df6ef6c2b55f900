"""Run one child process to completion: exit code, output, wall time, peak RSS.

Output goes to files in the benchmark's scratch directory, so that the parent can
reap the child with ``os.wait4`` and read that child's own ``ru_maxrss``.
A child that outlives ``timeout`` is killed and reaped.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_ns: int
    maxrss_kb: int


def child_env(root: Path) -> dict:
    """The environment of every child: wiretwist from ``src/``, no bytecode written.

    Without a bytecode cache each cold start also compiles wiretwist, the same
    whether or not the caller's environment sets PYTHONDONTWRITEBYTECODE.
    """
    return {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def run_child(argv: list[str], env: dict, cwd: Path, scratch: Path, timeout: float = 120.0) -> ChildResult:
    out_path = scratch / f"child-{os.getpid()}.out"
    err_path = scratch / f"child-{os.getpid()}.err"
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            t0 = time.perf_counter_ns()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except ChildTimeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter_ns()
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = ChildResult(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), t1 - t0, usage.ru_maxrss)
    out_path.unlink()
    err_path.unlink()
    return result
