"""Golden outputs of the wiretwist CLI, and the script that rewrites them.

Each case runs ``wiretwist.cli.main`` in-process and stores its stdout as
``<case>.<txt|json|csv>`` in this directory; a non-empty stderr (summary
lines, forwarded warnings) goes to ``<case>.<ext>.stderr`` beside it.
``tests/test_golden.py`` compares the current output with these files byte
for byte.  Regenerate only when a change is meant to move a printed value,
and record which files changed and by how much:

    PYTHONPATH=src python tests/golden/regenerate.py [case-prefix ...]

With prefixes, only the cases whose name starts with one of them are
rewritten.  A deep bite (L^2 < r^2 + r_w^2) is pinned for every command
that takes a section.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from wiretwist.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent

_FORMATS = {"text": "txt", "json": "json", "csv": "csv"}
_SHAPES = {
    "partial": ["--rw-ratio", "3", "--L-ratio", "3.5", "--gamma-deg", "45"],
    "full": ["--rw-ratio", "3", "--L-ratio", "4.2"],
}
_DEEP = ["--rw-ratio", "3", "--L-ratio", "3.05", "--gamma-deg", "45"]
_COMMANDS = ("stiffness", "integral", "doe", "fit", "torque-curve", "oracle-check")
_SHAPED_COMMANDS = ("stiffness", "integral", "torque-curve")
_DEEP_COMMANDS = ("stiffness", "integral", "torque-curve", "oracle-check")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for fmt, ext in _FORMATS.items():
        for cmd in _COMMANDS:
            cases[f"{cmd}.{ext}"] = [cmd, "--format", fmt]
        for cmd in _SHAPED_COMMANDS:
            for shape, flags in _SHAPES.items():
                cases[f"{cmd}-{shape}.{ext}"] = [cmd, *flags, "--format", fmt]
        for cmd in _DEEP_COMMANDS:
            cases[f"{cmd}-deep.{ext}"] = [cmd, *_DEEP, "--format", fmt]
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def regenerate(prefixes: list[str]) -> None:
    for name, argv in CASES.items():
        if prefixes and not name.startswith(tuple(prefixes)):
            continue
        code, out, err = run_case(argv)
        if code != 0:
            raise SystemExit(f"{name}: wiretwist {' '.join(argv)} exited {code}:\n{err}")
        (GOLDEN_DIR / name).write_text(out, encoding="utf-8", newline="")
        stderr_path = GOLDEN_DIR / f"{name}.stderr"
        if err:
            stderr_path.write_text(err, encoding="utf-8", newline="")
        else:
            stderr_path.unlink(missing_ok=True)
        print(f"wrote {name}")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
