"""Every CLI subcommand's output matches its golden file byte for byte.

The goldens live in tests/golden/; tests/golden/regenerate.py documents the
cases and rewrites the files when a change is meant to move a value.
"""

from __future__ import annotations

import pytest

from golden.regenerate import CASES, GOLDEN_DIR, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    code, out, err = run_case(CASES[name])
    assert code == 0, err
    assert out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()
    stderr_path = GOLDEN_DIR / f"{name}.stderr"
    expected_err = stderr_path.read_bytes() if stderr_path.exists() else b""
    assert err.encode("utf-8") == expected_err
