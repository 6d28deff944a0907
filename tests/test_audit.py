"""Smoke test of tools/audit.py: one mutant, run in a temporary copy."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _checkout_state():
    status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                            capture_output=True, text=True)
    return (status.returncode, status.stdout,
            (ROOT / "src" / "fouriergit" / "_domain.py").read_bytes())


def test_one_mutant_is_killed_in_a_copy():
    # POSITIVE's 0 < v becomes 1 < v, which tests/test_domain.py kills
    before = _checkout_state()
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "audit.py"), "mutate",
         "_domain.py:32:51"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].split() == ["killed", "_domain.py:32:51", "'0'", "->",
                                "'1'", "by", "tests/test_domain.py"]
    assert lines[-1] == "mutants=1 killed=1 survived=0 score=100.0%"
    assert _checkout_state() == before
