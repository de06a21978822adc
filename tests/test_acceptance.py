"""Acceptance gate: every criterion from the verification registry, with a
printed pass/fail line and the stated runtime budget enforced."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from posetahedra.verification import CRITERIA, run_criterion

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "cid,name,limit,fn", CRITERIA, ids=[f"C{cid:02d}-{name}" for cid, name, _, _ in CRITERIA]
)
def test_criterion(cid, name, limit, fn):
    result = run_criterion(cid, name, limit, fn)
    print(result.line())
    assert result.passed, result.detail


def test_criterion_fails_under_python_optimize():
    """With asserts stripped (-O), a broken f_vector still fails C01."""
    code = (
        "from posetahedra import verification\n"
        "verification.f_vector = lambda lattice: (0,)\n"
        "print(verification.run_criterion(*verification.CRITERIA[0]).line())\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("[FAIL] C01 "), proc.stdout
    assert "MismatchError: C01: expected f-vector (5, 5, 1), got (0,)" in proc.stdout
