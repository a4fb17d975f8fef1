"""The suite's own configuration: which tests a mark expression selects."""

import os
import subprocess
import sys

import knightcycles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LONGJOBS = ("test_k14_reproduction", "test_k16_reproduction")


def _collected(*args: str) -> list[str]:
    """Node ids that pytest, run in a child process from the project root,
    would run on the acceptance suite."""
    src = os.path.dirname(os.path.dirname(knightcycles.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *args, "tests/test_acceptance.py"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return [line for line in proc.stdout.splitlines() if "::" in line]


def test_not_slow_leaves_out_the_longjobs():
    collected = _collected("-m", "not slow")
    assert collected
    assert not [node for node in collected if node.endswith(LONGJOBS)]


def test_longjobs_run_when_named():
    collected = _collected("-m", "longjob")
    assert sorted(node.rsplit("::", 1)[1] for node in collected) == \
        list(LONGJOBS)
