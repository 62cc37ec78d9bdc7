"""Smoke run of the benchmark's traced mode, which wraps sketchsynth's
entry points by name: a renamed or re-signed hook shows up here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# hook points the tracer reports as missing on the current program
UNHOOKED = {"sketchsynth.decode.apply_solution", "bitvec.var(...).tid"}


def _check_traced_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert detail["problems"] == {}
    assert set(detail["unhooked"]) <= UNHOOKED


def test_traced_paper_run_is_correct_and_fully_hooked():
    _check_traced_run("paper")


def test_traced_wide_run_is_correct_and_fully_hooked():
    _check_traced_run("wide")
