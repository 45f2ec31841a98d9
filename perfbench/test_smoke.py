"""Smoke test of the benchmark itself: ``pytest perfbench/test_smoke.py``.

Runs every workload once at tiny sizes, traced and untraced, and fails
unless every metric of BENCHMARK.json is emitted with its unit, no call
failed, and the counts repeat exactly between two traced runs.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_smoke_mode_passes():
    res = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.count(": ok") == 3, res.stdout
