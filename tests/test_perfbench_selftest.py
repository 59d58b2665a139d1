"""The benchmark's self-test, opt-in: `pytest -m slow` (about 30 s).

perfbench/selftest.py runs every workload at smoke sizes with the tracer
on, so it holds the library to the tracer's contract: each `exact_div`
span sits directly under the recurrence span, `enumerate_admissible`
yields tuples, and the chi table makes `chi_formula` and `mod_binom`
calls.  A library refactor that moves work out of those names fails here
before it fails the benchmark.  Reports go to the gitignored
perfbench/reports/.
"""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
