"""The benchmark's self-test: its traced-contract case on every run, the
whole of it opt-in with `pytest -m slow` (about 20 s on a shared 2-core
host, Python 3.11.7).

perfbench/selftest.py runs every workload at smoke sizes with the tracer
on, so it holds the library to the tracer's contract: each `exact_div`
span sits directly under the recurrence span, `enumerate_admissible`
yields tuples, and the chi table makes `chi_formula` and `mod_binom`
calls.  That case takes under 2 s, so a library refactor that moves work
out of those names fails the default suite, before it fails the
benchmark.  Reports go to the gitignored perfbench/reports/.
"""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_traced_contract_holds_through_the_cli():
    # the self-test case that reads the traced counters of every workload
    proc = subprocess.run(
        [sys.executable, "-m", "unittest",
         "selftest.SmokeRuns.test_traced_run_sees_calls_made_through_cli"],
        cwd=ROOT / "perfbench", capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.slow
def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
