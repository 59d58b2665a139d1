"""Self-tests of the benchmark at tiny sizes: python3 perfbench/selftest.py

Runs every workload's op path, the oracle and the tracer on the smoke op
lists, checks that a corrupted stdout counts as a failed op, and that the
benchmark refuses to run without the package source.  The file name keeps
it out of the repository's pytest collection.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import tracer  # noqa: E402


def corrupt(stdout: str) -> str:
    """Fail one verify check, or change the last digit; the JSON stays valid."""
    if '"checks"' in stdout:
        return stdout.replace('"passed": true', '"passed": false', 1)
    i = max(stdout.rfind(d) for d in "0123456789")
    return stdout[:i] + str((int(stdout[i]) + 1) % 10) + stdout[i + 1:]


def truncate(stdout: str) -> str:
    return stdout[: len(stdout) // 2]


class SmokeRuns(unittest.TestCase):
    def test_untraced_reports_every_end_to_end_metric(self):
        for name in run.SMOKE:
            with self.subTest(workload=name):
                out = run.run_workload(name, 7, 0.1, trace=False, smoke=True)["result"]
                self.assertTrue(out["correct"], out)
                self.assertEqual(out["failed"], 0)
                self.assertEqual(
                    {k: m["unit"] for k, m in out["metrics"].items()}, run.END_TO_END
                )
                self.assertEqual(out["metrics"]["pass_frac"]["value"], 1.0)
                for key in ("wall_s", "max_op_s", "items_per_s", "setup_s", "peak_rss_mib"):
                    self.assertGreater(out["metrics"][key]["value"], 0)

    def test_traced_run_sees_calls_made_through_cli(self):
        want = {
            # cli imports these by name, so only a rebinding in cli catches them
            "expand-wide": ("closedform.cluster_var_formula.out_terms", "laurent.pow.calls",
                            "laurent.exact_div.calls", "recurrence.cluster_var_recurrence.steps"),
            "expand-deep": ("closedform.enumerate_admissible.tuples", "laurent.init.calls"),
            "chi-table": ("closedform.chi_formula.calls", "combinat.mod_binom.calls"),
            "verify-grid": ("identities.staged_chi_sum.calls", "cli.run_check.calls",
                            "recurrence.cluster_var_recurrence.memo_hits"),
        }
        for name, keys in want.items():
            with self.subTest(workload=name):
                out = run.run_workload(name, 7, 0.1, trace=True, smoke=True)["result"]
                self.assertTrue(out["correct"], out)
                names = [m["name"] for m in run.load_layers()]
                self.assertEqual(list(out["metrics"]), names)
                for key in keys:
                    self.assertGreater(out["metrics"][key]["value"], 0, key)
        self.assertEqual(out["metrics"]["cli.run_check.calls"]["value"], run.VERIFY_CHECKS[(2, 6)])


class Failures(unittest.TestCase):
    def test_corrupted_stdout_raises_fail_frac(self):
        for name in run.SMOKE:
            for mangle in (corrupt, truncate):
                with self.subTest(workload=name, mangle=mangle.__name__):
                    out = run.run_workload(name, 7, 0.1, trace=False, smoke=True,
                                           mangle=mangle)["result"]
                    self.assertFalse(out["correct"])
                    self.assertGreater(out["failed"], 0)
                    self.assertLess(out["metrics"]["pass_frac"]["value"], 1.0)

    def test_oracle_rejects_a_wrong_sum_even_with_a_matching_digest(self):
        op = ("chi", 2, 8)
        argv = run.argv_for(op, 0)
        good = run.run_worker(argv, False, 60)["stdout"]
        bad = good.replace('"value": "1"}]', '"value": "2"}]')
        self.assertNotEqual(bad, good)
        fake = {" ".join(argv): hashlib.sha256(bad.encode()).hexdigest()}
        reason, items = run.check_output(op, argv, bad, fake)
        self.assertIsNotNone(reason)
        self.assertEqual(items, 0)
        self.assertIsNone(run.check_output(op, argv, good, run.load_reference())[0])

    def test_refuses_to_run_without_the_package(self):
        bare = os.path.join(run.REPORTS, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(os.path.join(bare, "perfbench"))
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            for fname in os.listdir(run.HERE):
                if fname.endswith((".py", ".json")):
                    shutil.copy(os.path.join(run.HERE, fname), os.path.join(bare, "perfbench"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify-grid",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class Pieces(unittest.TestCase):
    def test_scalar_shadow(self):
        self.assertEqual([run.y_value(2, n) for n in range(1, 8)], [1, 1, 2, 5, 13, 34, 89])
        self.assertEqual([run.a_value(3, n) for n in range(6)], [-1, 0, 1, 3, 8, 21])

    def test_self_time_subtracts_children(self):
        spans = [["a", -1, 0, 100, None], ["b", 0, 10, 30, None], ["c", 1, 15, 5, None],
                 ["d", 0, 50, 20, None]]
        self.assertEqual(tracer.self_times(spans), [50, 25, 5, 20])

    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            bench["per_layer"],
            [{k: m[k] for k in ("name", "unit", "better")} for m in run.load_layers()],
        )


if __name__ == "__main__":
    unittest.main()
