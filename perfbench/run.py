"""rank2cluster benchmark: CLI operations run cold, timed end to end and per layer.

    python3 perfbench/run.py --workload expand-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table
    python3 perfbench/run.py --workload verify-grid --smoke --trace 1

Every operation is one `rank2cluster.cli.main(argv)` call in a fresh worker
interpreter (worker.py), one worker at a time.  Start-up and import are
reported apart as `setup_s`; the op itself is timed from the call into
`main` until it returns.  The seed orders the ops and is passed to
`verify --seed`.  A run repeats its op list, in a new order each pass, while
another pass fits in `--seconds` (at least once).  Each op's time is its
slowest pass, and `wall_s` is the sum of these times.  On a shared 2-core
host one op's time was bimodal: a tight slow mode while other tenants were
busy, and a fast mode scattered over up to 2x while they idled, in phases
of seconds to minutes.  The slowest pass lands in the tight mode whenever
any pass does: over ten runs of the expand and chi workloads it spread
6-10 % (IQR over median), against 14-35 % for the median pass and 18-34 %
for the fastest.

Correctness is checked outside the package.  Expand and chi stdout must
match the sha256 digests in reference.json, recorded by running the same
argv on the seed commit; their coefficient sums must equal the scalar
shadow y_n of the recurrence, computed here by its own loop, and the corner
cells must be 1.  Verify must report all_passed and the expected number of
passed checks.  An op fails on a nonzero exit, a missing MATCH, a failed
check, an exception or a timeout.

With `--trace 0` the last stdout line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of layers.json, taken by running every op
untraced and then traced (tracer.py).  A report with the environment, the
per-op table and the metrics is written to perfbench/reports/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REPORTS = os.path.join(HERE, "reports")

# Each op list runs in about 3.5-6 s on a 2-core machine, so a 30 s run
# takes five to eight passes; single ops of 13-16 s, such as expand (5,7) or
# chi (3,9), gave one sample per run and run-to-run spreads above 15 %.  See
# the `why` of each workload in BENCHMARK.json for the layer it stresses.
WORKLOADS = {
    "expand-wide": [("expand", 4, 7), ("expand", 8, 6), ("expand", 7, 6)],
    "expand-deep": [("expand", 2, 40), ("expand", 2, 45)],
    "chi-table": [("chi", 4, 7), ("chi", 2, 40), ("chi", 5, 7)],
    "verify-grid": [("verify", None, None)],
}
# tiny sizes that run every workload's op path in well under a second
SMOKE = {
    "expand-wide": [("expand", 2, 8), ("expand", 3, 6)],
    "expand-deep": [("expand", 2, 8)],
    "chi-table": [("chi", 2, 8), ("chi", 3, 6)],
    "verify-grid": [("verify", 2, 6)],
}
# passed checks expected from verify, keyed by its (--c, --n-max) restriction
VERIFY_CHECKS = {(None, None): 156, (2, 6): 30}

END_TO_END = {
    "wall_s": "s",
    "max_op_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "pass_frac": "ratio",
}
SETUP_PROBES = 10  # measured set-up probes per run, after one discarded warm-up
OP_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0  # a run stops starting ops after this, to exit within 180 s


def argv_for(op: tuple, seed: int) -> list[str]:
    cmd, c, n = op
    if cmd == "expand":
        return ["expand", "--c", str(c), "--n", str(n), "--method", "both", "--format", "json"]
    if cmd == "chi":
        return ["chi", "--c", str(c), "--n", str(n), "--method", "formula", "--format", "json"]
    argv = ["verify", "--format", "json", "--jobs", "1", "--seed", str(seed)]
    if c is not None:
        argv += ["--c", str(c), "--n-max", str(n)]
    return argv


# ---------------------------------------------------------------------------
# oracle: independent of the package


def a_value(c: int, n: int) -> int:
    a = [-1, 0, 1]
    while len(a) <= n:
        a.append(c * a[-1] - a[-2])
    return a[n]


def y_value(c: int, n: int) -> int:
    """x_n at (1, 1): y_{k+1} = (y_k^c + 1) / y_{k-1}, each division exact."""
    prev, cur = 1, 1
    for _ in range(3, n + 1):
        q, r = divmod(cur**c + 1, prev)
        if r:
            raise ArithmeticError(f"scalar shadow inexact at c={c}")
        prev, cur = cur, q
    return cur


def load_reference() -> dict[str, str]:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["stdout_sha256"]


def check_output(op: tuple, argv: list[str], stdout: str,
                 reference: dict) -> tuple[str | None, int]:
    """(reason the output is wrong or None, verified items)."""
    cmd, c, n = op
    if cmd == "verify":
        try:
            report = json.loads(stdout)
            passed = sum(1 for chk in report["checks"] if chk["passed"] is True)
            all_passed = report["all_passed"] is True
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparsable verify output: {exc}", 0
        want = VERIFY_CHECKS[(c, n)]
        if not all_passed or passed != want:
            return f"verify passed {passed}/{want} checks, all_passed={all_passed}", 0
        return None, passed

    digest = hashlib.sha256(stdout.encode()).hexdigest()
    key = " ".join(argv)
    if key not in reference:
        return f"no reference digest for {key!r}", 0
    if digest != reference[key]:
        return "stdout differs from the reference digest", 0
    an1, an2, y = a_value(c, n - 1), a_value(c, n - 2), y_value(c, n)
    try:
        if cmd == "expand":
            body, _, tail = stdout.partition("\n")
            if tail != "MATCH\n":
                return "missing MATCH", 0
            cells = {(int(t["d1"]), int(t["d2"])): int(t["coeff"]) for t in json.loads(body)}
            # the cells (0,0) and (a_{n-1}, a_{n-2}) in exponent coordinates
            corners = [(c * an2 - an1, -an2), (-an1, c * an1 - an2)]
        else:
            table = json.loads(stdout)
            if table["dim"] != [an1, an2]:
                return f"dim {table['dim']} != {[an1, an2]}", 0
            cells = {(r["e1"], r["e2"]): int(r["value"]) for r in table["chi"]}
            corners = [(0, 0), (an1, an2)]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable {cmd} output: {exc}", 0
    if sum(cells.values()) != y:
        return f"coefficient sum != y_{n} = {y}", 0
    if any(cells.get(k) != 1 for k in corners):
        return "a corner cell is not 1", 0
    return None, len(cells)


# ---------------------------------------------------------------------------
# workers


def run_worker(argv: list[str] | None, trace: bool, timeout: float) -> dict:
    """Start one worker; returns its result plus `setup_s`, or `failure`."""
    spec = json.dumps({"src": SRC, "argv": argv, "trace": trace})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), spec]
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"failure": f"timeout after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"failure": f"worker exit {proc.returncode}: {tail[0]}"}
    try:
        res = json.loads(proc.stdout)
    except ValueError as exc:
        return {"failure": f"unreadable worker result: {exc}"}
    res["setup_s"] = (res.pop("ready_ns") - t0) / 1e9
    return res


def run_op(op: tuple, seed: int, trace: bool, deadline: float, reference: dict,
           mangle=None) -> dict:
    """Run one op in a fresh worker and check its output; one per-op table row."""
    argv = argv_for(op, seed)
    row = {"command": op[0], "c": op[1], "n": op[2], "argv": " ".join(argv), "traced": trace,
           "ok": False, "reason": None, "items": 0, "op_s": None, "setup_s": None,
           "rss_mib": None}
    timeout = min(OP_TIMEOUT_S, deadline - time.monotonic())
    if timeout < 1:
        row["reason"] = "run time limit reached before the op started"
        return row
    res = run_worker(argv, trace, timeout)
    if "failure" in res:
        row["reason"] = res["failure"]
        return row
    row.update(op_s=res["op_ns"] / 1e9, setup_s=res["setup_s"], rss_mib=res["maxrss_kib"] / 1024)
    if trace:
        row["trace"] = {"spans": res["spans"], "counters": res["counters"]}
    stdout = res["stdout"] if mangle is None else mangle(res["stdout"])
    if res["error"] is not None:
        row["reason"] = res["error"]
    elif res["rc"] != 0:
        row["reason"] = f"exit code {res['rc']}"
    else:
        row["reason"], row["items"] = check_output(op, argv, stdout, reference)
        row["ok"] = row["reason"] is None
    return row


# ---------------------------------------------------------------------------
# runs


def measure(ops: list[tuple], seed: int, seconds: float, deadline: float,
            reference: dict, mangle=None) -> tuple[dict, list[dict]]:
    """Untraced run: end-to-end metrics and the per-op rows."""
    rng = random.Random(seed)
    setups = []
    for i in range(SETUP_PROBES + 1):
        res = run_worker(None, False, min(OP_TIMEOUT_S, deadline - time.monotonic()))
        if "failure" in res:
            raise RuntimeError(f"set-up probe failed: {res['failure']}")
        if i:
            setups.append(res["setup_s"])
    passes: list[list[dict]] = []
    start = time.monotonic()
    while True:
        order = ops[:]
        rng.shuffle(order)
        t0 = time.monotonic()
        passes.append([run_op(op, seed, False, deadline, reference, mangle) for op in order])
        took = time.monotonic() - t0
        if time.monotonic() - start + took > seconds or time.monotonic() + took > deadline:
            break
    rows = [r for p in passes for r in p]
    setups += [r["setup_s"] for r in rows if r["setup_s"] is not None]
    op_s, items = {}, {}
    for r in rows:
        if r["op_s"] is not None:
            op_s.setdefault(r["argv"], []).append(r["op_s"])
        if r["ok"]:
            items[r["argv"]] = r["items"]
    slowest = [max(v) for v in op_s.values()]
    wall = sum(slowest)
    failed = sum(not r["ok"] for r in rows)
    rss = [r["rss_mib"] for r in rows if r["rss_mib"] is not None]
    values = {
        "wall_s": wall,
        "max_op_s": max(slowest, default=0.0),
        "items_per_s": sum(items.values()) / wall if wall else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": max(rss, default=0.0),
        "pass_frac": (len(rows) - failed) / len(rows),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, rows


def load_layers() -> list[dict]:
    with open(os.path.join(HERE, "layers.json")) as fh:
        return json.load(fh)["per_layer"]


def measure_traced(ops: list[tuple], seed: int, deadline: float, reference: dict,
                   mangle=None) -> tuple[dict, list[dict], list]:
    """Traced run: each op untraced then traced; per-layer metrics and ranking."""
    import tracer

    order = ops[:]
    random.Random(seed).shuffle(order)
    rows = []
    for op in order:
        rows.append(run_op(op, seed, False, deadline, reference, mangle))
        rows.append(run_op(op, seed, True, deadline, reference, mangle))
    traced = [r for r in rows if r["traced"] and "trace" in r]
    values, ranking = tracer.summarize([r["trace"] for r in traced])
    times = [r["op_s"] for r in rows]
    complete = None not in times
    # untraced and traced rows alternate, one pair per op
    values["trace.overhead_frac"] = sum(times[1::2]) / sum(times[::2]) - 1 if complete else 0.0
    layers = load_layers()
    if set(values) != {m["name"] for m in layers}:
        raise RuntimeError("tracer metrics and layers.json disagree")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in layers}
    return metrics, rows, ranking


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 mangle=None) -> dict:
    """One run of one workload; returns the result line plus report fields."""
    ops = (SMOKE if smoke else WORKLOADS)[name]
    reference = load_reference()
    deadline = time.monotonic() + RUN_LIMIT_S
    loadavg = os.getloadavg()
    ranking = None
    if trace:
        metrics, rows, ranking = measure_traced(ops, seed, deadline, reference, mangle)
    else:
        metrics, rows = measure(ops, seed, seconds, deadline, reference, mangle)
    failed = sum(not r["ok"] for r in rows)
    return {
        "result": {"correct": failed == 0, "attempted": len(rows), "failed": failed,
                   "metrics": metrics},
        "env": environment(loadavg),
        "args": {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                 "smoke": smoke},
        "ops": rows,
        "self_time_ranking": ranking,
    }


# ---------------------------------------------------------------------------
# environment record and reports


def _git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rank2cluster")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            h.update(fname.encode() + b"\0")
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(loadavg: tuple) -> dict:
    from importlib.util import find_spec

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "gmpy2": find_spec("gmpy2") is not None,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_at_start": list(loadavg),
    }


def write_report(run: dict) -> str:
    """Write the run's report (and its spans, when traced); returns the path."""
    os.makedirs(REPORTS, exist_ok=True)
    a = run["args"]
    stem = f"{a['workload']}_seed{a['seed']}_trace{int(a['trace'])}"
    if a["smoke"]:
        stem += "_smoke"
    spans = {}
    for i, row in enumerate(run["ops"]):
        if "trace" in row:
            spans[f"{i}:{row['command']}/c{row['c']}/n{row['n']}"] = row.pop("trace")
    if spans:
        with open(os.path.join(REPORTS, f"SPANS_{stem}.json"), "w") as fh:
            json.dump(spans, fh)
    path = os.path.join(REPORTS, f"BENCH_{stem}.json")
    with open(path, "w") as fh:
        json.dump(run, fh, indent=1)
    return path


def print_summary(run: dict, out=sys.stderr) -> None:
    env, a = run["env"], run["args"]
    print(f"# {a['workload']} seed={a['seed']} trace={int(a['trace'])} "
          f"python={env['python']} nproc={env['nproc']} gmpy2={env['gmpy2']} "
          f"commit={env['commit']} load={env['loadavg_at_start'][0]:.2f}", file=out)
    print("# command  c   n  items      op_s  setup_s  rss_mib  traced  ok", file=out)
    for r in run["ops"]:
        op_s = f"{r['op_s']:9.3f}" if r["op_s"] is not None else "        -"
        st = f"{r['setup_s']:8.3f}" if r["setup_s"] is not None else "       -"
        rss = f"{r['rss_mib']:8.1f}" if r["rss_mib"] is not None else "       -"
        print(f"  {r['command']:7} {r['c']!s:>2} {r['n']!s:>3} {r['items']:6d} {op_s} {st} "
              f"{rss}  {int(r['traced']):6d}  {'ok' if r['ok'] else 'FAIL: ' + r['reason']}",
              file=out)
    for k, m in run["result"]["metrics"].items():
        print(f"  {k:42} {m['value']:14.6g} {m['unit']}", file=out)
    if run["self_time_ranking"]:
        total = sum(v for _, v in run["self_time_ranking"]) or 1.0
        print("# largest self times (traced ops)", file=out)
        for name, v in run["self_time_ranking"][:5]:
            print(f"  {name:42} {v:10.3f} s {100 * v / total:5.1f} %", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rank2cluster", "cli.py")):
        print(f"error: no rank2cluster package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print_summary(run)
        print(f"# report: {os.path.relpath(write_report(run), ROOT)}", file=sys.stderr)
        results[name] = run["result"]
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(f"{'metric':42} " + " ".join(f"{n:>14}" for n in names))
    for key, first in results[names[0]]["metrics"].items():
        vals = " ".join(f"{results[n]['metrics'][key]['value']:14.6g}" for n in names)
        print(f"{key + ' [' + first['unit'] + ']':42} {vals}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
