"""Run one rank2cluster CLI operation cold, in this fresh interpreter.

Usage: python3 worker.py '<spec json>'

The spec names the package source directory (`src`), the CLI argv (`argv`,
or null for a set-up probe that only imports) and whether to trace.  The
interpreter is fresh because `recurrence._xvars` is a module-global memo: in
a reused worker a repeated op would turn into memo hits.

The worker stamps `time.monotonic_ns()` once `rank2cluster.cli` is imported;
the parent stamped the same clock before starting it, so the difference is
the set-up time.  The op is timed from the call into `cli.main` until it
returns, with stdout and stderr captured in memory.  One JSON object goes to
the real stdout.
"""
import json
import os
import sys
import time


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from rank2cluster import cli

    ready_ns = time.monotonic_ns()
    src = os.path.realpath(spec["src"]) + os.sep
    if not os.path.realpath(cli.__file__).startswith(src):
        raise ImportError(f"rank2cluster.cli imported from {cli.__file__}, not {src}")
    result = {"ready_ns": ready_ns}
    if spec["argv"] is not None:
        result.update(run_op(cli, spec["argv"], spec["trace"]))
    json.dump(result, sys.stdout)


def run_op(cli, argv: list[str], trace: bool) -> dict:
    import io
    import resource
    from contextlib import redirect_stderr, redirect_stdout

    entry = cli.main
    if trace:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
        entry = rec.wrap("cli.main", entry)
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter_ns()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = entry(argv)
    except SystemExit as exc:
        error = f"SystemExit({exc.code!r})"
    except Exception as exc:  # reported as a failed op, never re-raised
        error = f"{type(exc).__name__}: {exc}"
    op_ns = time.perf_counter_ns() - t0
    result = {
        "op_ns": op_ns,
        "rc": rc,
        "error": error,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": out.getvalue(),
    }
    if trace:
        result["spans"] = rec.spans
        result["counters"] = rec.counters
    return result


if __name__ == "__main__":
    main()
