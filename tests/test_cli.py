import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rank2cluster import cli, laurent
from rank2cluster.cli import main
from rank2cluster.closedform import chi_formula
from rank2cluster.combinat import ChiTable, ClusterContext
from rank2cluster.identities import _vanishing_stages
from rank2cluster.laurent import (
    ONE,
    X1,
    InexactDivisionError,
    LaurentPoly2,
    _digits_to_int,
    _int_to_digits,
)


SRC = Path(__file__).resolve().parents[1] / "src"


def child_env():
    """This process's environment with src first on PYTHONPATH, so that a child
    interpreter imports the package under test without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_both_tsv(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--c", "2", "--n", "3", "--method", "both", "--format", "tsv"
    )
    assert code == 0
    assert out == "-1\t0\t1\n-1\t2\t1\nMATCH\n"


def test_expand_json_terms(capsys):
    code, out, _ = run_cli(capsys, "expand", "--c", "3", "--n", "3", "--format", "json")
    assert code == 0
    terms = json.loads(out.splitlines()[0])
    assert terms == [
        {"d1": -1, "d2": 0, "coeff": "1"},
        {"d1": -1, "d2": 3, "coeff": "1"},
    ]
    assert out.splitlines()[1] == "MATCH"


def test_expand_recurrence_coefficient_sum(capsys):
    code, out, _ = run_cli(
        capsys,
        "expand", "--c", "2", "--n", "6", "--method", "recurrence", "--format", "json",
    )
    assert code == 0
    assert sum(int(r["coeff"]) for r in json.loads(out)) == 34


def test_expand_usage_errors(capsys):
    assert run_cli(capsys, "expand", "--c", "1", "--n", "4")[0] == 2
    assert run_cli(capsys, "expand", "--c", "2", "--n", "2")[0] == 2
    # recurrence-only mode reaches down to n = 1
    assert run_cli(capsys, "expand", "--c", "2", "--n", "1", "--method", "recurrence")[0] == 0


def test_chi_single_value(capsys):
    code, out, _ = run_cli(capsys, "chi", "--c", "2", "--n", "4", "--e1", "1", "--e2", "1")
    assert code == 0
    assert out == "2\nMATCH\n"


def test_chi_single_value_vanishing_cell(capsys):
    code, out, _ = run_cli(capsys, "chi", "--c", "2", "--n", "4", "--e1", "1", "--e2", "0")
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_chi_table_sums_to_scalar(capsys):
    code, out, _ = run_cli(capsys, "chi", "--c", "2", "--n", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out.splitlines()[0])
    assert obj["dim"] == [2, 1]
    assert len(obj["chi"]) == 4
    assert sum(int(r["value"]) for r in obj["chi"]) == 5


def test_chi_usage_errors(capsys):
    assert run_cli(capsys, "chi", "--c", "2", "--n", "4", "--e1", "1")[0] == 2
    assert run_cli(capsys, "chi", "--c", "2", "--n", "2")[0] == 2


CHI_ARGS = [
    ("--format", "pretty"),
    ("--format", "tsv"),
    ("--format", "json"),
    ("--e1", "2", "--e2", "1", "--format", "json"),
    ("--e1", "2", "--e2", "1", "--format", "tsv"),
]


@pytest.mark.parametrize("extra", CHI_ARGS, ids=" ".join)
def test_chi_methods_print_the_same(capsys, extra):
    outs = {}
    for method in ("formula", "recurrence", "both"):
        code, out, _ = run_cli(capsys, "chi", "--c", "3", "--n", "5", "--method", method, *extra)
        assert code == 0
        outs[method] = out
    assert outs["both"] == outs["formula"] + "MATCH\n"
    assert outs["recurrence"] == outs["formula"]


def test_chi_table_formats(capsys):
    _, pretty, _ = run_cli(capsys, "chi", "--c", "2", "--n", "4", "--method", "formula")
    _, tsv, _ = run_cli(
        capsys, "chi", "--c", "2", "--n", "4", "--method", "formula", "--format", "tsv"
    )
    assert pretty == "# c=2 n=4 dim=(2,1)\n" + tsv
    assert tsv == "0\t0\t1\n0\t1\t1\n1\t1\t2\n2\t1\t1\n"


@pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
def test_expand_methods_print_the_same(capsys, fmt):
    outs = {}
    for method in ("formula", "v2", "recurrence", "both"):
        code, out, _ = run_cli(
            capsys, "expand", "--c", "3", "--n", "6", "--method", method, "--format", fmt
        )
        assert code == 0
        outs[method] = out
    assert outs["both"] == outs["formula"] + "MATCH\n"
    assert outs["v2"] == outs["recurrence"] == outs["formula"]


@pytest.mark.parametrize(
    "argv",
    [
        ("chi", "--c", "1", "--n", "4"),
        ("verify", "--c", "0"),
        ("verify", "--jobs", "0"),
        ("verify", "--c", "1", "--suite", "grid"),  # no checks selected
        ("verify", "--c", "5"),  # only the c-independent vandermonde check
        ("verify", "--c", "1", "--n-max", "3"),
    ],
    ids=" ".join,
)
def test_more_usage_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_subset_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--c", "2", "--n-max", "5", "--suite", "grid"
    )
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_json_is_byte_stable(capsys):
    args = (
        "verify", "--c", "2", "--n-max", "5", "--suite", "grid", "--format", "json",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["all_passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)


def test_verify_tsv(capsys):
    args = ("verify", "--c", "2", "--n-max", "4", "--suite", "grid")
    _, pretty, _ = run_cli(capsys, *args)
    code, tsv, _ = run_cli(capsys, *args, "--format", "tsv")
    assert code == 0
    rows = [line.split("\t") for line in tsv.splitlines()]
    assert all(len(row) == 3 and row[1] == "PASS" for row in rows)
    assert [f"PASS {name}: {detail}" for name, _, detail in rows] == pretty.splitlines()[:-1]


def test_verify_vandermonde_suite(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "vandermonde", "--trials", "120", "--seed", "0",
    )
    assert code == 0
    assert "PASS vandermonde" in out


def test_verify_c_keeps_the_c_independent_suite(capsys):
    # --c restricts the checks that have a c; vandermonde has none to restrict
    code, out, _ = run_cli(
        capsys, "verify", "--c", "5", "--suite", "vandermonde", "--trials", "20"
    )
    assert code == 0
    assert out.splitlines() == [
        "PASS vandermonde: 20 weighted convolution instances agree",
        "1/1 checks passed",
    ]


def test_verify_accepts_the_benchmark_configurations(capsys, monkeypatch):
    # the counts perfbench/run.py expects (VERIFY_CHECKS) pass the --c guard;
    # the checks themselves are stubbed, so nothing heavy runs
    monkeypatch.setattr(cli, "run_check", lambda desc, ctx: (desc["name"], True, "stub", 0.0))
    for argv, count in (((), 156), (("--c", "2", "--n-max", "6"), 30)):
        code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
        assert code == 0
        assert len(json.loads(out)["checks"]) == count


def test_failed_internal_invariant_exits_1(capsys, monkeypatch):
    def inexact(ctx, n):
        raise InexactDivisionError("inexact quotient", ONE)

    monkeypatch.setattr(cli, "cluster_var_recurrence", inexact)
    code, out, err = run_cli(capsys, "expand", "--c", "2", "--n", "4")
    assert code == 1
    assert out == ""
    assert "inexact quotient" in err


def test_failed_multiply_check_names_its_step_and_exits_1(capsys, monkeypatch):
    def overflow(p, q):
        raise ArithmeticError("Kronecker product overflowed its 3-digit blocks")

    monkeypatch.setattr(laurent, "_mul_kronecker", overflow)
    code, out, err = run_cli(capsys, "expand", "--c", "3", "--n", "5", "--method", "recurrence")
    assert code == 1
    assert out == ""
    assert "recurrence step k=3 for c=3" in err
    assert "overflowed its 3-digit blocks" in err


def test_any_other_exception_exits_1(capsys, monkeypatch):
    # the CLI validates its own arguments, so an unexpected error is internal
    def broken(ctx, n):
        raise KeyError("missing table row")

    monkeypatch.setattr(cli, "cluster_var_formula", broken)
    code, out, err = run_cli(capsys, "expand", "--c", "2", "--n", "4", "--method", "formula")
    assert code == 1
    assert out == ""
    assert "missing table row" in err


def test_broken_pipe_without_a_descriptor_exits_141(capsys, monkeypatch):
    # a captured stdout has no file descriptor to point at devnull
    def closed_reader(ctx, n):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "cluster_var_formula", closed_reader)
    code, _, err = run_cli(capsys, "expand", "--c", "2", "--n", "4", "--method", "formula")
    assert code == 141
    assert err == ""


def test_verify_usage_error_exit_2(capsys):
    assert run_cli(capsys, "verify", "--c", "2", "--n-max", "2")[0] == 2
    assert run_cli(capsys, "verify", "--trials", "0")[0] == 2


def test_verify_timings_go_to_stderr(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--c", "2", "--n-max", "4", "--suite", "grid"
    )
    assert code == 0
    assert "#" not in out
    assert any(line.startswith("#") and line.endswith("s") for line in err.splitlines())


def test_expand_output_byte_stable(capsys):
    args = ("expand", "--c", "3", "--n", "6", "--method", "formula", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# the benchmark's pinned stdout digests, recorded on the seed commit
REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
)["stdout_sha256"]


@pytest.mark.parametrize(
    "argv",
    [
        f"chi --c {c} --n {n} --method formula --format json"
        for c, n in ((2, 8), (3, 6), (4, 7), (2, 40), (5, 7))
    ]
    + [
        f"expand --c {c} --n {n} --method both --format json"
        for c, n in ((2, 8), (3, 6), (4, 7), (8, 6), (7, 6), (2, 40), (2, 45))
    ],
)
def test_stdout_matches_benchmark_reference_digest(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE[argv]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rank2cluster", "expand", "--c", "2", "--n", "4",
         "--method", "formula", "--format", "tsv"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert rows[0] == ["-2", "-1", "1"]


def test_package_main_module():
    proc = subprocess.run(
        [sys.executable, "-m", "rank2cluster", "expand", "--c", "2", "--n", "3",
         "--format", "tsv"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "-1\t0\t1\n-1\t2\t1\nMATCH\n"


@pytest.mark.parametrize(
    "argv, read_first",
    [
        # about 6 000 lines, more than a pipe buffer holds: the writer meets the
        # closed pipe while `| head -1` has read one line
        (("--c", "4", "--n", "7"), True),
        # a few lines that wait in stdout's buffer until the reader is gone
        (("--c", "2", "--n", "4"), False),
    ],
    ids=["after-one-line", "before-any-line"],
)
def test_stdout_closed_by_its_reader_exits_141_silently(argv, read_first):
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    # leaving the block closes both pipes and reaps the child, also when an
    # assertion fails, so no pipe or child outlives this test
    with subprocess.Popen(
        [sys.executable, "-m", "rank2cluster", "expand", *argv, "--format", "tsv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        if read_first:
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_importing_the_cli_starts_no_process_pool_machinery():
    # verify imports its pool only when it starts one
    code = (
        "import sys; before = set(sys.modules); import rank2cluster.cli; "
        "import json; print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "rank2cluster.cli" in added
    assert "concurrent.futures.process" not in added
    assert not [m for m in added if m.split(".")[0] == "multiprocessing"]


def test_verify_under_optimize_flag():
    # the checks raise instead of asserting, so python -O still runs each one
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "rank2cluster", "verify", "--c", "2", "--n-max", "6",
         "--format", "json"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["all_passed"] is True
    assert sum(check["passed"] for check in report["checks"]) == 30


def test_verify_parallel_jobs_match_serial(capsys):
    # three values of c, so three pool tasks and two workers
    serial = run_cli(capsys, "verify", "--n-max", "4", "--suite", "grid", "--format", "json")
    parallel = run_cli(
        capsys, "verify", "--n-max", "4", "--suite", "grid", "--format", "json", "--jobs", "2",
    )
    assert serial[0] == parallel[0] == 0
    assert serial[1] == parallel[1]


def test_verify_builds_one_context_per_c_and_frees_them(capsys, monkeypatch):
    # the run owns its contexts: each c's memos are built once and dropped with it
    made = []

    class Recorded(ClusterContext):  # no __slots__, so it can be weakly referenced
        def __init__(self, c):
            super().__init__(c)
            made.append((c, weakref.ref(self)))

    monkeypatch.setattr(cli, "ClusterContext", Recorded)
    code, _, _ = run_cli(capsys, "verify", "--n-max", "4", "--suite", "grid")
    assert code == 0
    assert sorted(c for c, _ in made) == [2, 3, 4]
    gc.collect()
    assert [c for c, ref in made if ref() is not None] == []


def _checks(*argv):
    return cli.build_checks(cli.build_parser().parse_args(["verify", *argv]))


def test_registry_size_and_unique_names():
    # the counts perfbench/run.py expects from verify (VERIFY_CHECKS)
    default = _checks()
    assert len(default) == 156
    assert len(_checks("--c", "2", "--n-max", "6")) == 30
    names = [desc["name"] for desc in default]
    assert len(set(names)) == len(names)


def test_vanishing_detail_says_where_the_check_is_definitional():
    # with no staged sum below the cell value, the check restates its hypothesis
    definitional = []
    checks = _checks("--suite", "vanishing")
    for desc, (name, ok, detail, _) in zip(checks, cli.run_checks(checks)):
        assert ok
        if _vanishing_stages(ClusterContext(desc["c"]), desc["n"]):
            assert detail == "100 negative-pairing cells vanish"
        else:
            assert detail == "definitional here: no staged sum below the cell value"
            definitional.append(name)
    assert definitional == [
        "vanishing/c1/n4", "vanishing/c1/n6", "vanishing/c1/n7",
        "vanishing/c2/n4", "vanishing/c3/n4",
    ]


def _bump_corner(table):
    return replace(table, entries={**table.entries, (0, 0): table.chi(0, 0) + 1})


# (check kind, library name cli imports, corruption of the real function f)
CORRUPTIONS = [
    ("expand", "cluster_var_formula", lambda f: lambda ctx, n: X1),
    ("v2", "cluster_var_formula_v2", lambda f: lambda ctx, n: X1),
    ("chi", "chi_table_from_formula", lambda f: lambda ctx, n: _bump_corner(f(ctx, n))),
    ("chi", "chi_from_expansion", lambda f: lambda ctx, n: replace(f(ctx, n), dim_vector=(0, 0))),
    ("chi", "chi_formula", lambda f: lambda *cell: 1),
    ("coeffsum", "scalar_cluster_value", lambda f: lambda c, n: f(c, n) + 1),
    ("coeffsum", "cluster_var_recurrence", lambda f: lambda ctx, n: f(ctx, n) + 1),
    ("denominator", "cluster_var_recurrence", lambda f: lambda ctx, n: f(ctx, n) * X1),
    ("denominator", "cluster_var_recurrence", lambda f: lambda ctx, n: f(ctx, n) * 2),
    ("positivity", "cluster_var_recurrence", lambda f: lambda ctx, n: -f(ctx, n)),
    ("nonneg-region", "chi_formula_summands", lambda f: lambda *cell: iter([-1])),
    ("vanishing", "vanishing_check", lambda f: lambda *cell: False),
    ("invariance", "staged_chi_sum", lambda f: lambda *cell: f(*cell) + 1),
    ("vandermonde", "vandermonde_sides", lambda f: lambda *sides: (0, 1)),
]


def test_corruptions_cover_every_check_kind():
    kinds = set(cli._CHECK_KINDS) | {"vandermonde"}
    assert {kind for kind, _, _ in CORRUPTIONS} == kinds


@pytest.mark.parametrize(
    "kind, name, corrupt", CORRUPTIONS, ids=[f"{k}-{name}" for k, name, _ in CORRUPTIONS]
)
def test_each_check_kind_can_fail(monkeypatch, kind, name, corrupt):
    # a check that always passed would hide a broken library from verify and
    # from the acceptance criteria that run it
    desc = {"kind": kind, "name": kind, "c": 3, "n": 5, "trials": 20, "seed": 0}
    assert cli.run_checks([desc])[0][1] is True
    monkeypatch.setattr(cli, name, corrupt(getattr(cli, name)))
    assert cli.run_checks([desc])[0][1] is False


def test_raising_check_fails_alone(capsys, monkeypatch):
    # an exception in one check is reported as that check's failure, with its
    # type, and every other check still runs and prints
    def broken(ctx, n, seed):
        raise KeyError("missing row")

    monkeypatch.setattr(cli, "_CHECK_KINDS", {**cli._CHECK_KINDS, "positivity": broken})
    desc = {"kind": "positivity", "name": "positivity/c3/n05", "c": 3, "n": 5, "seed": 0}
    result = cli.run_checks([desc])[0]
    assert result[:3] == ("positivity/c3/n05", False, "KeyError: 'missing row'")

    code, out, err = run_cli(capsys, "verify", "--c", "2", "--n-max", "5", "--format", "json")
    assert code == 1
    assert "# positivity/c2/n03 raised:" in err and "KeyError: 'missing row'" in err
    checks = json.loads(out)["checks"]
    failed = {c["name"]: c["detail"] for c in checks if not c["passed"]}
    assert failed == {
        f"positivity/c2/n{n:02d}": "KeyError: 'missing row'" for n in (3, 4, 5)
    }
    assert len(checks) == len(_checks("--c", "2", "--n-max", "5"))


BIG_CELL = ("--c", "40", "--n", "6", "--e1", "20000", "--e2", "600", "--method", "formula")


@pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
def test_chi_value_wider_than_int_str_limit(capsys, fmt):
    # about 5100 digits, beyond the interpreter's default 4300-digit limit
    want = chi_formula(ClusterContext(40), 6, 20000, 600)
    assert len(_int_to_digits(want)) > 4300
    code, out, _ = run_cli(capsys, "chi", *BIG_CELL, "--format", fmt)
    assert code == 0
    if fmt == "json":
        digits = json.loads(out)["chi"]
    elif fmt == "tsv":
        e1, e2, digits = out.rstrip("\n").split("\t")
        assert (e1, e2) == ("20000", "600")
    else:
        digits = out.rstrip("\n")
    assert _digits_to_int(digits) == want


def _json_terms(records):
    return {(r["d1"], r["d2"]): _digits_to_int(r["coeff"]) for r in records}


def test_json_round_trip_and_order():
    p = LaurentPoly2({(1, -2): 3, (-1, 0): 12345678901234567890, (1, 2): -4})
    records = json.loads(cli.render_poly(p, "json"))
    assert records == sorted(records, key=lambda r: (r["d1"], r["d2"]))
    assert all(isinstance(r["coeff"], str) for r in records)
    assert LaurentPoly2(_json_terms(records)) == p


def test_renderers_round_trip_values_wider_than_int_str_limit():
    big = 10**5000
    digits = "1" + "0" * 5000
    poly = LaurentPoly2({(0, 0): big, (1, -1): -big})
    records = json.loads(cli.render_poly(poly, "json"))
    assert [r["coeff"] for r in records] == [digits, "-" + digits]
    assert _json_terms(records) == poly._terms
    rows = [line.split("\t") for line in cli.render_poly(poly, "tsv").splitlines()]
    assert {(int(d1), int(d2)): _digits_to_int(v) for d1, d2, v in rows} == poly._terms
    table = ChiTable(2, 4, (2, 1), {(0, 0): big, (1, 1): -big})
    obj = json.loads(cli.render_chi_table(table, "json"))
    assert [_digits_to_int(r["value"]) for r in obj["chi"]] == [big, -big]
    tsv = cli.render_chi_table(table, "tsv")
    assert [_digits_to_int(line.split("\t")[2]) for line in tsv.splitlines()] == [big, -big]
    assert cli.render_chi_table(table, "pretty") == "# c=2 n=4 dim=(2,1)\n" + tsv


# cell values: small ones, zero and negatives, and values wider than one
# 640-digit chunk of _int_to_digits and than the interpreter's 4300-digit limit
cell_values = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(
        lambda sign, width, low: sign * (10 ** (width - 1) + low),
        st.sampled_from((-1, 1)),
        st.sampled_from((641, 1281, 4301, 5000)),
        st.integers(0, 10**6),
    ),
)
cell_maps = st.dictionaries(
    st.tuples(st.integers(-40, 40), st.integers(-40, 40)), cell_values, max_size=8
)


@given(cell_maps)
@example({})
@settings(max_examples=60)
def test_records_equal_the_json_module_and_the_tsv_join(cells):
    items = sorted(cells.items())
    for keys in (("d1", "d2", "coeff"), ("e1", "e2", "value")):
        ki, kj, kv = keys
        want = json.dumps(
            [{ki: i, kj: j, kv: _int_to_digits(v)} for (i, j), v in items]
        )
        assert cli._records(items, keys, "json") == want
        rows = "\n".join(f"{i}\t{j}\t{_int_to_digits(v)}" for (i, j), v in items)
        assert cli._records(items, keys, "tsv") == rows
    table = ChiTable(3, 5, (8, 3), cells)
    assert cli.render_chi_table(table, "json") == json.dumps({
        "c": 3,
        "n": 5,
        "dim": [8, 3],
        "chi": [{"e1": i, "e2": j, "value": _int_to_digits(v)} for (i, j), v in items],
    })


def test_verify_jobs_bounded_by_checks_and_cores(capsys, monkeypatch):
    # the pool is faked, so no worker process starts whatever --jobs says; each
    # value of c is one task
    argv = ("verify", "--n-max", "4", "--suite", "grid", "--format", "json")
    serial = run_cli(capsys, *argv)
    n_groups = len({desc["c"] for desc in _checks(*argv[1:])})
    recorded = []

    class SerialPool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    for cores in (3, 64):
        monkeypatch.setattr(cli.os, "cpu_count", lambda cores=cores: cores)
        recorded.clear()
        parallel = run_cli(capsys, *argv, "--jobs", "100000")
        assert parallel[:2] == serial[:2]
        assert len(recorded) == 1 and 1 < recorded[0] <= min(cores, n_groups)
