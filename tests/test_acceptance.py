"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  All comparisons are exact; the only tolerances are the stated
wall-clock budgets.
"""
import math
import time

from rank2cluster.cli import build_checks, build_parser, run_checks
from rank2cluster.closedform import chi_formula
from rank2cluster.combinat import ClusterContext, mod_binom
from rank2cluster.recurrence import scalar_cluster_value

ACCEPTANCE_GRID = ((2, 12), (3, 8), (4, 7))


def _grid():
    for c, top in ACCEPTANCE_GRID:
        for n in range(3, top + 1):
            yield c, n


def _run_registry(kind, points=None, min_c=0):
    """Run every default `verify` check of one kind.  Its (c, n) points must
    be `points` exactly, by default the grid points with c >= min_c; the
    vandermonde check has neither, so its one point is (None, None)."""
    checks = [
        desc for desc in build_checks(build_parser().parse_args(["verify"]))
        if desc["kind"] == kind
    ]
    if points is None:
        points = {(c, n) for c, n in _grid() if c >= min_c}
    assert {(d.get("c"), d.get("n")) for d in checks} == points, kind
    for name, ok, detail, _ in run_checks(checks):
        assert ok, f"{name}: {detail}"


def _report(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


def test_criterion_01_oracle_equivalence():
    def body():
        t0 = time.perf_counter()
        _run_registry("expand")
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"grid took {elapsed:.1f}s, budget 60s"

    _report(1, "closed form equals recurrence, term by term, on the full grid", body)


def test_criterion_02_substituted_form_equivalence():
    _report(
        2, "substituted parametrization equals the closed form on the grid",
        lambda: _run_registry("v2"),
    )


def test_criterion_03_chi_agreement():
    def body():
        assert chi_formula(ClusterContext(2), 4, 1, 1) == 2
        _run_registry("chi")

    _report(3, "cell sums match the expansion table on every dimension box", body)


def test_criterion_04_coefficient_sums():
    def body():
        assert scalar_cluster_value(2, 6) == 34
        _run_registry("coeffsum")

    _report(4, "coefficient sums match the scalar recurrence", body)


def test_criterion_05_vanishing():
    _report(
        5, "100 random negative-pairing cells vanish for each (c, n)",
        lambda: _run_registry(
            "vanishing", points={(c, n) for c in (1, 2, 3) for n in range(4, 8)}
        ),
    )


def test_criterion_06_vandermonde():
    def body():
        t0 = time.perf_counter()
        _run_registry("vandermonde", points={(None, None)})
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"

    _report(6, "500 weighted convolution instances agree exactly", body)


def test_criterion_07_stage_invariance():
    _report(
        7, "all stages agree with the cell value over every dimension box",
        lambda: _run_registry(
            "invariance", points={(c, n) for c in (2, 3) for n in (5, 6, 7)}
        ),
    )


def test_criterion_08_nonnegativity():
    def body():
        _run_registry("nonneg-region", min_c=3)
        _run_registry("positivity")

    _report(8, "region summands nonnegative; all observed coefficients nonnegative", body)


def test_criterion_09_denominator_vectors():
    _report(
        9, "minimal exponents and unit pure-denominator coefficient on the grid",
        lambda: _run_registry("denominator"),
    )


def test_criterion_10_combinatorics_unit_suite():
    def body():
        t0 = time.perf_counter()
        assert mod_binom(2, 5) == 0
        assert mod_binom(3, 3) == 1
        assert mod_binom(-2, -3) == -2
        for a in range(31):
            for b in range(a + 1):
                want = math.factorial(a) // (
                    math.factorial(a - b) * math.factorial(b)
                )
                assert mod_binom(a, b) == want
        for c in (2, 3, 4, 5):
            ctx = ClusterContext(c)
            for n in range(3, 51):
                assert ctx.a(n - 1) * ctx.a(n - 3) - ctx.a(n - 2) ** 2 == -1
        for c in (3, 4, 5):
            ctx = ClusterContext(c)
            for n in range(2, 21):
                want = sum(
                    (-1) ** i * math.comb(n - 2 - i, i) * c ** (n - 2 - 2 * i)
                    for i in range((n - 2) // 2 + 1)
                )
                assert ctx.a(n) == want
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"

    _report(10, "binomial contracts, sequence identity, alternating closed form", body)
