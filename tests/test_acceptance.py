"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  All comparisons are exact; the only tolerances are the stated
wall-clock budgets.
"""
import math
import random
import time
from fractions import Fraction

from rank2cluster.cli import build_checks, build_parser, run_check
from rank2cluster.closedform import chi_formula
from rank2cluster.combinat import ClusterContext, mod_binom
from rank2cluster.identities import (
    RationalPoly,
    vandermonde_sides,
    vanishing_check,
)
from rank2cluster.recurrence import cluster_var_recurrence, scalar_cluster_value

ACCEPTANCE_GRID = ((2, 12), (3, 8), (4, 7))


def _grid():
    for c, top in ACCEPTANCE_GRID:
        for n in range(3, top + 1):
            yield c, n


def _run_registry(kind, min_c=0):
    """Run every default `verify` check of one kind, which must cover the grid
    points with c >= min_c exactly."""
    checks = [
        desc for desc in build_checks(build_parser().parse_args(["verify"]))
        if desc["kind"] == kind
    ]
    assert {(d["c"], d["n"]) for d in checks} == {
        (c, n) for c, n in _grid() if c >= min_c
    }, kind
    for desc in checks:
        name, ok, detail, _ = run_check(desc)
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
        for c, n in _grid():
            ctx = ClusterContext(c)
            got = cluster_var_recurrence(ctx, n).eval_exact(1, 1)
            assert got == scalar_cluster_value(c, n), (c, n)

    _report(4, "coefficient sums match the scalar recurrence", body)


def test_criterion_05_vanishing():
    def body():
        for c in (1, 2, 3):
            ctx = ClusterContext(c)
            for n in range(4, 8):
                an1, an2 = ctx.a(n - 1), ctx.a(n - 2)
                span = max(abs(an1), abs(an2), 4)
                rng = random.Random(f"0:acceptance-vanishing:{c}:{n}")
                done = 0
                while done < 100:
                    e1 = rng.randint(-2 * span, 2 * span)
                    e2 = rng.randint(-2 * span, 2 * span)
                    if e2 * an1 - e1 * an2 >= 0:
                        continue
                    assert vanishing_check(ctx, n, e1, e2), (c, n, e1, e2)
                    if c >= 2:
                        assert chi_formula(ctx, n, e1, e2) == 0, (c, n, e1, e2)
                    done += 1

    _report(5, "100 random negative-pairing cells vanish for each (c, n)", body)


def test_criterion_06_vandermonde():
    def body():
        t0 = time.perf_counter()
        rng = random.Random("0:acceptance-vandermonde")
        done = 0
        while done < 500:
            a = rng.randint(-12, 12)
            b = rng.randint(-12, 12)
            if a + b < 0:
                continue
            m = rng.randint(-15, 15)
            q = rng.randint(0, min(4, a + b))
            coeffs = [
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                for _ in range(q + 1)
            ]
            lhs, rhs = vandermonde_sides(a, b, m, RationalPoly.from_coeffs(coeffs))
            assert lhs == rhs, (a, b, m, coeffs)
            done += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"

    _report(6, "500 weighted convolution instances agree exactly", body)


def test_criterion_07_stage_invariance():
    def body():
        for c in (2, 3):
            for n in (5, 6, 7):
                name, ok, detail, _ = run_check(
                    {
                        "kind": "invariance",
                        "name": f"invariance/c{c}/n{n}",
                        "c": c,
                        "n": n,
                        "seed": 0,
                    }
                )
                assert ok, f"{name}: {detail}"

    _report(7, "all stages agree with the cell value over every dimension box", body)


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
