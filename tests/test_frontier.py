"""Frontier sizes, opt-in: `pytest -m slow` (deselected by default, about 25 s).

Each test runs `verify` checks beyond the default grid through the same
`run_checks` as the CLI, so the checks of one call share one context and it
is freed when the call returns.  At these sizes the recurrence raises
polynomials of thousands of terms to the c-th power through the Kronecker
multiply.  Its digit blocks made two digits narrower than the bound corrupt
the (3, 9) expansion, so the `expand` check fails even without the
multiply's own overflow check.  The (4, 8) `expand`, `coeffsum` and `chi`
checks take about 12 s on a shared 2-core host (Python 3.11.7), most of it
building x_8 by the recurrence; the exact divisions take about 60 % of that
and the powers about 40 %.  (2, 60) takes about 2 s, and its divisions
subtract packed divisor rows.  The `coeffsum` and `chi` checks run in the
same call and read the memoized expansion; `chi` meets every box cell of
the per-cell sum, through the context's binomial tables, in 0.2 s at
(5, 7) to 1.1 s at (4, 8).  The substituted form needs no recurrence, and
its three `v2` checks take about 7.5 s, (4, 8) about 6 s of that.
"""
import pytest

from rank2cluster import cli

FRONTIER = [(3, 9), (5, 7), (4, 8)]


def _run(kinds, c, n):
    checks = [
        {"kind": kind, "name": f"{kind}/c{c}/n{n}", "c": c, "n": n, "seed": 0}
        for kind in kinds
    ]
    for name, ok, detail, _ in cli.run_checks(checks):
        assert ok, f"{name}: {detail}"


@pytest.mark.slow
@pytest.mark.parametrize("c, n", [*FRONTIER, (2, 60)])
def test_recurrence_equals_formula_at_frontier(c, n):
    # (2, 60) divides by packed divisor rows, 15 steps past the deepest
    # benchmark op (2, 45); chi reads x_n from the expand check's memo and
    # compares it with every box cell, read through the binomial tables
    _run(("expand", "coeffsum", "chi"), c, n)


@pytest.mark.slow
@pytest.mark.parametrize("c, n", FRONTIER)
def test_substituted_form_equals_formula_at_frontier(c, n):
    # beyond the default grid, a support bound one cell too narrow in either
    # builder shows only here
    _run(("v2",), c, n)
