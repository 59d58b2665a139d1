"""Frontier sizes, opt-in: `pytest -m slow` (deselected by default, about 40 s).

Each test runs `verify` checks beyond the default grid, through the same
`run_check` as the CLI.  At these sizes the recurrence raises polynomials
of thousands of terms to the c-th power through the Kronecker multiply.
Its digit blocks made two digits narrower than the bound corrupt the
(3, 9) expansion, so the `expand` check fails even without the multiply's
own overflow check.  The (4, 8) `expand` check
takes about 20 s of the total, most of it in the exact division of the
recurrence's last step; the `coeffsum` check after it reads the memoized
expansion.  The substituted form needs no recurrence, and its three `v2`
checks take about 9 s, (4, 8) about 7 s of that.
"""
import pytest

from rank2cluster import cli

FRONTIER = [(3, 9), (5, 7), (4, 8)]


@pytest.fixture(autouse=True)
def _drop_contexts():
    # run_check keeps one context per c, with every table it memoized, for the
    # life of the process; drop them so one frontier point's tables live at a time
    yield
    cli._context.cache_clear()


def _run(kind, c, n):
    name, ok, detail, _ = cli.run_check(
        {"kind": kind, "name": f"{kind}/c{c}/n{n}", "c": c, "n": n, "seed": 0}
    )
    assert ok, f"{name}: {detail}"


@pytest.mark.slow
@pytest.mark.parametrize("c, n", FRONTIER)
def test_recurrence_equals_formula_at_frontier(c, n):
    _run("expand", c, n)
    _run("coeffsum", c, n)


@pytest.mark.slow
@pytest.mark.parametrize("c, n", FRONTIER)
def test_substituted_form_equals_formula_at_frontier(c, n):
    # beyond the default grid, a support bound one cell too narrow in either
    # builder shows only here
    _run("v2", c, n)
