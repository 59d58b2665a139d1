"""Frontier sizes, opt-in: `pytest -m slow` (deselected by default, about 40 s).

At these sizes the recurrence raises polynomials of thousands of terms to
the c-th power through the Kronecker multiply.  Its digit blocks made two
digits narrower than the bound corrupt the (3, 9) expansion, so the
equality with the closed form fails even without the multiply's own
overflow check.  The (4, 8) recurrence takes about 24 s of the total, most
of it in the exact division of its last step.  The substituted form needs
no recurrence, and its three comparisons with the closed form take about
8 s, (4, 8) about 6 s of that.
"""
import pytest

from rank2cluster.closedform import cluster_var_formula, cluster_var_formula_v2
from rank2cluster.combinat import ClusterContext
from rank2cluster.recurrence import cluster_var_recurrence, scalar_cluster_value


@pytest.mark.slow
@pytest.mark.parametrize("c, n", [(3, 9), (5, 7), (4, 8)])
def test_recurrence_equals_formula_at_frontier(c, n):
    ctx = ClusterContext(c)
    rec = cluster_var_recurrence(ctx, n)
    assert rec == cluster_var_formula(ctx, n)
    assert sum(v for _, v in rec.items()) == scalar_cluster_value(c, n)


@pytest.mark.slow
@pytest.mark.parametrize("c, n", [(3, 9), (5, 7), (4, 8)])
def test_substituted_form_equals_formula_at_frontier(c, n):
    # beyond the default grid, a support bound one cell too narrow in either
    # builder shows only here
    ctx = ClusterContext(c)
    assert cluster_var_formula_v2(ctx, n) == cluster_var_formula(ctx, n)
