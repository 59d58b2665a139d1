"""Frontier sizes, opt-in: `pytest -m slow` (deselected by default, about 20 s).

At these sizes the recurrence raises polynomials of thousands of terms to
the c-th power through the Kronecker multiply.  Its digit blocks made two
digits narrower than the bound corrupt the (3, 9) expansion, so the
equality with the closed form fails even without the multiply's own
overflow check.
"""
import pytest

from rank2cluster.closedform import cluster_var_formula
from rank2cluster.combinat import ClusterContext
from rank2cluster.recurrence import cluster_var_recurrence, scalar_cluster_value


@pytest.mark.slow
@pytest.mark.parametrize("c, n", [(3, 9), (5, 7)])
def test_recurrence_equals_formula_at_frontier(c, n):
    ctx = ClusterContext(c)
    rec = cluster_var_recurrence(ctx, n)
    assert rec == cluster_var_formula(ctx, n)
    assert sum(v for _, v in rec.items()) == scalar_cluster_value(c, n)
