"""Third oracle: the recurrence in sympy, which shares no code with the package.

Each x_k = (x_{k-1}^c + 1) / x_{k-2} is reduced by sympy.cancel to a
polynomial over a monomial, then read off term by term as a Laurent
polynomial and compared with both routes.  The sizes stop where sympy's
rational arithmetic stays near a second in all; (3, 7) already takes tens of
seconds.
"""
import pytest

from rank2cluster.closedform import cluster_var_formula
from rank2cluster.combinat import ClusterContext
from rank2cluster.laurent import LaurentPoly2
from rank2cluster.recurrence import cluster_var_recurrence

sympy = pytest.importorskip("sympy")

X1, X2 = sympy.symbols("x1 x2")


def sympy_cluster_vars(c, n_top):
    """x_3 .. x_{n_top} as LaurentPoly2, computed only with sympy."""
    xs = [None, X1, X2]
    out = {}
    for k in range(3, n_top + 1):
        xs.append(sympy.cancel((xs[k - 1] ** c + 1) / xs[k - 2]))
        num, den = sympy.fraction(xs[k])
        ((shift, unit),) = sympy.Poly(den, X1, X2).terms()
        assert unit == 1, (c, k, den)  # the denominator is a monic monomial
        out[k] = LaurentPoly2(
            {
                (i - shift[0], j - shift[1]): int(v)
                for (i, j), v in sympy.Poly(num, X1, X2).terms()
            }
        )
    return out


@pytest.mark.parametrize("c, n_top", [(2, 9), (3, 6), (4, 5), (5, 5)])
def test_sympy_recurrence_matches_both_routes(c, n_top):
    ctx = ClusterContext(c)
    for n, want in sympy_cluster_vars(c, n_top).items():
        assert cluster_var_recurrence(ctx, n) == want, (c, n)
        assert cluster_var_formula(ctx, n) == want, (c, n)
