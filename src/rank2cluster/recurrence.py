"""The oracle route: cluster variables by the defining recurrence.

x_1 and x_2 are the two variables; every later x_{k+1} is obtained as
(x_k^c + 1) / x_{k-1}, where the division is performed exactly and a
nonzero remainder would be reported rather than silently accepted.  The
characteristic table of a variable is read off its expansion through the
exponent coordinate change (d1, d2) -> (e1, e2).
"""
from __future__ import annotations

from .combinat import ChiTable, ClusterContext
from .laurent import ONE, X1, X2, InexactDivisionError, LaurentPoly2


class ExpansionStructureError(RuntimeError):
    """An expansion violated the exponent structure required by the coordinate map.

    c and n name the expansion x_n; e1 and e2 name the offending cell, and
    are None when the offending term maps to no single cell.
    """

    def __init__(self, message: str, c=None, n=None, e1=None, e2=None):
        super().__init__(message)
        self.c, self.n, self.e1, self.e2 = c, n, e1, e2


def cluster_var_recurrence(ctx: ClusterContext, n: int) -> LaurentPoly2:
    """x_n computed by iterating the recurrence; each x_k memoized in ctx.

    Requires c >= 2 and n >= 1.  Every division along the way must be
    exact; an InexactDivisionError here would indicate a bug, and it is
    re-raised naming c and the step k, with the remainder kept.  Any other
    ArithmeticError of a step, such as a failed check in the multiply, is
    re-raised as an ArithmeticError with the same prefix.
    """
    if ctx.c < 2:
        raise ValueError(f"cluster variables require c >= 2, got c={ctx.c}")
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    xs = [None, X1, X2]
    for k in range(3, n + 1):
        try:
            xs.append(ctx.memo(("x", k), lambda: (xs[-1] ** ctx.c + ONE).exact_div(xs[-2])))
        except ArithmeticError as exc:
            message = (
                f"recurrence step k={k} for c={ctx.c}, "
                f"x_{k} = (x_{k - 1}^{ctx.c} + 1) / x_{k - 2}: {exc}"
            )
            if isinstance(exc, InexactDivisionError):
                raise InexactDivisionError(message, exc.remainder) from exc
            raise ArithmeticError(message) from exc
    return xs[n]


def scalar_cluster_value(c: int, n: int) -> int:
    """x_n evaluated at (1, 1), via the scalar shadow of the recurrence.

    y_1 = y_2 = 1 and y_{k+1} = (y_k^c + 1) / y_{k-1}; each division is
    checked to be exact.
    """
    if c < 2:
        raise ValueError(f"requires c >= 2, got c={c}")
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    prev, cur = 1, 1
    for _ in range(3, n + 1):
        num = cur**c + 1
        q, r = divmod(num, prev)
        if r:
            raise ArithmeticError("scalar recurrence produced a non-integer")
        prev, cur = cur, q
    return cur


def chi_from_expansion(ctx: ClusterContext, n: int) -> ChiTable:
    """Characteristic table read off the recurrence expansion of x_n.

    Each term coefficient kappa at exponents (d1, d2) is placed at the cell
    solving d2 = c*e1 - a_{n-2} and d1 = c*(a_{n-2} - e2) - a_{n-1}.  Both
    congruences must hold for every term; a violation means the expansion
    does not have the required shape and is reported as a structure error.
    """
    if n < 3:
        raise ValueError(f"characteristic tables start at n = 3, got {n}")
    c = ctx.c
    an1, an2 = ctx.a(n - 1), ctx.a(n - 2)
    poly = cluster_var_recurrence(ctx, n)
    entries: dict[tuple[int, int], int] = {}
    for (d1, d2), kappa in poly.items():
        e1, r1 = divmod(d2 + an2, c)
        q2, r2 = divmod(d1 + an1, c)
        if r1 or r2:
            lhs = f"d2 + a_{n-2} = {d2 + an2}" if r1 else f"d1 + a_{n-1} = {d1 + an1}"
            raise ExpansionStructureError(
                f"term x1^{d1} x2^{d2} of x_{n} (c={c}): {lhs} is not divisible by c",
                c,
                n,
            )
        e2 = an2 - q2
        if not (0 <= e1 <= an1 and 0 <= e2 <= an2):
            raise ExpansionStructureError(
                f"cell ({e1}, {e2}) outside the dimension box ({an1}, {an2})",
                c,
                n,
                e1,
                e2,
            )
        entries[(e1, e2)] = kappa
    table = ChiTable(ctx.c, n, (an1, an2), entries)
    for e1, e2 in ((0, 0), (an1, an2)):
        if table.chi(e1, e2) != 1:
            raise ExpansionStructureError(
                "corner cells of the table must equal 1", c, n, e1, e2
            )
    return table
