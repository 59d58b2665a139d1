"""Closed-form route: constrained-sum expansions and characteristic values.

Both expansion builders enumerate the same admissible tuples once and
scatter binomial products into exponent cells; they differ in how the two
trailing factors and the output monomial are expressed.  The first uses
the cell coordinates (e1, e2) directly, the second routes every factor
through the substituted tuple entries t_{n-3}, t_{n-2} and their extended
partial sums, so exact agreement of the two is a nontrivial check of the
change of variables connecting them.

A cell value chi(e1, e2) is the same constrained sum restricted to one
cell.  Its summation conditions are exactly those of the full expansion,
including the support inequality e2*a_{n-1} - e1*a_{n-2} >= 0; with that
condition the value agrees with the expansion coefficient on every cell
and vanishes wherever the cell carries no subrepresentations.  (Dropping
the inequality, or keeping it while dropping the per-tuple window on the
middle binomial, both produce sums that fail to vanish on scattered
out-of-support cells; see the repository test suite for the exact
agreement grid.)
"""
from __future__ import annotations

from typing import Iterator

from .combinat import ChiTable, ClusterContext, SPrefix, mod_binom, s_prefix_extend
from .laurent import LaurentPoly2


def _require(ctx: ClusterContext, n: int) -> None:
    if ctx.c < 2:
        raise ValueError(f"requires c >= 2, got c={ctx.c}")
    if n < 3:
        raise ValueError(f"requires n >= 3, got {n}")


def enumerate_admissible(
    ctx: ClusterContext, n: int, depth: int
) -> Iterator[SPrefix]:
    """Depth-first stream of admissible tuples (t_0, ..., t_{depth-1}).

    Each tuple arrives as its SPrefix, entries with partial sums.  Level i
    admits 0 <= t_i <= a_{i+1} - c*s_i, the bound recomputed from the
    running prefix; a branch whose bound goes negative yields nothing.
    Requires 0 <= depth <= n - 3.
    """
    if not (0 <= depth <= n - 3):
        raise ValueError(f"depth must lie in [0, n-3] = [0, {n - 3}], got {depth}")

    def rec(prefix: SPrefix, i: int):
        if i == depth:
            yield prefix
            return
        top = ctx.a(i + 1) - ctx.c * prefix.s_values[i]
        for t in range(top + 1):
            yield from rec(s_prefix_extend(ctx, prefix, t), i + 1)

    yield from rec(SPrefix.empty(), 0)


def _leaves(ctx: ClusterContext, depth: int) -> tuple[tuple[int, int, int], ...]:
    """(binomial product, s_depth, s_{depth-1}) per admissible tuple, cached."""
    key = ("leaves", depth)
    cached = ctx._derived.get(key)
    if cached is not None:
        return cached
    c = ctx.c
    out = []
    for prefix in enumerate_admissible(ctx, depth + 3, depth):
        sv = prefix.s_values
        prod = 1
        for i, t in enumerate(prefix.entries):
            prod *= mod_binom(ctx.a(i + 1) - c * sv[i], t)
        out.append((prod, sv[depth], sv[depth - 1] if depth >= 1 else 0))
    result = tuple(out)
    with ctx._lock:
        ctx._derived[key] = result
    return result


def _chi_terms(ctx: ClusterContext, n: int, e1: int, e2: int) -> Iterator[int]:
    """Nonzero tuple contributions to the (e1, e2) cell, any c >= 1; unvalidated."""
    c = ctx.c
    an1, an2, an3 = ctx.a(n - 1), ctx.a(n - 2), ctx.a(n - 3)
    if e2 * an1 - e1 * an2 < 0:
        return
    tlast = -an3 + c * e2
    for prod, s_last, s_prev in _leaves(ctx, n - 3):
        top = an2 - c * s_last
        bot = top - e2 + s_prev
        if bot < 0 or bot > top:
            continue
        lb = mod_binom(tlast, tlast - e1 + s_last)
        if lb:
            yield prod * mod_binom(top, bot) * lb


def _chi_sum(ctx: ClusterContext, n: int, e1: int, e2: int) -> int:
    """Cell value at (e1, e2) for any c >= 1; callers validate the rest."""
    return sum(_chi_terms(ctx, n, e1, e2))


def chi_formula(ctx: ClusterContext, n: int, e1: int, e2: int) -> int:
    """Euler characteristic of the (e1, e2) cell by the constrained sum.

    Defined for arbitrary integers e1, e2; cells outside the dimension box
    or outside the support inequality give 0.
    """
    _require(ctx, n)
    return _chi_sum(ctx, n, e1, e2)


def chi_formula_summands(
    ctx: ClusterContext, n: int, e1: int, e2: int
) -> Iterator[int]:
    """Individual tuple contributions to chi_formula, zeros omitted."""
    _require(ctx, n)
    return _chi_terms(ctx, n, e1, e2)


def chi_table_from_formula(ctx: ClusterContext, n: int) -> ChiTable:
    """Characteristic table of x_n, one chi_formula call per box cell."""
    _require(ctx, n)
    an1, an2 = ctx.a(n - 1), ctx.a(n - 2)
    entries = {}
    for e1 in range(an1 + 1):
        for e2 in range(an2 + 1):
            v = chi_formula(ctx, n, e1, e2)
            if v:
                entries[(e1, e2)] = v
    return ChiTable(ctx.c, n, (an1, an2), entries)


def _e1_upper(ctx: ClusterContext, n: int, e2: int, s_last: int) -> int:
    # third summation condition; n = 3 has a_{n-2} = 0 and the last
    # binomial's own support bound takes over (e2 is forced to 0 there)
    an1, an2 = ctx.a(n - 1), ctx.a(n - 2)
    if an2 > 0:
        return (e2 * an1) // an2
    return -ctx.a(n - 3) + ctx.c * e2 + s_last


def cluster_var_formula(ctx: ClusterContext, n: int) -> LaurentPoly2:
    """x_n assembled cell by cell from the constrained sum.

    Tuples are enumerated once; each tuple scatters into the cells (e1, e2)
    admitted by its window.  Exactly equal to the recurrence route.
    """
    _require(ctx, n)
    c = ctx.c
    an1, an2, an3 = ctx.a(n - 1), ctx.a(n - 2), ctx.a(n - 3)
    cells: dict[tuple[int, int], int] = {}
    for prod, s_last, s_prev in _leaves(ctx, n - 3):
        top = an2 - c * s_last
        for e2 in range(s_prev, top + s_prev + 1):
            pm = prod * mod_binom(top, top - e2 + s_prev)
            if not pm:
                continue
            tlast = -an3 + c * e2
            for e1 in range(s_last, _e1_upper(ctx, n, e2, s_last) + 1):
                lb = mod_binom(tlast, tlast - e1 + s_last)
                if lb:
                    k = (e1, e2)
                    nv = cells.get(k, 0) + pm * lb
                    if nv:
                        cells[k] = nv
                    else:
                        del cells[k]
    return LaurentPoly2(
        {
            (c * (an2 - e2) - an1, c * e1 - an2): v
            for (e1, e2), v in cells.items()
        }
    )


def cluster_var_formula_v2(ctx: ClusterContext, n: int) -> LaurentPoly2:
    """x_n through the substituted parametrization of the same sum.

    The cell coordinates are traded for two extra tuple entries via
    t_{n-3} = a_{n-2} - e2 - c*s_{n-3} + s_{n-4} and
    t_{n-2} = (a_{n-1} - e1) - c*(a_{n-2} - e2) + s_{n-3}; every factor and
    the output monomial are then expressed through the extended partial
    sums s_{n-2}, s_{n-1}.  Term-for-term equality with
    cluster_var_formula is the change of variables made executable.
    """
    _require(ctx, n)
    c = ctx.c
    an1, an2 = ctx.a(n - 1), ctx.a(n - 2)
    cells: dict[tuple[int, int], int] = {}

    def broken(e1, e2, what: str) -> ArithmeticError:
        return ArithmeticError(
            f"change of variables fails at (c, n, e1, e2) = ({c}, {n}, {e1}, {e2}): {what}"
        )

    for prod, s_last, s_prev in _leaves(ctx, n - 3):
        top = an2 - c * s_last
        for e2 in range(s_prev, top + s_prev + 1):
            t_mid = an2 - e2 - c * s_last + s_prev
            if not 0 <= t_mid <= top:
                raise broken("any", e2, f"t_(n-3) = {t_mid} outside [0, {top}]")
            s_n2 = c * s_last - s_prev + t_mid
            if s_n2 != an2 - e2:
                raise broken("any", e2, f"s_(n-2) = {s_n2} != a_(n-2) - e2")
            f_mid = mod_binom(top, t_mid)
            if not f_mid:
                continue
            pm = prod * f_mid
            for e1 in range(s_last, _e1_upper(ctx, n, e2, s_last) + 1):
                t_end = (an1 - e1) - c * (an2 - e2) + s_last
                s_n1 = c * s_n2 - s_last + t_end
                if s_n1 != an1 - e1:
                    raise broken(e1, e2, f"s_(n-1) = {s_n1} != a_(n-1) - e1")
                if s_n1 * an2 - s_n2 * an1 < 0:
                    raise broken(e1, e2, "support inequality violated")
                f_end = mod_binom(an1 - c * s_n2, t_end)
                if f_end:
                    k = (c * s_n2, c * (an1 - s_n1))
                    nv = cells.get(k, 0) + pm * f_end
                    if nv:
                        cells[k] = nv
                    else:
                        del cells[k]
    return LaurentPoly2(
        {(d1 - an1, d2 - an2): v for (d1, d2), v in cells.items()}
    )
