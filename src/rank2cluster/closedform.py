"""Closed-form route: constrained-sum expansions and characteristic values.

The admissible tuples are enumerated once per depth, by one walk
(enumerate_admissible) that carries each tuple's partial sums and its
binomial product as it descends.  The walk keeps its per-level state in
flat lists, one explicit stack, so each visited node costs a fixed number
of interpreter steps; a generator per level would pass every tuple up
through one yield per level, 37 to 42 of them at c=2, n=40 to 45.  A
tuple enters every sum only through that product and its last two partial
sums (s_{n-3}, s_{n-4}), so the tuples are summed into classes by those
two sums (_leaves: 10761 tuples become 514 classes at c=2, n=40).  Every
factor past the classes is read from one row of extended binomials
C(t, 0), C(t, 1), ... (_binom_row).

Each class fixes the middle binomial C(a_{n-2} - c*s_{n-3}, e2 - s_{n-4})
of every e2 row it reaches, and the trailing factor depends only on e2
and e1 - s_{n-3}.  So one table (_rows) holds, for each e2, the
middle-weighted class sum A per s_{n-3} value; the cell values
(chi_formula) and the expansion (cluster_var_formula) are read from it,
the expansion by scattering each e2 row along one trailing row, cut at
e1 <= floor(e2*a_{n-1}/a_{n-2}) by the support inequality.

The second builder (cluster_var_formula_v2) reads neither: it stays in the
substituted entries t_{n-3}, t_{n-2} and their extended partial sums, with
one trailing row in t_{n-2} per class and t_{n-3}, cut by the same
inequality in those coordinates.  The cuts agree only by floor(e2*a_{n-1}/
a_{n-2}) = a_{n-1} - ceil(s_{n-2}*a_{n-1}/a_{n-2}), e2 = a_{n-2} - s_{n-2},
so exact agreement checks the change of variables connecting them.

A cell value chi(e1, e2) is the same constrained sum restricted to one
cell.  Its summation conditions are exactly those of the full expansion,
including the support inequality e2*a_{n-1} - e1*a_{n-2} >= 0; with that
condition the value agrees with the expansion coefficient on every cell
and vanishes wherever the cell carries no subrepresentations.  (Dropping
the inequality, or keeping it while dropping the per-tuple window on the
middle binomial, both produce sums that fail to vanish on scattered
out-of-support cells; see the repository test suite for the exact
agreement grid.)  Nothing here is imported from the recurrence route.
"""
from __future__ import annotations

from typing import Iterator

from .combinat import ChiTable, ClusterContext, mod_binom
from .laurent import LaurentPoly2


def _require(ctx: ClusterContext, n: int) -> None:
    if ctx.c < 2:
        raise ValueError(f"requires c >= 2, got c={ctx.c}")
    if n < 3:
        raise ValueError(f"requires n >= 3, got {n}")


def _binom_step(b: int, t: int, j: int) -> int:
    """C(t, j+1) from b = C(t, j), j >= 0; exact for every integer t, t < 0 too."""
    return b * (t - j) // (j + 1)


def _binom_row(t: int, width: int) -> list[int]:
    """[C(t, 0), ..., C(t, width-1)] for any integer t; ends at C(t, t) when t >= 0."""
    if t >= 0:
        width = min(width, t + 1)
    row = [1] * width
    for j in range(1, width):
        row[j] = _binom_step(row[j - 1], t, j - 1)
    return row


def enumerate_admissible(
    ctx: ClusterContext, n: int, depth: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Depth-first stream of admissible tuples (t_0, ..., t_{depth-1}).

    Each tuple arrives as (entries, s_values, weight).  s_values holds the
    partial sums s_0, ..., s_depth, s_i = sum of a_{i-j+1}*t_j over j < i,
    built by s_{i+1} = c*s_i - s_{i-1} + t_i; weight is the product of the
    binomials C(a_{i+1} - c*s_i, t_i).  Level i admits
    0 <= t_i <= a_{i+1} - c*s_i; a branch whose bound goes negative yields
    nothing.  Requires 0 <= depth <= n - 3.

    The walk is iterative: level i holds its entry, bound, binomial and
    prefix weight in lists indexed by i, a finished level steps the level
    above to its next entry, and the last level runs as one loop over its
    entries.  Tuples come in lexicographic order; each item holds new
    tuples, never the walk's own lists.
    """
    if not (0 <= depth <= n - 3):
        raise ValueError(f"depth must lie in [0, n-3] = [0, {n - 3}], got {depth}")
    if not depth:
        yield (), (0,), 1
        return
    c = ctx.c
    last = depth - 1
    bounds = [ctx.a(i + 1) for i in range(depth)]
    entries = [0] * depth  # the current prefix t_0, ..., t_i
    sv = [0] * (depth + 1)  # its partial sums s_0, ..., s_{i+1}
    tops = [bounds[0]] + [0] * last  # level bounds a_{i+1} - c*s_i
    bases = [0] * depth  # s_{i+1} at t_i = 0, that is c*s_i - s_{i-1}
    binoms = [1] * depth  # C(tops[i], entries[i])
    weights = [1] * depth  # product of binoms[j] over j < i
    i = 0
    while i >= 0:
        t = entries[i]
        if t > tops[i]:  # level i is done: step the level above to its next entry
            i -= 1
            if i >= 0:
                binoms[i] = _binom_step(binoms[i], tops[i], entries[i])
                entries[i] += 1
            continue
        if i == last:  # the leaf level, in one loop
            top, base, w, b = tops[i], bases[i], weights[i], 1
            for t in range(top + 1):
                entries[i] = t
                sv[depth] = base + t
                yield tuple(entries), tuple(sv), w * b
                b = _binom_step(b, top, t)
            entries[i] = top + 1
            continue
        s = sv[i + 1] = bases[i] + t
        i += 1
        tops[i] = bounds[i] - c * s
        bases[i] = c * s - sv[i - 1]
        entries[i] = 0
        binoms[i] = 1
        weights[i] = weights[i - 1] * binoms[i - 1]


def _leaves(ctx: ClusterContext, depth: int) -> tuple[tuple[int, int, int], ...]:
    """(weight, s_depth, s_{depth-1}) per class of admissible tuples, cached.

    A tuple enters every sum only through its binomial product and its last
    two partial sums, so the tuples sharing those two sums form one class,
    whose weight is the sum of their products (at least 1).
    """
    def build():
        weights: dict[tuple[int, int], int] = {}
        for _, sv, weight in enumerate_admissible(ctx, depth + 3, depth):
            k = (sv[depth], sv[depth - 1] if depth >= 1 else 0)
            weights[k] = weights.get(k, 0) + weight
        return tuple((w, s_last, s_prev) for (s_last, s_prev), w in weights.items())

    return ctx.memo(("leaves", depth), build)


def _rows(ctx: ClusterContext, n: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """e2 -> ((s_last, A), ...) in ascending s_last, cached per n.

    A = sum of weight*C(top, e2 - s_prev) over the classes of
    _leaves(ctx, n-3) with that s_last, where top = a_{n-2} - c*s_last.
    Only the pairs some class reaches are kept, so every A is at least 1;
    a class with top < 0 reaches none.  This is the one table both
    _chi_terms and cluster_var_formula read.
    """
    def build():
        an2 = ctx.a(n - 2)
        acc: dict[int, dict[int, int]] = {}
        for weight, s_last, s_prev in _leaves(ctx, n - 3):
            top = an2 - ctx.c * s_last
            for k, b in enumerate(_binom_row(top, top + 1)):
                row = acc.setdefault(s_prev + k, {})
                row[s_last] = row.get(s_last, 0) + weight * b
        return {e2: tuple(sorted(row.items())) for e2, row in sorted(acc.items())}

    return ctx.memo(("rows", n), build)


def _chi_terms(ctx: ClusterContext, n: int, e1: int, e2: int) -> Iterator[int]:
    """Nonzero contributions to the (e1, e2) cell, one per s_{n-3}; unvalidated.

    Each is A*C(t, e1 - s_last) for a (s_last, A) pair of the e2 row of
    _rows, with t = c*e2 - a_{n-3}; any c >= 1.  The pairs are visited in
    descending s_last, so the trailing binomial is computed once and then
    stepped up in its lower index.
    """
    an1, an2 = ctx.a(n - 1), ctx.a(n - 2)
    if e2 * an1 - e1 * an2 < 0:
        return
    t = ctx.c * e2 - ctx.a(n - 3)
    j = -1
    for s_last, weight in reversed(_rows(ctx, n).get(e2, ())):
        k = e1 - s_last
        if k < 0:
            continue
        if j < 0:
            j, b = k, mod_binom(t, t - k)
        while j < k and b:
            b = _binom_step(b, t, j)
            j += 1
        if not b:
            return  # C(t, k) = 0 only when 0 <= t < k, and k only grows
        yield weight * b


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
    """Contributions to chi_formula, one per value of s_{n-3}, zeros omitted.

    Each contribution sums the tuple contributions of one s_{n-3} value:
    A*C(t, e1 - s_{n-3}) with t = c*e2 - a_{n-3}.  They come in descending
    s_{n-3}.  The sign of a contribution is the sign of every tuple
    contribution it sums, since a class weight is at least 1, the middle
    binomial is at least 1 on its window, and the sign comes only from the
    trailing binomial, which depends only on (e2, e1 - s_{n-3}).  So all
    contributions to a cell are nonnegative exactly when all its tuple
    contributions are.
    """
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


def cluster_var_formula(ctx: ClusterContext, n: int) -> LaurentPoly2:
    """x_n assembled cell by cell from the constrained sum.

    Each e2 row of the grouped table scatters its (s_last, A) pairs along
    one row of trailing binomials C(t, j), t = c*e2 - a_{n-3}, into the
    cells (s_last + j, e2) up to the support inequality's bound on e1.
    Exactly equal to the recurrence route.
    """
    _require(ctx, n)
    c = ctx.c
    an1, an2, an3 = ctx.a(n - 1), ctx.a(n - 2), ctx.a(n - 3)
    terms: dict[tuple[int, int], int] = {}
    for e2, row in _rows(ctx, n).items():
        # at n = 3, a_{n-2} = 0 and e2 = s_last = 0: the trailing row's own end
        hi = e2 * an1 // an2 if an2 else c * e2 - an3
        binoms = _binom_row(c * e2 - an3, hi - row[0][0] + 1)
        cells: dict[int, int] = {}
        for s_last, weight in row:
            for e1, b in zip(range(s_last, hi + 1), binoms):
                cells[e1] = cells.get(e1, 0) + weight * b
        d1 = c * (an2 - e2) - an1
        for e1, v in cells.items():
            terms[(d1, c * e1 - an2)] = v
    return LaurentPoly2(terms)


def cluster_var_formula_v2(ctx: ClusterContext, n: int) -> LaurentPoly2:
    """x_n through the substituted parametrization of the same sum.

    The cell coordinates are traded for two extra tuple entries, with
    s_{n-2} = c*s_{n-3} - s_{n-4} + t_{n-3} and s_{n-1} = c*s_{n-2} -
    s_{n-3} + t_{n-2}.  Per class and t_{n-3}, the factors C(t_top, t_top -
    t_{n-2}), t_top = a_{n-1} - c*s_{n-2}, are one row cut by the support
    inequality s_{n-1}*a_{n-2} >= s_{n-2}*a_{n-1}, and each term lands on
    (c*s_{n-2} - a_{n-1}, c*(a_{n-1} - s_{n-1}) - a_{n-2}).  Exact equality
    with cluster_var_formula is the change of variables made executable.
    """
    _require(ctx, n)
    c = ctx.c
    an1, an2 = ctx.a(n - 1), ctx.a(n - 2)
    terms: dict[tuple[int, int], int] = {}
    for weight, s_last, s_prev in _leaves(ctx, n - 3):
        top = an2 - c * s_last
        for t_mid, f_mid in enumerate(_binom_row(top, top + 1)):
            s_n2 = c * s_last - s_prev + t_mid
            t_top = an1 - c * s_n2
            s_top = c * s_n2 - s_last + t_top  # s_{n-1} at t_{n-2} = t_top
            # t_{n-2} >= ceil(s_{n-2}*a_{n-1}/a_{n-2}) - c*s_{n-2} + s_{n-3}; at n = 3,
            # a_{n-2} = 0, the only class is (1, 0, 0) and the row ends itself
            t_lo = -(-s_n2 * an1 // an2) - c * s_n2 + s_last if an2 else 0
            pm = weight * f_mid
            d1 = c * s_n2 - an1
            for j, f_end in enumerate(_binom_row(t_top, t_top - t_lo + 1)):
                k = (d1, c * (an1 - s_top + j) - an2)
                terms[k] = terms.get(k, 0) + pm * f_end
    return LaurentPoly2(terms)
