import itertools
import random
import sys
import threading
from collections import defaultdict
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from rank2cluster import closedform
from rank2cluster.closedform import (
    _binom_row,
    _binom_step,
    _leaves,
    _rows,
    chi_formula,
    chi_formula_summands,
    chi_table_from_formula,
    cluster_var_formula,
    cluster_var_formula_v2,
    enumerate_admissible,
)
from rank2cluster.combinat import ClusterContext, euler_form, mod_binom
from rank2cluster.laurent import LaurentPoly2
from rank2cluster.recurrence import chi_from_expansion, cluster_var_recurrence


def recursive_walk(ctx, n, depth):
    """The admissible-tuple walk as one generator per level, each item passed up
    through every level; a reference for the stream of enumerate_admissible."""
    c = ctx.c

    def rec(entries, s_values, weight, i):
        if i == depth:
            yield entries, s_values, weight
            return
        s_i = s_values[i]
        top = ctx.a(i + 1) - c * s_i
        base = c * s_i - (s_values[i - 1] if i else 0)  # s_{i+1} at t_i = 0
        b = 1
        for t in range(top + 1):
            yield from rec(entries + (t,), s_values + (base + t,), weight * b, i + 1)
            b = _binom_step(b, top, t)

    yield from rec((), (0,), 1, 0)


class TestEnumerateAdmissible:
    @pytest.mark.parametrize("c, n", [(2, 20), (3, 8), (4, 7), (5, 6)])
    def test_stream_equals_the_recursive_walk(self, c, n):
        # every depth from 0 to n - 3: same items, same order
        ctx = ClusterContext(c)
        for depth in range(n - 2):
            assert list(enumerate_admissible(ctx, n, depth)) == list(
                recursive_walk(ctx, n, depth)
            ), depth

    def test_depth_one_single_tuple(self):
        got = list(enumerate_admissible(ClusterContext(2), 4, 1))
        assert [entries for entries, _, _ in got] == [(0,)]

    def test_depth_two_bound_unrolls(self):
        got = [entries for entries, _, _ in enumerate_admissible(ClusterContext(2), 5, 2)]
        assert got == [(0, 0), (0, 1)]

    def test_count_matches_unpruned_box_scan(self):
        # independent oracle: scan the full box 0 <= t_i <= a_{i+1} and
        # keep tuples satisfying every level bound
        ctx = ClusterContext(2)
        depth = 4  # n = 7
        ranges = [range(ctx.a(i + 1) + 1) for i in range(depth)]
        brute = 0
        for tup in itertools.product(*ranges):
            s = [0] * (depth + 1)
            ok = True
            for i in range(depth):
                if i >= 1:
                    s[i] = ctx.c * s[i - 1] - (s[i - 2] if i >= 2 else 0) + tup[i - 1]
                if not (0 <= tup[i] <= ctx.a(i + 1) - ctx.c * s[i]):
                    ok = False
                    break
            if ok:
                brute += 1
        fast = sum(1 for _ in enumerate_admissible(ctx, 7, depth))
        assert fast == brute

    def test_negative_bound_branch_is_pruned(self):
        # the prefix (0, 1, 0) reaches bound a_4 - 2*s_3 = -1 at level 3;
        # enumeration must drop it silently
        ctx = ClusterContext(2)
        tuples = [entries for entries, _, _ in enumerate_admissible(ctx, 7, 4)]
        assert all(not t[:3] == (0, 1, 0) for t in tuples)
        assert len(tuples) == len(set(tuples))

    def test_level_bounds_nonnegative_on_stream(self):
        for c, n in ((2, 8), (3, 6)):
            ctx = ClusterContext(c)
            for entries, sv, _ in enumerate_admissible(ctx, n, n - 3):
                for i, t in enumerate(entries):
                    top = ctx.a(i + 1) - c * sv[i]
                    assert 0 <= t <= top

    def test_stream_partial_sums_and_weights(self):
        # s_i from its defining weighted sum, the weight from math.comb, both
        # recomputed from the entries alone
        for c, n in ((2, 9), (3, 7), (4, 6)):
            ctx = ClusterContext(c)
            for depth in range(n - 2):
                for entries, sv, weight in enumerate_admissible(ctx, n, depth):
                    assert len(entries) == depth and len(sv) == depth + 1
                    for i in range(depth + 1):
                        want = sum(ctx.a(i - j + 1) * entries[j] for j in range(i))
                        assert sv[i] == want, (c, n, entries, i)
                    prod = 1
                    for i, t in enumerate(entries):
                        prod *= comb(ctx.a(i + 1) - c * sv[i], t)
                    assert weight == prod, (c, n, entries)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_admissible(ClusterContext(2), 5, 3))
        with pytest.raises(ValueError):
            list(enumerate_admissible(ClusterContext(2), 5, -1))

    # partial sums s_0..s_depth of a tuple prefix, as the admissible walk builds them
    @staticmethod
    def s_values(ctx, n, entries):
        for got, sv, _ in enumerate_admissible(ctx, n, len(entries)):
            if got == entries:
                return sv
        raise AssertionError(f"{entries} is not admissible at c={ctx.c}, n={n}")

    def test_extend_from_empty(self):
        ctx = ClusterContext(2)
        assert self.s_values(ctx, 4, (0,)) == (0, 0)  # s_0, s_1

    def test_extend_recurrence_form(self):
        ctx = ClusterContext(2)
        sv = self.s_values(ctx, 6, (0, 1, 0))
        # s_3 = c*s_2 - s_1 + t_2 = 2*1 - 0 + 0
        assert sv[3] == 2
        for c, n in ((2, 9), (3, 8)):
            ctx = ClusterContext(c)
            for entries, sv, _ in enumerate_admissible(ctx, n, n - 3):
                for i, t in enumerate(entries):
                    s_prev = sv[i - 1] if i else 0
                    assert sv[i + 1] == c * sv[i] - s_prev + t, (c, n, entries, i)

    def test_extend_c3(self):
        ctx = ClusterContext(3)
        sv = self.s_values(ctx, 7, (0, 0, 1, 1))
        # s_4 = c*s_3 - s_2 + t_3 = 3*1 - 0 + 1
        assert sv == (0, 0, 0, 1, 4)

    def test_matches_weighted_sum_definition(self):
        ctx = ClusterContext(3)
        entries = (0, 0, 1, 2, 3)
        sv = self.s_values(ctx, 8, entries)
        for i in range(len(entries) + 1):
            want = sum(ctx.a(i - j + 1) * entries[j] for j in range(i))
            assert sv[i] == want


def tuple_leaves(ctx, n):
    """(product, s_{n-3}, s_{n-4}) per admissible tuple, one entry per tuple."""
    depth = n - 3
    out = []
    for entries, sv, _ in enumerate_admissible(ctx, n, depth):
        prod = 1
        for i, t in enumerate(entries):
            prod *= comb(ctx.a(i + 1) - ctx.c * sv[i], t)
        out.append((prod, sv[depth], sv[depth - 1] if depth >= 1 else 0))
    return out


def tuple_chi_terms(ctx, n, e1, e2):
    """(s_{n-3}, contribution) per tuple: the ungrouped per-tuple cell loop."""
    c = ctx.c
    an1, an2, an3 = ctx.a(n - 1), ctx.a(n - 2), ctx.a(n - 3)
    if e2 * an1 - e1 * an2 < 0:
        return []
    tlast = -an3 + c * e2
    out = []
    for prod, s_last, s_prev in tuple_leaves(ctx, n):
        top = an2 - c * s_last
        bot = top - e2 + s_prev
        if bot < 0 or bot > top:
            continue
        lb = mod_binom(tlast, tlast - e1 + s_last)
        if lb:
            out.append((s_last, prod * mod_binom(top, bot) * lb))
    return out


class TestGrouping:
    @pytest.mark.parametrize("c, n_top", [(2, 10), (3, 8), (4, 7), (5, 7)])
    def test_classes_sum_tuple_products(self, c, n_top):
        # c=2 reaches n=7, whose walk prunes the (0, 1, 0) branch
        for n in range(3, n_top + 1):
            ctx = ClusterContext(c)
            want = defaultdict(int)
            for prod, s_last, s_prev in tuple_leaves(ctx, n):
                want[(s_last, s_prev)] += prod
            got = {(s_last, s_prev): w for w, s_last, s_prev in _leaves(ctx, n - 3)}
            assert len(got) == len(_leaves(ctx, n - 3))
            assert got == dict(want)

    @pytest.mark.parametrize("c, n", [(3, 6), (3, 7), (4, 6)])
    def test_summands_group_tuple_terms_by_s_last(self, c, n):
        ctx = ClusterContext(c)
        an1, an2, an3 = ctx.a(n - 1), ctx.a(n - 2), ctx.a(n - 3)
        assert any(c * e2 < an3 for e2 in range(an2 + 1))  # negative trailing tops
        for e1 in range(an1 + 1):
            for e2 in range(an2 + 1):
                groups = defaultdict(list)
                for s_last, term in tuple_chi_terms(ctx, n, e1, e2):
                    groups[s_last].append(term)
                got = list(chi_formula_summands(ctx, n, e1, e2))
                assert got == [sum(groups[s]) for s in sorted(groups, reverse=True)]
                for grouped, s in zip(got, sorted(groups, reverse=True)):
                    assert all((t > 0) == (grouped > 0) for t in groups[s])

    def test_binom_step(self):
        for t in range(-15, 16):
            for j in range(21):
                assert _binom_step(mod_binom(t, t - j), t, j) == mod_binom(t, t - j - 1)
                # a row stops after C(t, t) when t >= 0, where the rest are zeros
                width = min(j, t + 1) if t >= 0 else j
                assert _binom_row(t, j) == [mod_binom(t, t - i) for i in range(width)]

    def test_concurrent_memo_fill_matches_serial(self):
        # the README states the context memos are safe for concurrent readers;
        # four threads race to fill the leaves, rows and recurrence memos of
        # one context, and all get the first value stored
        n = 8
        serial_ctx = ClusterContext(3)
        serial = (chi_table_from_formula(serial_ctx, n), cluster_var_formula(serial_ctx, n))
        serial_rec = cluster_var_recurrence(serial_ctx, n)
        ctx = ClusterContext(3)
        barrier = threading.Barrier(4)
        results = [None] * 4
        recs = [None] * 4

        def work(i):
            barrier.wait(timeout=60)
            if i % 2:
                poly = cluster_var_formula(ctx, n)
                recs[i] = cluster_var_recurrence(ctx, n)
                results[i] = (chi_table_from_formula(ctx, n), poly)
            else:
                recs[i] = cluster_var_recurrence(ctx, n)
                results[i] = (chi_table_from_formula(ctx, n), cluster_var_formula(ctx, n))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the memo fills
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [serial] * 4
        assert all(rec is recs[0] for rec in recs)
        assert recs[0] == serial_rec


class TestChiFormula:
    def test_examples_c2_n4(self):
        ctx = ClusterContext(2)
        assert chi_formula(ctx, 4, 1, 1) == 2
        assert chi_formula(ctx, 4, 0, 0) == 1
        assert chi_formula(ctx, 4, 1, 0) == 0

    def test_matches_expansion_on_box(self):
        for c, n_top in ((2, 9), (3, 7), (4, 6)):
            ctx = ClusterContext(c)
            for n in range(3, n_top + 1):
                table = chi_from_expansion(ctx, n)
                an1, an2 = table.dim_vector
                for e1 in range(an1 + 1):
                    for e2 in range(an2 + 1):
                        assert chi_formula(ctx, n, e1, e2) == table.chi(e1, e2)
                assert chi_table_from_formula(ctx, n) == table

    def test_out_of_box_is_zero(self):
        rng = random.Random(0)
        for c, n in ((2, 7), (3, 6), (4, 5)):
            ctx = ClusterContext(c)
            an1, an2 = ctx.a(n - 1), ctx.a(n - 2)
            done = 0
            while done < 50:
                e1 = rng.randint(-an1 - 4, 2 * an1 + 4)
                e2 = rng.randint(-an2 - 4, 2 * an2 + 4)
                if 0 <= e1 <= an1 and 0 <= e2 <= an2:
                    continue
                assert chi_formula(ctx, n, e1, e2) == 0
                done += 1

    def test_zero_when_pairing_negative(self):
        rng = random.Random(1)
        for c, n in ((2, 7), (3, 6)):
            ctx = ClusterContext(c)
            an1, an2 = ctx.a(n - 1), ctx.a(n - 2)
            done = 0
            while done < 60:
                e1 = rng.randint(-an1, 2 * an1)
                e2 = rng.randint(-an2, 2 * an2)
                if e2 * an1 - e1 * an2 >= 0:
                    continue
                assert chi_formula(ctx, n, e1, e2) == 0
                done += 1

    def test_zero_when_euler_form_negative(self):
        # cells whose complementary pairing under the bilinear form is
        # negative carry no subrepresentations
        for c, n in ((2, 7), (3, 6)):
            ctx = ClusterContext(c)
            an1, an2 = ctx.a(n - 1), ctx.a(n - 2)
            for e1 in range(an1 + 1):
                for e2 in range(an2 + 1):
                    if euler_form(ctx, (e1, e2), (an1 - e1, an2 - e2)) < 0:
                        assert chi_formula(ctx, n, e1, e2) == 0

    def test_summands_sum_to_value(self):
        ctx = ClusterContext(3)
        for e1 in range(ctx.a(5) + 1):
            for e2 in range(ctx.a(4) + 1):
                assert sum(chi_formula_summands(ctx, 6, e1, e2)) == chi_formula(
                    ctx, 6, e1, e2
                )

    def test_nonnegative_region(self):
        # with c >= 3 and c*e2 >= a_{n-3} every summand is nonnegative
        for c, n in ((3, 7), (4, 6)):
            ctx = ClusterContext(c)
            an1, an2, an3 = ctx.a(n - 1), ctx.a(n - 2), ctx.a(n - 3)
            for e2 in range(an2 + 1):
                if c * e2 < an3:
                    continue
                for e1 in range(an1 + 1):
                    terms = list(chi_formula_summands(ctx, n, e1, e2))
                    assert all(t >= 0 for t in terms)
                    assert chi_formula(ctx, n, e1, e2) >= 0

    def test_context_computes_each_trailing_binomial_once(self, monkeypatch):
        # the cells of one e2 row share t = c*e2 - a_{n-3}, so the context's
        # table of C(t, k) seeds fewer binomials than the table has cells,
        # and a second build on the same context reads every one of them
        c, n = 4, 7
        calls = {"mod_binom": 0, "_binom_step": 0}
        for name in calls:
            def spy(*args, name=name, real=getattr(closedform, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(closedform, name, spy)
        ctx = ClusterContext(c)
        table = chi_table_from_formula(ctx, n)
        assert 0 < calls["mod_binom"] < len(table.entries)
        calls.update(mod_binom=0, _binom_step=0)
        assert chi_table_from_formula(ctx, n) == table
        assert calls == {"mod_binom": 0, "_binom_step": 0}
        an1, an2 = table.dim_vector
        cells = {}
        for e1 in range(an1 + 1):
            for e2 in range(an2 + 1):
                v = chi_formula(ClusterContext(c), n, e1, e2)
                if v:
                    cells[(e1, e2)] = v
        assert table.entries == cells

    @pytest.mark.parametrize("c, n, stored, most_seeds", [(4, 7, 5692, 60), (5, 7, 30904, 120)])
    def test_binomial_tables_seed_only_where_the_value_below_is_missing(
        self, monkeypatch, c, n, stored, most_seeds
    ):
        # a missing C(t, k) is stepped from C(t, k-1) whenever the table holds
        # it, and seeded by mod_binom only otherwise; so every stored entry
        # costs exactly one seed or one step
        ctx = ClusterContext(c)
        _rows(ctx, n)  # its own binomial rows step too: build them first
        seeds, steps = [], 0

        def seed(a, b):
            seeds.append((a, a - b - 1 in ctx.memo(("binom", a), dict)))
            return mod_binom(a, b)

        def step(*args):
            nonlocal steps
            steps += 1
            return _binom_step(*args)

        monkeypatch.setattr(closedform, "mod_binom", seed)
        monkeypatch.setattr(closedform, "_binom_step", step)
        chi_table_from_formula(ctx, n)
        assert [t for t, below_stored in seeds if below_stored] == []
        # a table's first entry is a seed, so the seeded tops name every table
        tables = [ctx.memo(("binom", t), dict) for t in {t for t, _ in seeds}]
        assert len(seeds) + steps == sum(map(len, tables)) == stored
        assert len(seeds) <= most_seeds

    def test_preconditions(self):
        with pytest.raises(ValueError):
            chi_formula(ClusterContext(1), 4, 0, 0)
        with pytest.raises(ValueError):
            chi_formula(ClusterContext(2), 2, 0, 0)
        with pytest.raises(ValueError):
            chi_table_from_formula(ClusterContext(2), 2)


@st.composite
def shared_context_queries(draw):
    """(c, queries): cells of n = 3..7 in a random order, each asked for its
    value or its summands.  The cells lie on one or two trailing tops t,
    each shared by rows (n, e2) of at least two n, so rows of different
    widths fill one binomial table.  Cells leave the box on every side, and
    the tops run from negative to past a_{n-3}."""
    c = draw(st.integers(2, 5))
    ctx = ClusterContext(c)
    by_top = defaultdict(list)
    for n in range(3, 8):
        for e2 in range(-2, ctx.a(n - 2) + 3):
            by_top[c * e2 - ctx.a(n - 3)].append((n, e2))
    shared = sorted(t for t, rows in by_top.items() if len(rows) > 1)
    tops = draw(st.lists(st.sampled_from(shared), min_size=1, max_size=2))
    rows = [row for t in tops for row in by_top[t]]
    # small e1 often, where the lower indices k = e1 - s_{n-3} of two n overlap
    cell = st.sampled_from(rows).flatmap(lambda row: st.tuples(
        st.just(row[0]),
        st.one_of(st.integers(-3, 12), st.integers(-3, ctx.a(row[0] - 1) + 3)),
        st.just(row[1])))
    queries = draw(st.lists(st.tuples(cell, st.booleans()), min_size=1, max_size=40))
    return c, queries


@given(shared_context_queries())
# t = c: the (4, 1, 1) cell seeds C(c, 1) alone; the wider cell after it
# seeds C(c, 0), reads C(c, 1) and steps C(c, 2) from that stored C(c, 1),
# a value another cell computed
@example((3, [((4, 1, 1), False), ((6, 2, 2), False)]))
@example((5, [((4, 1, 1), True), ((6, 3, 2), True)]))
@settings(max_examples=100)
def test_cells_on_a_shared_context_equal_fresh_ones(case):
    # whichever cells filled a binomial table before, at whichever n, and
    # whether a cell reads it through chi_formula or chi_formula_summands,
    # each cell gets the values it gets on a context of its own
    c, queries = case
    ctx = ClusterContext(c)
    for (n, e1, e2), as_summands in queries:
        want = list(chi_formula_summands(ClusterContext(c), n, e1, e2))
        if as_summands:
            assert list(chi_formula_summands(ctx, n, e1, e2)) == want
        else:
            assert chi_formula(ctx, n, e1, e2) == sum(want)


class TestClusterVarFormula:
    def test_built_once_per_context(self, monkeypatch):
        ctx = ClusterContext(3)
        x6 = cluster_var_formula(ctx, 6)
        builds = []
        monkeypatch.setattr(closedform, "_rows", lambda *args: builds.append(args))
        monkeypatch.setattr(closedform, "LaurentPoly2", lambda *args: builds.append(args))
        assert cluster_var_formula(ctx, 6) is x6
        assert builds == []

    def test_equals_recurrence(self):
        for c, n_top in ((2, 10), (3, 7), (4, 6)):
            ctx = ClusterContext(c)
            for n in range(3, n_top + 1):
                assert cluster_var_formula(ctx, n) == cluster_var_recurrence(ctx, n)

    def test_x3_c3_direct(self):
        assert cluster_var_formula(ClusterContext(3), 3) == LaurentPoly2(
            {(-1, 0): 1, (-1, 3): 1}
        )

    def test_pure_denominator_coefficient(self):
        ctx = ClusterContext(2)
        poly = cluster_var_formula(ctx, 7)
        assert poly.coeff(-ctx.a(6), -ctx.a(5)) == 1
        assert chi_from_expansion(ctx, 7).chi(0, ctx.a(5)) == 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cluster_var_formula(ClusterContext(1), 4)
        with pytest.raises(ValueError):
            cluster_var_formula(ClusterContext(2), 2)


class TestClusterVarFormulaV2:
    def test_equals_formula(self):
        for c, n_top in ((2, 10), (3, 7), (4, 6)):
            ctx = ClusterContext(c)
            for n in range(3, n_top + 1):
                assert cluster_var_formula_v2(ctx, n) == cluster_var_formula(ctx, n)

    def test_equals_recurrence_c3_n4(self):
        ctx = ClusterContext(3)
        assert cluster_var_formula_v2(ctx, 4) == cluster_var_recurrence(ctx, 4)

    def test_x3_c2(self):
        assert cluster_var_formula_v2(ClusterContext(2), 3) == LaurentPoly2(
            {(-1, 0): 1, (-1, 2): 1}
        )
