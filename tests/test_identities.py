import random
from fractions import Fraction

import pytest

from rank2cluster.closedform import chi_formula
from rank2cluster.combinat import ClusterContext, mod_binom
from rank2cluster import identities
from rank2cluster.identities import (
    RationalPoly,
    staged_chi_sum,
    vandermonde_sides,
    vanishing_check,
)
from rank2cluster.recurrence import chi_from_expansion


def unpruned_staged_sum(ctx, n, e1, e2, stage):
    """Stages -1..n-5 as staged_chi_sum computed them before its weight
    loops took bounds from the leaf window: a loop ends only at the cap on
    the final weighted sum, at a nonnegative trailing top, or, when the
    first leaf binomial has top 0, at the pinned next-to-last partial sum.
    """
    c = ctx.c
    j = stage
    m = n - j - 4  # number of weight variables, >= 1 here
    a = ctx.a
    aj1 = a(j + 1)
    aj2 = a(j + 2)
    pair1 = e2 * a(n - 2 - j) - e1 * a(n - 3 - j)
    pair2 = e2 * a(n - 1 - j) - e1 * a(n - 2 - j)
    # weight k enters the final partial sum with coefficient coefs[k];
    # tconst[k] - c*v_k is the top of the trailing factor attached to w_k
    coefs = [0] + [a(n - 2 - j - k) for k in range(1, m + 1)]
    tconst = [0] + [
        -a(n - k - 2) + c * (e2 * a(k + 1) - e1 * a(k)) for k in range(1, m + 1)
    ]
    top2base = -aj1 + c * pair1

    def w_sum(sj, sj1):
        cap = pair1 - sj  # final weighted sum must not exceed this
        if cap < 0:
            return 0
        a1 = aj2 - c * sj1
        vlo = cap - a1 if a1 >= 0 else 0
        b1base = a1 + sj - pair1
        bot2base = sj1 - aj1 + pair2

        def rec(k, vprev, vcur, dot, prod):
            tk = tconst[k] - c * vcur
            if k == m:
                # last weight has coefficient 1: solve its window directly
                base = c * vcur - vprev
                w_lo = vlo - base
                if w_lo < 0:
                    w_lo = 0
                w_hi = cap - dot
                if 0 <= tk < w_hi:
                    w_hi = tk
                acc = 0
                for w in range(w_lo, w_hi + 1):
                    tf = mod_binom(tk, tk - w)
                    if not tf:
                        continue
                    vfin = base + w
                    b1 = mod_binom(a1, b1base + vfin)
                    if not b1:
                        continue
                    b2 = mod_binom(
                        top2base - c * vfin, bot2base - (c * vfin - vcur)
                    )
                    if b2:
                        acc += tf * b1 * b2
                return acc * prod
            coef = coefs[k]
            w_hi = (cap - dot) // coef
            if 0 <= tk < w_hi:
                w_hi = tk
            acc = 0
            if k == m - 1 and a1 == 0:
                # final sum is pinned to cap, so the second binomial pins
                # the next-to-last partial sum to a short window too
                a2 = top2base - c * cap
                if a2 >= 0:
                    vm_lo = c * cap - bot2base
                    vm_hi = vm_lo + a2
                    base = c * vcur - vprev
                    lo = vm_lo - base
                    if lo < 0:
                        lo = 0
                    hi = vm_hi - base
                    if hi > w_hi:
                        hi = w_hi
                    for w in range(lo, hi + 1):
                        tf = mod_binom(tk, tk - w)
                        if tf:
                            acc += rec(
                                k + 1, vcur, base + w, dot + coef * w, prod * tf
                            )
                    return acc
            for w in range(w_hi + 1):
                tf = mod_binom(tk, tk - w)
                if tf:
                    acc += rec(
                        k + 1, vcur, c * vcur - vprev + w, dot + coef * w, prod * tf
                    )
            return acc

        return rec(1, 0, 0, 0, 1)

    if j == -1:
        return w_sum(0, 0)

    total = 0

    def trec(i, prod, sprev, scur):
        nonlocal total
        if i == j + 1:
            total += prod * w_sum(sprev, scur)
            return
        top = a(i + 1) - c * scur
        for t in range(top + 1):
            trec(i + 1, prod * mod_binom(top, t), scur, c * scur - sprev + t)

    trec(0, 1, 0, 0)
    return total


class TestVandermonde:
    def test_plain_convolution(self):
        lhs, rhs = vandermonde_sides(2, 1, 1, RationalPoly.from_coeffs([1]))
        assert lhs == rhs == 3

    def test_negative_argument_weighted(self):
        # independent evaluation: the a >= 0 factor limits w to [0, 3]
        poly = RationalPoly.from_coeffs([0, 1])  # P(w) = w
        want_lhs = sum(
            Fraction(w) * mod_binom(3, w) * mod_binom(-1, 1 - w) for w in range(0, 4)
        )
        want_rhs = sum(
            Fraction(w) * mod_binom(3, 3 - w) * mod_binom(-1, -1 - 1 + w)
            for w in range(0, 4)
        )
        lhs, rhs = vandermonde_sides(3, -1, 1, poly)
        assert (lhs, rhs) == (want_lhs, want_rhs)
        assert lhs == rhs

    def test_single_term(self):
        assert vandermonde_sides(0, 0, 0, RationalPoly.from_coeffs([1])) == (1, 1)

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            vandermonde_sides(-3, -1, 0, RationalPoly.from_coeffs([1]))
        with pytest.raises(ValueError):
            vandermonde_sides(5, 5, 0, RationalPoly.from_coeffs([]))
        with pytest.raises(ValueError):
            vandermonde_sides(1, 1, 0, RationalPoly.from_coeffs([1, 1, 1, 1]))

    def test_randomized_exact_equality(self):
        rng = random.Random(0)
        done = 0
        while done < 120:
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
            assert lhs == rhs
            done += 1


class TestRationalPoly:
    def test_degree_and_eval(self):
        p = RationalPoly.from_coeffs([Fraction(1, 2), 0, 3])
        assert p.degree == 2
        assert p(2) == Fraction(1, 2) + 12

    def test_trailing_zeros_stripped(self):
        assert RationalPoly.from_coeffs([1, 0, 0]).degree == 0
        assert RationalPoly.from_coeffs([]).degree == -1


class TestStagedSums:
    def test_final_stage_equals_cell_value(self):
        ctx = ClusterContext(2)
        want = chi_formula(ctx, 5, 1, 1)
        assert staged_chi_sum(ctx, 5, 1, 1, 1) == want
        assert chi_from_expansion(ctx, 5).chi(1, 1) == want

    def test_first_stage_equals_final_stage(self):
        ctx = ClusterContext(2)
        assert staged_chi_sum(ctx, 5, 1, 1, -1) == staged_chi_sum(ctx, 5, 1, 1, 1)

    def test_stage_minus_one_vanishes_on_negative_pairing(self):
        ctx = ClusterContext(2)
        assert staged_chi_sum(ctx, 4, 1, 0, -1) == 0

    def test_invariance_small_grid(self):
        for c, n in ((2, 5), (2, 6), (3, 5)):
            ctx = ClusterContext(c)
            an1, an2 = ctx.a(n - 1), ctx.a(n - 2)
            table = chi_from_expansion(ctx, n)
            for e1 in range(an1 + 1):
                for e2 in range(an2 + 1):
                    vals = {
                        staged_chi_sum(ctx, n, e1, e2, j) for j in range(-1, n - 3)
                    }
                    assert vals == {table.chi(e1, e2)}

    def test_c1_small_indices_allowed(self):
        ctx = ClusterContext(1)
        for n in (4, 5):
            for e1 in range(-2, 3):
                for e2 in range(-2, 3):
                    vals = {staged_chi_sum(ctx, n, e1, e2, j) for j in range(-1, n - 3)}
                    assert len(vals) == 1

    @pytest.mark.parametrize("c, n_top", [(1, 5), (2, 8), (3, 6), (4, 6), (5, 5)])
    def test_pruned_loops_match_unpruned(self, c, n_top):
        # (3, 7) is left to acceptance criterion 07
        ctx = ClusterContext(c)
        for n in range(4, n_top + 1):
            an1, an2 = ctx.a(n - 1), ctx.a(n - 2)
            for e1 in range(-2, an1 + 3):
                for e2 in range(-2, an2 + 3):
                    for j in range(-1, n - 4):
                        assert staged_chi_sum(ctx, n, e1, e2, j) == (
                            unpruned_staged_sum(ctx, n, e1, e2, j)
                        ), (n, e1, e2, j)

    def test_c1_large_index_rejected(self):
        with pytest.raises(ValueError):
            staged_chi_sum(ClusterContext(1), 6, 0, 0, -1)

    def test_stage_range_validated(self):
        ctx = ClusterContext(2)
        with pytest.raises(ValueError):
            staged_chi_sum(ctx, 5, 0, 0, 2)
        with pytest.raises(ValueError):
            staged_chi_sum(ctx, 5, 0, 0, -2)


class TestVanishing:
    def test_examples(self):
        assert vanishing_check(ClusterContext(2), 4, 1, 0) is True
        assert vanishing_check(ClusterContext(3), 5, 2, 0) is True
        assert vanishing_check(ClusterContext(1), 5, 1, 0) is True

    def test_nonzero_staged_sum_fails(self, monkeypatch):
        # the cell sum is 0 by its own guard under the hypothesis, so only the
        # stages 0..n-5 give the check content
        real = identities.staged_chi_sum
        monkeypatch.setattr(
            identities, "staged_chi_sum",
            lambda ctx, n, e1, e2, stage: 1 if stage == 0 else real(ctx, n, e1, e2, stage),
        )
        assert vanishing_check(ClusterContext(3), 5, 2, 0) is False
        assert vanishing_check(ClusterContext(1), 5, 1, 0) is False
        assert vanishing_check(ClusterContext(2), 4, 1, 0) is True  # no stage 0 at n = 4

    def test_hypothesis_required(self):
        with pytest.raises(ValueError):
            vanishing_check(ClusterContext(2), 4, 0, 0)

    def test_randomized_negative_pairing(self):
        rng = random.Random(3)
        for c in (1, 2, 3):
            ctx = ClusterContext(c)
            for n in (4, 5, 6, 7):
                an1, an2 = ctx.a(n - 1), ctx.a(n - 2)
                span = max(abs(an1), abs(an2), 4)
                done = 0
                while done < 40:
                    e1 = rng.randint(-2 * span, 2 * span)
                    e2 = rng.randint(-2 * span, 2 * span)
                    if e2 * an1 - e1 * an2 >= 0:
                        continue
                    assert vanishing_check(ctx, n, e1, e2)
                    done += 1
