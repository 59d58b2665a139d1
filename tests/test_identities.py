import random
from fractions import Fraction

import pytest

from rank2cluster.closedform import chi_formula
from rank2cluster.combinat import ClusterContext, mod_binom
from rank2cluster.identities import (
    RationalPoly,
    staged_chi_sum,
    vandermonde_sides,
    vanishing_check,
)
from rank2cluster.recurrence import chi_from_expansion


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
