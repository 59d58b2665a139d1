import decimal
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rank2cluster import laurent
from rank2cluster.combinat import ClusterContext
from rank2cluster.laurent import (
    ONE,
    X1,
    X2,
    InexactDivisionError,
    LaurentPoly2,
    _digits_to_int,
    _int_to_digits,
    _mul_kronecker,
    _mul_terms,
)
from rank2cluster.recurrence import cluster_var_recurrence


def poly(d):
    return LaurentPoly2(d)


small_polys = st.dictionaries(
    st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
    st.integers(-99, 99),
    max_size=8,
).map(poly)


def update_paths(monkeypatch):
    """Divide by packed rows where that path applies, then by long division alone;
    yields the path's name."""
    yield "packed"
    monkeypatch.setattr(laurent, "_packed_quotient", lambda num, den: None)
    yield "rows"


# each example picks the path itself, so the fixture may span the examples
with_monkeypatch = settings(
    suppress_health_check=[*settings.default.suppress_health_check,
                           HealthCheck.function_scoped_fixture]
)


def test_add_cancellation():
    assert X1 + (-1) * X1 == LaurentPoly2.zero()
    assert not (X1 + (-1) * X1)


def test_mul_unit_monomials():
    assert LaurentPoly2.monomial(0, -1) * X2 == ONE


def test_pow_square_of_binomial():
    p = ONE + X2**2
    assert p**2 == poly({(0, 0): 1, (0, 2): 2, (0, 4): 1})


def test_pow_negative_exponent_rejected():
    with pytest.raises(ValueError):
        X1 ** (-1)


def test_exact_div_monomial(monkeypatch):
    p = poly({(2, 1): 1, (0, 1): 1})
    for path in update_paths(monkeypatch):
        assert p.exact_div(X2) == poly({(2, 0): 1, (0, 0): 1}), path


def test_exact_div_inexact_raises_with_remainder(monkeypatch):
    # a nonzero row is left below the divisor's top row
    q = ONE + X2**2
    p = q**2 + X1**2
    for path in update_paths(monkeypatch):
        with pytest.raises(InexactDivisionError) as exc:
            p.exact_div(q)
        assert exc.value.remainder == X1**2, path


@pytest.mark.parametrize(
    "p, q, remainder",
    [
        (3 * X1, 2 * X1, 3 * X1),  # indivisible leading coefficient
        (X2 + 1, X1 * X2 + 1, ONE + X2),  # leading x1 exponent below the divisor's
    ],
)
def test_exact_div_remainder_at_each_failure_exit(p, q, remainder, monkeypatch):
    for path in update_paths(monkeypatch):
        with pytest.raises(InexactDivisionError) as exc:
            p.exact_div(q)
        assert exc.value.remainder == remainder, path


def test_exact_div_fills_rows_the_dividend_lacks(monkeypatch):
    # (1 + x2^6) / (1 + x2^2): the quotient's rows land on rows the dividend does
    # not have, and the packed attempt meets a negative row there
    p = ONE + X2**6
    for path in update_paths(monkeypatch):
        assert p.exact_div(ONE + X2**2) == ONE - X2**2 + X2**4, path


def test_exact_div_laurent_divisor(monkeypatch):
    d = X1 + LaurentPoly2.monomial(-1, 0)
    p = (ONE + X2**2) * d
    for path in update_paths(monkeypatch):
        assert p.exact_div(d) == ONE + X2**2, path


def test_exact_div_update_paths_agree_on_the_recurrence(monkeypatch):
    xs = [cluster_var_recurrence(ClusterContext(2), 30) for _ in update_paths(monkeypatch)]
    assert xs[0] == xs[1]


def spy_on_division(monkeypatch):
    """Record whether each _packed_quotient call proved its quotient, and fail on
    any _mul_terms call."""
    proved = []
    packed = laurent._packed_quotient

    def packed_spy(num, den):
        quot = packed(num, den)
        proved.append(quot is not None)
        return quot

    def no_multiply(p, q):
        raise AssertionError("exact_div called _mul_terms")

    monkeypatch.setattr(laurent, "_packed_quotient", packed_spy)
    monkeypatch.setattr(laurent, "_mul_terms", no_multiply)
    return proved


@pytest.mark.parametrize("c, n", [(2, 30), (3, 8), (4, 7), (8, 5)])
def test_exact_div_packed_path_proves_every_recurrence_step(monkeypatch, c, n):
    # x_k = (x_{k-1}^c + 1) / x_{k-2}; the products are built before the spies
    ctx = ClusterContext(c)
    xs = [None] + [cluster_var_recurrence(ctx, k) for k in range(1, n + 1)]
    steps = [(xs[k - 1] ** c + ONE, xs[k - 2], xs[k]) for k in range(3, n + 1)]
    proved = spy_on_division(monkeypatch)
    choices = []
    packs = laurent._packs_divisor_rows

    def packs_spy(rows, terms, d):
        choices.append(packs(rows, terms, d))
        return choices[-1]

    monkeypatch.setattr(laurent, "_packs_divisor_rows", packs_spy)
    for num, den, quot in steps:
        assert num.exact_div(den) == quot
    assert proved == [True] * len(steps)
    assert len(choices) == len(steps)
    if c == 2:
        # long rows of coefficients about half a slot wide: one product per row
        assert all(choices[-5:])
    else:
        # the last step's slots are many times a divisor coefficient's width, so
        # padding each coefficient to a slot costs more than a product per term saves
        assert not choices[-1]


@pytest.mark.parametrize(
    "quot, den",
    [
        (ONE + X2**2, X2 - LaurentPoly2.monomial(-1, 0)),  # a signed Laurent divisor
        (ONE + X1 * X2, 2 * X2 + 1),  # the top row 2*x2 is no unit monomial
        (ONE + X1 * X2, (2 * X1 + 1) * X2 + 1),  # nor is the top row (2*x1 + 1)*x2
    ],
    ids=["signed-laurent", "top-2x2", "top-2x1-plus-1"],
)
def test_exact_div_takes_the_row_loop_where_packing_does_not_apply(monkeypatch, quot, den):
    num = quot * den
    proved = spy_on_division(monkeypatch)
    assert num.exact_div(den) == quot
    assert proved == [False]


@pytest.mark.parametrize(
    "num, den, expected",
    [
        # the top row x1^2 + 1 has a bit below the divisor's top slot x1
        (X1**2 * X2 + X1 + X2, X1 * X2 + 1, ("remainder", X2)),
        # the quotient has a negative coefficient, which a slot shows as 2**w - 1
        (X2**2 + (X1**2 + 2) * X2 + X1**3 + 1, X2 + X1 + 1,
         ("quotient", ONE + X2 - X1 + X1**2)),
        # 8-bit slots hold max(den) * max(S, 1) = 255, S = 4 // 257 = 0, but the
        # packed rows carry (1 + x1)(1 + 255*x1) into 1 + x1^3; the decoded
        # quotient 1 + x1 sums past S
        ((1 + X1) * X2 + 1 + X1**3, X2 + 1 + 255 * X1,
         ("remainder", X1**3 - 255 * X1**2 - 256 * X1)),
        # the same carry with x1^5 times the divisor added, so that S = 1: the
        # decoded quotient 1 + x1 + x1^5 sums to 3
        ((1 + X1 + X1**5) * X2 + 1 + X1**3 + X1**5 + 255 * X1**6, X2 + 1 + 255 * X1,
         ("remainder", X1**3 - 255 * X1**2 - 256 * X1)),
        # S = 0 and max(num) = 1: the slot is sized by max(den) = 1000 alone,
        # and a packed divisor row must still hold it
        (X2 + 1, X2 + 1000 * X1, ("remainder", 1 - 1000 * X1)),
    ],
    ids=["bits-below-top-slot", "negative-quotient-coefficient", "carry-past-max-den",
         "quotient-sum-past-shadow", "divisor-wider-than-dividend"],
)
def test_packed_path_refuses_what_it_cannot_prove(monkeypatch, num, den, expected):
    # each case fools packed arithmetic that drops one condition of its proof;
    # the packed path refuses it with packed divisor rows and with scalar terms
    proved = spy_on_division(monkeypatch)
    for packs in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laurent, "_packs_divisor_rows", lambda *args: packs)
            for path in update_paths(mp):
                try:
                    outcome = ("quotient", num.exact_div(den))
                except InexactDivisionError as exc:
                    outcome = ("remainder", exc.remainder)
                assert outcome == expected, (packs, path)
    assert proved == [False, False]  # the spy sees the packed path only


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(LaurentPoly2.zero())


def test_eval_examples():
    assert (ONE + X2**2).eval_exact(1, 1) == 2
    p = LaurentPoly2.monomial(-1, 0) * (ONE + X2**2)
    assert p.eval_exact(1, 1) == 2
    assert p.eval_exact(2, 1) == Fraction(1, 1)
    assert p.eval_exact(2, 3) == Fraction(10, 2)


def test_eval_zero_at_negative_exponent_rejected():
    p = LaurentPoly2.monomial(-1, 0)
    with pytest.raises(ValueError):
        p.eval_exact(0, 1)
    # nonnegative exponents are fine at zero
    assert (ONE + X1).eval_exact(0, 5) == 1


def test_non_integer_terms_rejected():
    # a float coefficient would be stored as a zero term, a float exponent truncated
    with pytest.raises(TypeError):
        LaurentPoly2({(0, 0): 0.5})
    with pytest.raises(TypeError):
        LaurentPoly2({(0.7, 0): 1})


def test_coeff_and_support():
    p = poly({(0, 0): 1, (0, 2): 2})
    assert p.coeff(0, 2) == 2
    assert p.coeff(1, 0) == 0
    q = LaurentPoly2.monomial(-1, 0) + X2
    assert [k for k, _ in q.items()] == [(-1, 0), (0, 1)]


def test_repr_of_small_values_is_the_dict_form_and_evals_back():
    p = LaurentPoly2({(1, -2): 3, (0, 0): -1})
    assert repr(p) == "LaurentPoly2({(1, -2): 3, (0, 0): -1})"
    assert eval(repr(p)) == p
    assert repr(LaurentPoly2.zero()) == "LaurentPoly2({})"


def test_rsub_of_an_integer():
    assert 3 - X1 == poly({(0, 0): 3, (1, 0): -1})
    assert 0 - ONE == -ONE


def test_rsub_of_a_float_names_the_subtraction():
    with pytest.raises(TypeError, match="for -"):
        1.5 - X1


@pytest.mark.parametrize(
    "op, exc",
    [
        (lambda p: p.exact_div(1.5), TypeError),
        (lambda p: p + 1.5, TypeError),
        (lambda p: p * 1.5, TypeError),
        (lambda p: LaurentPoly2.zero().min_exponents(), ValueError),
    ],
    ids=["exact_div-float", "add-float", "mul-float", "min_exponents-zero"],
)
def test_invalid_operands_rejected(op, exc):
    with pytest.raises(exc):
        op(ONE + X1)


@pytest.mark.parametrize(
    "other, equal", [(3, True), (4, False), ("x", False)], ids=["3", "4", "str"]
)
def test_eq_against_non_polynomials(other, equal):
    assert (LaurentPoly2.constant(3) == other) is equal


def test_str_rendering():
    assert str(LaurentPoly2.zero()) == "0"
    p = LaurentPoly2.monomial(-1, 0) + LaurentPoly2.monomial(-1, 2)
    assert str(p) == "x1^-1 + x1^-1*x2^2"
    assert str(poly({(0, 0): -3, (1, 1): 1})) == "-3 + x1*x2"


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@with_monkeypatch
@given(small_polys, small_polys)
def test_mul_round_trips_through_exact_div(monkeypatch, p, q):
    if not q:
        return
    for path in update_paths(monkeypatch):
        assert (p * q).exact_div(q) == p, path


@with_monkeypatch
@given(small_polys, small_polys)
def test_exact_div_succeeds_or_reports_a_true_remainder(monkeypatch, p, q):
    # either q divides p, or p - remainder is a multiple of q
    if not q:
        return
    for path in update_paths(monkeypatch):
        try:
            quot = p.exact_div(q)
        except InexactDivisionError as exc:
            r = exc.remainder
            assert r, path
            (p - r).exact_div(q)
        else:
            assert quot * q == p, path


@with_monkeypatch
@given(small_polys, small_polys, st.integers(1, 4), st.integers(1, 4))
def test_products_and_quotients_commute_with_substitution(monkeypatch, p, q, a, b):
    # sigma: x1 -> x1^a, x2 -> x2^b spreads both operands over a coarser exponent
    # lattice, which the multiply and both divisions compress away and restore
    def sigma(f):
        return poly({(d1 * a, d2 * b): v for (d1, d2), v in f.items()})

    assert sigma(p) * sigma(q) == sigma(p * q)
    if not q:
        return
    for path in update_paths(monkeypatch):
        for num in (p, p * q):
            try:
                expected = ("quotient", sigma(num.exact_div(q)))
            except InexactDivisionError as exc:
                expected = ("remainder", sigma(exc.remainder))
            try:
                outcome = ("quotient", sigma(num).exact_div(sigma(q)))
            except InexactDivisionError as exc:
                outcome = ("remainder", exc.remainder)
            assert outcome == expected, path


def leading(p):
    """The leading term of p in (x2, x1) order, as ((d2, d1), coefficient)."""
    return max(((d2, d1), v) for (d1, d2), v in p.items())


@with_monkeypatch
@given(small_polys, small_polys)
def test_exact_div_stops_at_the_first_term_it_cannot_divide(monkeypatch, p, q):
    # r = p passes the test above.  Here the remainder's leading term, in the
    # dividend's shifted coordinates, is one the divisor's leading term cannot
    # take: a row below the divisor's top row, an x1 degree below its leading one,
    # or a coefficient its leading coefficient does not divide.  It is also the
    # first such term: every term of the partial quotient leads above it.
    if not p or not q:
        return
    s1p, s2p = p.min_exponents()
    s1q, s2q = q.min_exponents()
    (l2, l1), lb = leading(q)
    for path in update_paths(monkeypatch):
        try:
            p.exact_div(q)
        except InexactDivisionError as exc:
            r = exc.remainder
            (r2, r1), v = leading(r)
            assert r2 - s2p < l2 - s2q or r1 - s1p < l1 - s1q or v % lb, path
            partial = (p - r).exact_div(q)
            assert all((f2 + l2, f1 + l1) > (r2, r1) for (f1, f2), _ in partial.items()), path


# nonnegative coefficients, with values at the edges of byte-wide slots and
# past the interpreter's 4300-digit limit
slot_edge_coeffs = st.one_of(
    st.integers(0, 99),
    st.builds(lambda k, d: 2 ** (8 * k) + d,
              st.integers(1, 9), st.sampled_from((-1, 0, 1))),
    st.builds(lambda d: 7 * 10**4400 + d, st.integers(0, 9)),
)
nonneg_polys = st.dictionaries(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), slot_edge_coeffs,
    min_size=1, max_size=8,
).map(poly).filter(bool)


@st.composite
def unit_top_divisors(draw):
    """A nonnegative divisor whose top x2 row is one monomial with coefficient 1."""
    d1, d2 = draw(st.integers(-6, 6)), draw(st.integers(-4, 6))
    lower = draw(st.dictionaries(
        st.tuples(st.integers(-6, 6), st.integers(-6, d2 - 1)), slot_edge_coeffs, max_size=6
    ))
    return poly({**lower, (d1, d2): 1})


@given(nonneg_polys, unit_top_divisors(), st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       st.integers(1, 2**70))
def test_packed_path_proves_exact_quotients_and_defers_the_rest(a, b, at, v):
    num = poly(schoolbook(a._terms, b._terms))  # cheaper than the Kronecker multiply here
    p = num + LaurentPoly2.monomial(*at, v)
    with pytest.MonkeyPatch.context() as mp:
        proved = spy_on_division(mp)
        assert num.exact_div(b) == a
        assert proved == [True]
    # one positive monomial more: the same quotient, or the same remainder, on both paths
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        for _ in update_paths(mp):
            try:
                outcomes.append(("quotient", p.exact_div(b)))
            except InexactDivisionError as exc:
                outcomes.append(("remainder", exc.remainder))
    assert outcomes[0] == outcomes[1]


# near the edges of byte-wide slots, where a product's carry reaches the next slot
near_slot_coeffs = st.one_of(
    st.integers(1, 3),
    st.builds(lambda k, d: 2 ** (8 * k) + d, st.integers(1, 5), st.sampled_from((-1, 0, 1))),
)


@st.composite
def dense_rows(draw, rows):
    """Term map of long rows of consecutive x1 exponents, one per x2 degree in rows."""
    terms = {}
    for e2 in rows:
        lo, length = draw(st.integers(0, 3)), draw(st.integers(1, 12))
        for e1 in range(lo, lo + length):
            terms[e1, e2] = draw(near_slot_coeffs)
    return terms


def row_maps(terms):
    """{x2 degree: {x1 degree: coefficient}}, shifted as exact_div shifts."""
    s1 = min(d1 for d1, _ in terms)
    s2 = min(d2 for _, d2 in terms)
    rows = {}
    for (d1, d2), v in terms.items():
        rows.setdefault(d2 - s2, {})[d1 - s1] = v
    return rows


@given(st.integers(1, 4).flatmap(lambda k: dense_rows(range(k))),
       st.integers(1, 4).flatmap(lambda k: dense_rows(range(k))),
       st.integers(0, 3), st.tuples(st.integers(0, 20), st.integers(0, 8)), near_slot_coeffs)
@settings(max_examples=150, deadline=None)
def test_packed_divisor_rows_and_scalar_terms_agree(a, lower, top, at, v):
    # the divisor's top row is x1^top with coefficient 1, one x2 degree above its
    # dense lower rows; exact, and one monomial off, both ways of subtracting the
    # divisor find the same quotient or refuse alike
    den = {**lower, (top, max(d2 for _, d2 in lower) + 1): 1}
    num = schoolbook(a, den)
    off = dict(num)
    off[at] = off.get(at, 0) + v
    for terms, exact in ((num, True), (off, False)):
        outcomes = []
        for packs in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(laurent, "_packs_divisor_rows", lambda *args: packs)
                outcomes.append(laurent._packed_quotient(row_maps(terms), row_maps(den)))
        assert outcomes[0] == outcomes[1]
        if exact:
            s1, s2 = poly(a).min_exponents()
            assert outcomes[0] == {(d1 - s1, d2 - s2): u for (d1, d2), u in a.items()}


@given(small_polys, st.integers(0, 6))
@settings(max_examples=40)
def test_pow_is_repeated_mul(p, k):
    by_mul = ONE
    for _ in range(k):
        by_mul = by_mul * p
    assert p**k == by_mul


def schoolbook(p, q):
    out = {}
    for (a1, a2), u in p.items():
        for (b1, b2), v in q.items():
            k = (a1 + b1, a2 + b2)
            out[k] = out.get(k, 0) + u * v
    return {k: v for k, v in out.items() if v}


signed_terms = st.dictionaries(
    st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
    st.integers(-(10**30), 10**30).filter(bool),
    max_size=8,
)


@given(
    signed_terms,
    signed_terms,
    st.sampled_from(["drawn", "p-negative", "negative", "square"]),
)
def test_mul_terms_matches_schoolbook_on_signed_terms(p, q, shape):
    if shape in ("p-negative", "negative"):
        p = {k: -abs(v) for k, v in p.items()}
    if shape == "negative":
        q = {k: -abs(v) for k, v in q.items()}
    if shape == "square":
        q = p
    assert _mul_terms(p, q) == schoolbook(p, q)


@pytest.mark.parametrize("m", [0, 1, 2, 7, 59])
def test_mul_terms_cancelling_product(m):
    # (1 - x1)(1 + x1 + ... + x1^m) = 1 - x1^(m+1): every inner term cancels
    p = {(0, 0): 1, (1, 0): -1}
    q = {(i, 0): 1 for i in range(m + 1)}
    expected = {(0, 0): 1, (m + 1, 0): -1}
    assert _mul_terms(p, q) == expected
    assert _mul_terms(q, p) == expected


def test_mul_terms_signed_wider_than_safe_digits():
    # coefficients of 700 digits, past the 640 that _int_to_digits prints at once
    rng = random.Random(6)
    wide = 10**700

    def coeff(scale):
        return rng.choice((-1, 1)) * (scale * wide + rng.randint(0, 10**9))

    p = {(i, j): coeff(1) for i in range(3) for j in range(3)}
    q = {(i, -j): coeff(2) for i in range(4) for j in range(2)}
    assert _mul_terms(p, q) == schoolbook(p, q)
    assert _mul_terms(p, p) == schoolbook(p, p)


def test_signed_square_shares_its_parts(monkeypatch):
    # a signed square splits its operand once, so each same-sign product hands
    # the kernel one operand twice and encodes it once
    same = []

    def spy(p, q):
        same.append(p is q)
        return _mul_kronecker(p, q)

    monkeypatch.setattr(laurent, "_mul_kronecker", spy)
    p = {(0, 0): 2, (1, 0): -3, (0, 1): 5}
    assert _mul_terms(p, p) == schoolbook(p, p)
    assert same == [True, False, False, True]
    same.clear()
    q = dict(p)
    assert _mul_terms(p, q) == schoolbook(p, q)
    assert same == [False] * 4


def random_terms(rng, size, step, span=40):
    def exponent():
        return rng.randint(-span, span) * step

    return {(exponent(), exponent()): rng.randint(1, 10**12) for _ in range(size)}


@pytest.mark.parametrize("step", [2, 1])
def test_kronecker_mul_matches_schoolbook_on_large_operands(step):
    # step 2 puts both operands on a gcd-compressed lattice; both steps
    # reach negative exponents
    rng = random.Random(step)
    for _ in range(3):
        p = random_terms(rng, 150, step)
        q = random_terms(rng, 150, step)
        expected = schoolbook(p, q)
        assert _mul_kronecker(p, q) == expected
        assert _mul_terms(p, q) == expected


def test_kronecker_mul_one_term_operand():
    rng = random.Random(1)
    q = {(i, -j): rng.randint(1, 10**6) for i in range(100) for j in range(100)}
    p = {(-3, 5): 7}
    expected = {(d1 - 3, d2 + 5): 7 * v for (d1, d2), v in q.items()}
    assert _mul_kronecker(p, q) == expected
    assert _mul_kronecker(q, p) == expected
    assert _mul_terms(p, q) == expected


def test_kronecker_square_of_one_operand():
    rng = random.Random(2)
    p = random_terms(rng, 200, 1)
    expected = schoolbook(p, p)
    assert _mul_kronecker(p, p) == expected
    assert (LaurentPoly2(p) ** 2)._terms == expected


def test_kronecker_mul_wider_than_int_str_limit():
    # str(10**5000) is refused under the interpreter's default digit limit
    # (4300); the digit blocks must be built and read without it
    rng = random.Random(3)
    wide = 10**5000
    p = {(i, j): wide + rng.randint(0, 10**9) for i in range(3) for j in range(4)}
    q = {(i, j): 3 * wide + rng.randint(0, 10**9) for i in range(2) for j in (0, 2, 4)}
    assert _mul_kronecker(p, q) == schoolbook(p, q)
    v = 7 * 10**9000 + 12345
    assert _digits_to_int(_int_to_digits(v)) == v
    assert _digits_to_int("000" + _int_to_digits(v)) == v


def test_text_forms_of_values_wider_than_int_str_limit():
    # str(10**5000) is refused under the default digit limit; printing,
    # repr and parsing a polynomial must not be, and must not change that limit
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)  # 3.10.7+
    limit = get_limit()
    big = 10**5000
    digits = "1" + "0" * 5000
    p = LaurentPoly2({(0, 0): big, (1, -1): -big})
    assert str(p) == f"{digits} - {digits}*x1*x2^-1"
    assert repr(p) == f"LaurentPoly2({{(0, 0): {digits}, (1, -1): -{digits}}})"
    for v in (big, -big, -7 * 10**9000 - 12345):
        assert _digits_to_int(_int_to_digits(v)) == v
    assert _digits_to_int("+" + digits) == big
    assert _digits_to_int("-000" + digits) == -big
    assert get_limit() == limit


def test_kronecker_mul_ignores_caller_decimal_context():
    rng = random.Random(4)
    p = random_terms(rng, 150, 1)
    q = random_terms(rng, 150, 1)
    expected = schoolbook(p, q)
    with decimal.localcontext() as caller:
        caller.prec = 5
        caller.clear_traps()
        caller.clear_flags()
        assert (LaurentPoly2(p) * LaurentPoly2(q))._terms == expected
        assert caller.prec == 5
        assert not any(caller.flags.values())
        assert not any(caller.traps.values())


def test_concurrent_squares_match_serial():
    # the README states LaurentPoly2 values are safe to share across threads
    rng = random.Random(5)
    polys = [LaurentPoly2(random_terms(rng, 150, 1 + i % 2)) for i in range(4)]
    serial = [p**2 for p in polys]
    barrier = threading.Barrier(len(polys))
    results = [None] * len(polys)

    def square(i):
        barrier.wait(timeout=60)
        results[i] = polys[i] ** 2

    threads = [threading.Thread(target=square, args=(i,)) for i in range(len(polys))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside encode and decode
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial
