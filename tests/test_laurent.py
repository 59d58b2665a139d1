import decimal
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rank2cluster import laurent
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


def poly(d):
    return LaurentPoly2(d)


small_polys = st.dictionaries(
    st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
    st.integers(-99, 99),
    max_size=8,
).map(poly)


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


def test_exact_div_monomial():
    p = poly({(2, 1): 1, (0, 1): 1})
    assert p.exact_div(X2) == poly({(2, 0): 1, (0, 0): 1})


def test_exact_div_inexact_raises_with_remainder():
    # a nonzero row is left below the divisor's top row
    q = ONE + X2**2
    p = q**2 + X1**2
    with pytest.raises(InexactDivisionError) as exc:
        p.exact_div(q)
    assert exc.value.remainder == X1**2


@pytest.mark.parametrize(
    "p, q, remainder",
    [
        (3 * X1, 2 * X1, 3 * X1),  # indivisible leading coefficient
        (X2 + 1, X1 * X2 + 1, ONE + X2),  # leading x1 exponent below the divisor's
    ],
)
def test_exact_div_remainder_at_each_failure_exit(p, q, remainder):
    with pytest.raises(InexactDivisionError) as exc:
        p.exact_div(q)
    assert exc.value.remainder == remainder


def test_exact_div_laurent_divisor():
    d = X1 + LaurentPoly2.monomial(-1, 0)
    p = (ONE + X2**2) * d
    assert p.exact_div(d) == ONE + X2**2


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


@given(small_polys, small_polys)
def test_mul_round_trips_through_exact_div(p, q):
    if not q:
        return
    assert (p * q).exact_div(q) == p


@given(small_polys, small_polys)
def test_exact_div_succeeds_or_reports_a_true_remainder(p, q):
    # either q divides p, or p - remainder is a multiple of q
    if not q:
        return
    try:
        quot = p.exact_div(q)
    except InexactDivisionError as exc:
        r = exc.remainder
        assert r
        (p - r).exact_div(q)
    else:
        assert quot * q == p


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
