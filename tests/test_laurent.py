import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rank2cluster.laurent import (
    ONE,
    X1,
    X2,
    InexactDivisionError,
    LaurentPoly2,
    _mul_packed,
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
    assert (X1 + (-1) * X1).is_zero()


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
    q = ONE + X2**2
    p = q**2 + X1**2
    with pytest.raises(InexactDivisionError) as exc:
        p.exact_div(q)
    assert exc.value.remainder == X1**2


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
    assert q.support() == [(-1, 0), (0, 1)]


def test_json_round_trip_and_order():
    p = poly({(1, -2): 3, (-1, 0): 12345678901234567890, (1, 2): -4})
    records = p.to_json_terms()
    assert records == sorted(records, key=lambda r: (r["d1"], r["d2"]))
    assert all(isinstance(r["coeff"], str) for r in records)
    assert LaurentPoly2.from_json_terms(json.loads(json.dumps(records))) == p


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
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


@given(small_polys, st.integers(0, 6))
@settings(max_examples=40)
def test_pow_is_repeated_mul(p, k):
    by_mul = ONE
    for _ in range(k):
        by_mul = by_mul * p
    assert p**k == by_mul


def test_packed_mul_matches_naive_above_threshold():
    rng = random.Random(0)
    for trial in range(3):
        p = {
            (rng.randint(-40, 40) * 2, rng.randint(-40, 40) * 2): rng.randint(1, 10**12)
            for _ in range(150)
        }
        q = {
            (rng.randint(-40, 40) * 2, rng.randint(-40, 40) * 2): rng.randint(1, 10**12)
            for _ in range(150)
        }
        assert len(p) * len(q) >= 10_000  # exercises the packed path
        naive = {}
        for (a1, a2), u in p.items():
            for (b1, b2), v in q.items():
                k = (a1 + b1, a2 + b2)
                naive[k] = naive.get(k, 0) + u * v
        naive = {k: v for k, v in naive.items() if v}
        assert _mul_packed(p, q) == naive
        assert _mul_terms(p, q) == naive
