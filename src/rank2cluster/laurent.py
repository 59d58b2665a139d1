"""Sparse exact Laurent polynomials in two variables over the integers.

Values are immutable once constructed, stored as a map from exponent pairs
(d1, d2) to nonzero integer coefficients.  All arithmetic is exact; there
is no floating point anywhere.

Every product goes through one Kronecker substitution: each operand is
written as a single decimal number, one fixed-width digit block per cell of
its gcd-compressed exponent lattice, and the two numbers are multiplied
once by the stdlib `decimal` module, whose libmpdec core uses a
number-theoretic transform at large sizes (Harvey, arXiv:0712.4046).  The
multiply runs in a private `decimal.Context` with maximal precision that
traps `Inexact` and `Rounded`, so it is exact or raises; the caller's
thread context is neither read nor changed.  A signed operand is split into
its positive part and its negated negative part, and the products of the
parts are added with their signs.
"""
from __future__ import annotations

from decimal import (
    MAX_EMAX,
    MAX_PREC,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Rounded,
)
from fractions import Fraction
from math import gcd
from operator import index


class InexactDivisionError(ArithmeticError):
    """Raised when a quotient does not exist as an integer Laurent polynomial.

    The offending remainder (in original Laurent coordinates) is attached
    as `.remainder`.
    """

    def __init__(self, message: str, remainder: "LaurentPoly2"):
        super().__init__(message)
        self.remainder = remainder


class LaurentPoly2:
    """Immutable bivariate Laurent polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """Exponents and coefficients must be integers (TypeError otherwise)."""
        clean = {}
        if terms:
            for (d1, d2), v in dict(terms).items():
                key, v = (index(d1), index(d2)), index(v)
                if v:
                    clean[key] = v
        self._terms = clean

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls()

    @classmethod
    def constant(cls, v: int) -> "LaurentPoly2":
        return cls({(0, 0): v})

    @classmethod
    def monomial(cls, d1: int, d2: int, coeff: int = 1) -> "LaurentPoly2":
        return cls({(d1, d2): coeff})

    @classmethod
    def _raw(cls, terms: dict) -> "LaurentPoly2":
        # internal: terms already canonical (no zeros, int keys/values)
        out = object.__new__(cls)
        out._terms = terms
        return out

    # -- queries ---------------------------------------------------------------

    def coeff(self, d1: int, d2: int) -> int:
        return self._terms.get((d1, d2), 0)

    def items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self._terms.items())

    def num_terms(self) -> int:
        return len(self._terms)

    def min_exponents(self) -> tuple[int, int]:
        """Componentwise minimum of the support; undefined for zero."""
        if not self._terms:
            raise ValueError("zero polynomial has no support")
        return (min(d1 for d1, _ in self._terms), min(d2 for _, d2 in self._terms))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly2.constant(other)
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    # -- ring operations -------------------------------------------------------

    def __add__(self, other) -> "LaurentPoly2":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for k, v in other._terms.items():
            nv = out.get(k, 0) + v
            if nv:
                out[k] = nv
            else:
                del out[k]
        return LaurentPoly2._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2._raw({k: -v for k, v in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly2":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentPoly2._raw(_mul_terms(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly2":
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
        if not k:
            return LaurentPoly2.constant(1)
        base = self._terms
        while not k & 1:
            base = _mul_terms(base, base)
            k >>= 1
        # start from the lowest set bit's power, not from a product with 1
        result = base
        k >>= 1
        while k:
            base = _mul_terms(base, base)
            if k & 1:
                result = _mul_terms(result, base)
            k >>= 1
        return LaurentPoly2._raw(result)

    # -- exact division ----------------------------------------------------------

    def exact_div(self, other: "LaurentPoly2") -> "LaurentPoly2":
        """Quotient q with q * other == self, or InexactDivisionError.

        Both operands are shifted by monomials into ordinary polynomials and
        split once into rows by x2 degree.  The remainder's rows are taken
        from the top down to the divisor's top row; each is reduced in place
        by that top row, leading x1 term first, into one quotient row, whose
        product with the divisor's lower rows is subtracted from the rows
        below.  Anything left, self minus the partial quotient times the
        divisor, is raised as the error's `.remainder`.
        """
        other = _coerce(other)
        if other is NotImplemented or not isinstance(other, LaurentPoly2):
            raise TypeError("divisor must be a Laurent polynomial or integer")
        if not other._terms:
            raise ZeroDivisionError("division by zero polynomial")
        if not self._terms:
            return LaurentPoly2.zero()

        # the shift keeps exponents small cached ints; raw ones ran 10-20 % slower
        s1p, s2p = self.min_exponents()
        s1q, s2q = other.min_exponents()
        rem: dict[int, dict[int, int]] = {}
        for (d1, d2), v in self._terms.items():
            rem.setdefault(d2 - s2p, {})[d1 - s1p] = v
        lower: dict[int, dict[int, int]] = {}
        for (d1, d2), v in other._terms.items():
            lower.setdefault(d2 - s2q, {})[d1 - s1q] = v
        dq = max(lower)
        top = lower.pop(dq)
        db = max(top)
        lb = top[db]

        sh1, sh2 = s1p - s1q, s2p - s2q
        out = {}
        for dr in range(max(rem), dq - 1, -1):
            row = rem.pop(dr, None)
            if row is None:
                continue
            f = {}
            while row:
                da = max(row)
                q, r = divmod(row[da], lb)
                if da < db or r:
                    break
                f[da - db] = q
                for e1, v in top.items():
                    key = e1 + da - db
                    nv = row.get(key, 0) - q * v
                    if nv:
                        row[key] = nv
                    else:
                        del row[key]
            for e2, drow in lower.items():
                tgt = rem.setdefault(e2 + dr - dq, {})
                for e1, v in drow.items():
                    for f1, fv in f.items():
                        key = e1 + f1
                        nv = tgt.get(key, 0) - fv * v
                        if nv:
                            tgt[key] = nv
                        else:
                            del tgt[key]
                if not tgt:
                    del rem[e2 + dr - dq]
            out.update(((f1 + sh1, dr - dq + sh2), fv) for f1, fv in f.items())
            if row:
                rem[dr] = row
                break
        if rem:
            left = {
                (e1 + s1p, e2 + s2p): v for e2, row in rem.items() for e1, v in row.items()
            }
            raise InexactDivisionError("inexact quotient", LaurentPoly2._raw(left))
        return LaurentPoly2._raw(out)

    # -- evaluation ----------------------------------------------------------------

    def eval_exact(self, u1: int, u2: int) -> Fraction:
        """Exact rational value at integer (u1, u2).

        Zero substituted into a negative exponent is a domain error.
        """
        if self._terms:
            m1, m2 = self.min_exponents()
            if (u1 == 0 and m1 < 0) or (u2 == 0 and m2 < 0):
                raise ValueError("zero substituted into a negative exponent")
        total = Fraction(0)
        f1, f2 = Fraction(u1), Fraction(u2)
        for (d1, d2), v in self._terms.items():
            total += v * f1**d1 * f2**d2
        return total

    # -- display -------------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (d1, d2), v in self.items():
            factors = []
            if abs(v) != 1 or (d1 == 0 and d2 == 0):
                factors.append(_int_to_digits(abs(v)))
            if d1 != 0:
                factors.append("x1" if d1 == 1 else f"x1^{d1}")
            if d2 != 0:
                factors.append("x2" if d2 == 1 else f"x2^{d2}")
            term = "*".join(factors)
            if not parts:
                parts.append(term if v > 0 else "-" + term)
            else:
                parts.append(("+ " if v > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self) -> str:
        body = ", ".join(f"{k!r}: {_int_to_digits(v)}" for k, v in self._terms.items())
        return f"LaurentPoly2({{{body}}})"


X1 = LaurentPoly2.monomial(1, 0)
X2 = LaurentPoly2.monomial(0, 1)
ONE = LaurentPoly2.constant(1)


def _coerce(v):
    if isinstance(v, LaurentPoly2):
        return v
    if isinstance(v, int):
        return LaurentPoly2.constant(v)
    return NotImplemented


def _mul_terms(p: dict, q: dict) -> dict:
    if not p or not q:
        return {}
    if min(p.values()) >= 0 and min(q.values()) >= 0:
        return _mul_kronecker(p, q)
    # the digit blocks hold nonnegative coefficients only, so each operand is split
    # once into its positive and negated negative parts; a square shares p's parts
    ps = [(s, {k: v * s for k, v in p.items() if v * s > 0}) for s in (1, -1)]
    qs = ps if q is p else [(s, {k: v * s for k, v in q.items() if v * s > 0})
                            for s in (1, -1)]
    out: dict[tuple[int, int], int] = {}
    for (sp, pp), (sq, qq) in ((a, b) for a in ps for b in qs):
        if pp and qq:
            for k, v in _mul_kronecker(pp, qq).items():
                out[k] = out.get(k, 0) + sp * sq * v
    return {k: v for k, v in out.items() if v}


def _mul_kronecker(p: dict, q: dict) -> dict:
    """Multiply nonnegative-coefficient term maps by one Kronecker product.

    Each operand becomes a single decimal number: cell (i, j) of the
    gcd-compressed exponent lattice holds its coefficient in a block of k
    digits at block position i*W + j, with the row width W wide enough that
    product rows never wrap.  One libmpdec multiply, which switches to a
    number-theoretic transform for large operands, does the whole
    convolution, and the product's blocks are read back.  k is chosen so that
    max(p) * max(q) * min(|p|, |q|) < 10**k, so no accumulated coefficient
    carries into the next block; the multiply traps Inexact and Rounded, so
    a precision shortfall raises instead of rounding.
    """
    p1lo = min(d1 for d1, _ in p)
    p2lo = min(d2 for _, d2 in p)
    q1lo = min(d1 for d1, _ in q)
    q2lo = min(d2 for _, d2 in q)
    g1 = g2 = 0
    for d1, d2 in p:
        g1 = gcd(g1, d1 - p1lo)
        g2 = gcd(g2, d2 - p2lo)
    for d1, d2 in q:
        g1 = gcd(g1, d1 - q1lo)
        g2 = gcd(g2, d2 - q2lo)
    g1 = g1 or 1
    g2 = g2 or 1
    pwidth = max(d2 - p2lo for _, d2 in p) // g2
    qwidth = max(d2 - q2lo for _, d2 in q) // g2
    width = pwidth + qwidth + 1
    bound = max(p.values()) * max(q.values()) * min(len(p), len(q))
    k = bound.bit_length() * 30103 // 100000  # log10(2) rounded down: 10**k <= bound
    while 10**k <= bound:
        k += 1
    zero = "0" * k
    # a private context: the caller's thread context is never read or changed
    ctx = Context(
        prec=MAX_PREC, Emax=MAX_EMAX, traps=[InvalidOperation, Inexact, Rounded]
    )

    def encode(m, lo1, lo2):
        cells = {
            (d1 - lo1) // g1 * width + (d2 - lo2) // g2: v for (d1, d2), v in m.items()
        }
        blocks = [zero] * (max(cells) + 1)
        for pos, v in cells.items():
            blocks[pos] = _int_to_digits(v).rjust(k, "0")
        blocks.reverse()  # most significant block first
        return Decimal("".join(blocks), ctx)

    a = encode(p, p1lo, p2lo)
    b = a if p is q else encode(q, q1lo, q2lo)
    prod = ctx.multiply(a, b)
    del a, b
    digits = ctx.to_sci_string(prod)
    del prod
    out: dict[tuple[int, int], int] = {}
    base1 = p1lo + q1lo
    base2 = p2lo + q2lo
    for pos, end in enumerate(range(len(digits), 0, -k)):
        # the leading block may be short, and it is never all zeros
        chunk = digits[max(end - k, 0) : end]
        if chunk != zero:
            r, col = divmod(pos, width)
            out[(base1 + r * g1, base2 + col * g2)] = _digits_to_int(chunk)
    # a carry out of any block would lower the value at x1 = x2 = 1
    if sum(out.values()) != sum(p.values()) * sum(q.values()):
        raise ArithmeticError(f"Kronecker product overflowed its {k}-digit blocks")
    return out


# int <-> str conversions of at most this many digits are never refused by
# the interpreter's digit limit (sys.set_int_max_str_digits accepts 0 or >= 640);
# every integer the package prints or parses goes through the two helpers
# below, which leave that interpreter-wide limit as it is
_SAFE_DIGITS = 640
_SAFE_BASE = 10**_SAFE_DIGITS


def _int_to_digits(v: int) -> str:
    """Decimal digits of v, after a '-' when v < 0, for any length."""
    if -_SAFE_BASE < v < _SAFE_BASE:
        return str(v)
    if v < 0:
        return "-" + _int_to_digits(-v)
    parts = []
    while v >= _SAFE_BASE:
        v, r = divmod(v, _SAFE_BASE)
        parts.append(str(r).rjust(_SAFE_DIGITS, "0"))
    parts.append(str(v))
    parts.reverse()
    return "".join(parts)


def _digits_to_int(digits: str) -> int:
    """Inverse of _int_to_digits; a leading sign and leading zeros are allowed."""
    if len(digits) <= _SAFE_DIGITS:
        return int(digits)
    if digits[0] in "+-":
        v = _digits_to_int(digits[1:])
        return -v if digits[0] == "-" else v
    cut = len(digits) % _SAFE_DIGITS or _SAFE_DIGITS
    v = int(digits[:cut])
    for i in range(cut, len(digits), _SAFE_DIGITS):
        v = v * _SAFE_BASE + int(digits[i : i + _SAFE_DIGITS])
    return v
