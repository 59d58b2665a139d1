"""Sparse exact Laurent polynomials in two variables over the integers.

Values are immutable once constructed, stored as a map from exponent pairs
(d1, d2) to nonzero integer coefficients.  All arithmetic is exact; there
is no floating point anywhere.

Products and quotients both work on the operands' gcd-compressed exponent
lattice, found by one helper (_lattice): each exponent less the operand's
least one, divided by the gcd of all such differences in both operands.

Every product goes through one Kronecker substitution: each operand is
written as a single decimal number, one fixed-width digit block per cell of
the compressed lattice, and the two numbers are multiplied
once by the stdlib `decimal` module, whose libmpdec core uses a
number-theoretic transform at large sizes (Harvey, arXiv:0712.4046).  The
multiply runs in a private `decimal.Context` with maximal precision that
traps `Inexact` and `Rounded`, so it is exact or raises; the caller's
thread context is neither read nor changed.  A signed operand is split into
its positive part and its negated negative part, and the products of the
parts are added with their signs.

Exact division is a long division in rows of x2 degree.  Where both
operands are nonnegative and the divisor's top row is one monomial with
coefficient 1, as for every x_k of the recurrence, each row is held as one
int with a w-bit slot per compressed x1 exponent.  The slot is sized by the
scalar shadow S = sum(dividend) // sum(divisor), which the coefficients of
an exact quotient sum to: 2**w > max(max(dividend), max(divisor) * max(S, 1)).
Each lower divisor row subtracts its multiple of the quotient row from the
row it lands on, either as one scalar multiple per term or as one product
by the whole packed divisor row, whichever costs fewer int digit
operations on those ints for that division.  The quotient is proved, not
assumed.  A division the packed rows refuse or cannot prove is plain long
division, one quotient term at a time, which also reports the remainder;
no step of the recurrence takes it, so today it serves tests and error
reports only (see LaurentPoly2.exact_div).
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
from sys import int_info


# CPython stores an int in digits of this many bits, and multiplies two ints
# by schoolbook when the shorter has at most _KARATSUBA_CUTOFF digits
# (Objects/longobject.c); _packs_divisor_rows costs its two ways with these
_DIGIT_BITS = int_info.bits_per_digit
_KARATSUBA_CUTOFF = 70


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

        Both operands are shifted by monomials into ordinary polynomials on
        the compressed lattice of the product (_lattice): x1 and x2
        exponents are divided by the gcds g1 and g2 of both operands'
        exponents above their least ones.  An exact quotient lies on that
        lattice too, and long division only subtracts lattice multiples, so
        the compressed quotient and remainder are the plain ones with their
        exponents divided by g1 and g2; only the rows get shorter.  The
        operands are split once into rows by x2 degree, and two paths divide
        them, both from the top row down to the divisor's top row dq.

        *Packed rows* (_packed_quotient) apply when every coefficient is
        nonnegative and the divisor's top row is one monomial x1^db with
        coefficient 1, as for every x_k of the recurrence.  Each remainder
        row is one int with a w-bit slot per x1 exponent, packed and
        unpacked through bytes.  The
        slot is sized by the scalar shadow S = sum(self) // sum(other):
        2**w > max(max(self), max(other) * max(S, 1)).  A row r that is
        negative or has bits below slot db ends the attempt; otherwise its
        quotient row is q = r >> db*w, and each lower divisor row subtracts
        q times itself from the row dq - e2 below r, in one of two ways
        chosen once per division (_packs_divisor_rows):
        - scalar terms: each term x1^e1 x2^e2 with coefficient v subtracts
          (q * v) << e1*w, one pass over the row per term;
        - packed rows: the divisor row is packed with the same slots, and
          one product q * row, shifted to its lowest term, is subtracted.
        Packed rows pay where rows are long and dense and a slot is at most
        a few times a divisor coefficient's width, as at c = 2.  Scalar terms
        pay where each small divisor coefficient would be padded to a slot
        many times its width, as on the large steps of c >= 3.

        The packed quotient is proved, not assumed: every row below dq must
        end at 0, and the decoded quotient coefficients, which are
        nonnegative, must sum to at most S.  Then every coefficient of
        q * other lies in [0, max(other) * S] and every coefficient of self
        in [0, max(self)], so every coefficient of self - q * other has
        magnitude below X = 2**w.  Each of its rows, read as a polynomial
        with one coefficient per slot, vanishes at X by the packed
        arithmetic, and a polynomial whose coefficients are all smaller than
        X in magnitude and that vanishes at X is zero, so self == q * other
        exactly.  Both ways of subtracting compute the same ints, so they
        give the same quotient or refuse alike.

        Any other division, and any that fails a condition above, is plain
        long division (_row_quotient; von zur Gathen and Gerhard, *Modern
        Computer Algebra*, 2.4): the leading term of the top remaining row,
        in (x2, x1) order, is divided by the divisor's leading term, and that
        one quotient term times the divisor is subtracted.  No step of the
        recurrence takes this path, so today it serves tests and error
        reports only.  At the first leading term it cannot divide (an x2 or
        x1 degree below the divisor's, or a coefficient its leading
        coefficient does not divide) it stops, and the remainder, self minus
        the partial quotient times the divisor, is raised as the error's
        `.remainder`.  On an exact division both paths give the same
        quotient.
        """
        other = _coerce(other)
        if other is NotImplemented:
            raise TypeError("divisor must be a Laurent polynomial or integer")
        if not other._terms:
            raise ZeroDivisionError("division by zero polynomial")
        if not self._terms:
            return LaurentPoly2.zero()

        # the shift keeps exponents small cached ints; raw ones ran 10-20 % slower
        (s1p, s2p), (s1q, s2q), g1, g2 = _lattice(self._terms, other._terms)
        num: dict[int, dict[int, int]] = {}
        for (d1, d2), v in self._terms.items():
            num.setdefault((d2 - s2p) // g2, {})[(d1 - s1p) // g1] = v
        den: dict[int, dict[int, int]] = {}
        for (d1, d2), v in other._terms.items():
            den.setdefault((d2 - s2q) // g2, {})[(d1 - s1q) // g1] = v
        quot = _packed_quotient(num, den)
        if quot is None:
            quot = _row_quotient(num, den)
            if num:
                left = {(e1 * g1 + s1p, e2 * g2 + s2p): v
                        for e2, row in num.items() for e1, v in row.items()}
                raise InexactDivisionError("inexact quotient", LaurentPoly2._raw(left))
        sh1, sh2 = s1p - s1q, s2p - s2q
        return LaurentPoly2._raw({(f1 * g1 + sh1, f2 * g2 + sh2): v
                                  for (f1, f2), v in quot.items()})

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


def _packed_quotient(num: dict, den: dict) -> dict | None:
    """Packed-row quotient of LaurentPoly2.exact_div, or None.

    num and den map an x2 degree to a row {x1 degree: coefficient}, shifted
    to nonnegative exponents and already divided by the operands' exponent
    gcds, so each x1 degree is one slot; the quotient is keyed the same way.
    None means the path does not apply or could not prove its quotient, and
    the caller's row loop divides instead.
    """
    dq = max(den)
    top = den[dq]
    if len(top) != 1 or 1 not in top.values():
        return None
    (db,) = top
    if any(min(row.values()) < 0 for rows in (num, den) for row in rows.values()):
        return None
    # the scalar shadow: the coefficients of an exact quotient sum to exactly this
    shadow = sum(sum(row.values()) for row in num.values()) // sum(
        sum(row.values()) for row in den.values()
    )
    bound = max(
        max(max(row.values()) for row in num.values()),
        max(max(row.values()) for row in den.values()) * max(shadow, 1),
    )
    size = (bound.bit_length() + 7) // 8  # bytes per slot, so 2**w > bound
    w = 8 * size

    rem = [0] * (max(num) + 1)
    for e2, row in num.items():
        rem[e2] = _pack_row(row, size, 0)
    # the divisor's lower rows as (x2 offset, shift, multiplier), two ways
    lower = [(e2 - dq, row) for e2, row in den.items() if e2 != dq]
    terms = [(e2, e1 * w, v) for e2, row in lower for e1, v in row.items()]
    rows = [(e2, min(row) * w, _pack_row(row, size, min(row))) for e2, row in lower]
    if _packs_divisor_rows(rows, terms, _digits(max(rem).bit_length())):
        terms = rows
    low = db * w
    mask = (1 << low) - 1
    quot = {}
    qsum = 0
    for dr in range(len(rem) - 1, dq - 1, -1):
        r = rem[dr]
        if not r:
            continue
        if r < 0 or r & mask:
            return None
        q = r >> low
        for e2, shift, v in terms:
            rem[dr + e2] -= q * v << shift
        raw = q.to_bytes((q.bit_length() + 7) // 8, "little")
        for at in range(0, len(raw), size):
            v = int.from_bytes(raw[at : at + size], "little")
            if v:
                qsum += v
                quot[at // size, dr - dq] = v
        if qsum > shadow:
            return None
    if any(rem[:dq]):
        return None
    return quot


def _pack_row(row: dict, size: int, lo: int) -> int:
    """One int holding row {x1 degree: coefficient}, a size-byte slot per x1
    degree, counted from degree lo."""
    buf = bytearray(size * (max(row) - lo + 1))
    for e1, v in row.items():
        at = (e1 - lo) * size
        buf[at : at + size] = v.to_bytes(size, "little")
    return int.from_bytes(buf, "little")


def _packs_divisor_rows(rows: list, terms: list, d: int) -> bool:
    """Whether _packed_quotient subtracts the divisor's lower rows as rows,
    one packed int each (True), or as terms, one scalar each (False).

    Both layouts are lists of (x2 offset, shift, v), and each entry costs
    the int digit operations of q * v << shift subtracted from a row: one
    product of a d-digit quotient row by v (_mul_cost), then a shift and a
    subtraction that each rewrite d digits.  d is the longest remainder row,
    which no quotient row exceeds.  One choice serves every row of the
    division.
    """
    packed, scalar = (sum(_mul_cost(d, _digits(v.bit_length())) + 2 * d for *_, v in layout)
                      for layout in (rows, terms))
    return packed < scalar


def _digits(bits: int) -> int:
    """Int digits that hold bits bits."""
    return -(-bits // _DIGIT_BITS)


def _mul_cost(a: int, b: int) -> int:
    """Digit products CPython spends on an a-digit by b-digit int product:
    schoolbook up to _KARATSUBA_CUTOFF digits, cut into pieces the size of
    the shorter operand when it is at most half the longer, and otherwise
    three products of half the size (Karatsuba)."""
    a, b = min(a, b), max(a, b)
    if a <= _KARATSUBA_CUTOFF:
        return a * b
    if 2 * a <= b:
        return -(-b // a) * _mul_cost(a, a)
    return 3 * _mul_cost((a + 1) // 2, (b + 1) // 2)


def _row_quotient(num: dict, den: dict) -> dict:
    """Long-division quotient of LaurentPoly2.exact_div, on row maps as in
    _packed_quotient.

    Each step divides the leading x1 term of the top remaining row by the
    divisor's leading term and subtracts that one quotient term times the
    whole divisor from num.  The loop stops at the first leading term it
    cannot divide, so num is left holding the remainder, which is empty
    exactly when the division is exact; den is not changed.
    """
    quot = {}
    dq = max(den)
    db = max(den[dq])
    lb = den[dq][db]
    for dr in range(max(num), dq - 1, -1):
        while dr in num:
            row = num[dr]
            da = max(row)
            q, r = divmod(row[da], lb)
            if da < db or r:
                return quot
            quot[da - db, dr - dq] = q
            for e2, drow in den.items():
                tgt = num.setdefault(e2 + dr - dq, {})
                for e1, v in drow.items():
                    key = e1 + da - db
                    nv = tgt.get(key, 0) - q * v
                    if nv:
                        tgt[key] = nv
                    else:
                        del tgt[key]
                if not tgt:
                    del num[e2 + dr - dq]
    return quot


def _lattice(p: dict, q: dict) -> tuple:
    """((p1lo, p2lo), (q1lo, q2lo), g1, g2) for nonempty term maps p and q:
    each map's least x1 and x2 exponents, and the gcds g1 and g2 of all
    exponents above them (1 where there are none).  Every term of p lies at
    (p1lo + i*g1, p2lo + j*g2), and of q likewise, so both operands of a
    product or a division can be written on the one compressed lattice."""
    lo = [(min(d1 for d1, _ in m), min(d2 for _, d2 in m)) for m in (p, q)]
    g1 = gcd(*{d1 - lo1 for m, (lo1, _) in zip((p, q), lo) for d1, _ in m})
    g2 = gcd(*{d2 - lo2 for m, (_, lo2) in zip((p, q), lo) for _, d2 in m})
    return lo[0], lo[1], g1 or 1, g2 or 1


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
    (p1lo, p2lo), (q1lo, q2lo), g1, g2 = _lattice(p, q)
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
