"""Sparse exact Laurent polynomials in two variables over the integers.

Values are immutable once constructed, stored as a map from exponent pairs
(d1, d2) to nonzero integer coefficients.  All arithmetic is exact; there
is no floating point anywhere.  Multiplication switches to a packed
representation for large nonnegative operands, where each x1-row of the
support lattice is encoded as one big integer so the coefficient work runs
inside the integer multiply.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index

# switch to packed multiplication above this many coefficient products
_PACKED_MUL_THRESHOLD = 10_000


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

    def support(self) -> list[tuple[int, int]]:
        """Exponent pairs in canonical order (lexicographic, ascending)."""
        return sorted(self._terms)

    def items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self._terms.items())

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

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
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "LaurentPoly2":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LaurentPoly2._raw(_mul_terms(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly2":
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
        result = {(0, 0): 1}
        base = self._terms
        while k:
            if k & 1:
                result = _mul_terms(result, base)
            k >>= 1
            if k:
                base = _mul_terms(base, base)
        return LaurentPoly2._raw(result)

    # -- exact division ----------------------------------------------------------

    def exact_div(self, other: "LaurentPoly2") -> "LaurentPoly2":
        """Quotient q with q * other == self, or InexactDivisionError.

        Both operands are shifted by monomials into ordinary polynomials,
        divided as polynomials in x2 whose coefficients are polynomials in
        x1 (leading-coefficient steps are themselves exact divisions in
        Z[x1]), and the zero remainder is verified before shifting back.
        """
        other = _coerce(other)
        if other is NotImplemented or not isinstance(other, LaurentPoly2):
            raise TypeError("divisor must be a Laurent polynomial or integer")
        if not other._terms:
            raise ZeroDivisionError("division by zero polynomial")
        if not self._terms:
            return LaurentPoly2.zero()

        s1p, s2p = self.min_exponents()
        s1q, s2q = other.min_exponents()

        def by_x2(terms, s1, s2):
            out: dict[int, dict[int, int]] = {}
            for (d1, d2), v in terms.items():
                out.setdefault(d2 - s2, {})[d1 - s1] = v
            return out

        rem = by_x2(self._terms, s1p, s2p)
        qv = by_x2(other._terms, s1q, s2q)
        dq = max(qv)
        qlead = qv[dq]

        def raise_inexact(r_by_x2):
            shifted = {
                (e1 + s1p, e2 + s2p): v
                for e2, row in r_by_x2.items()
                for e1, v in row.items()
            }
            raise InexactDivisionError(
                "inexact quotient", LaurentPoly2._raw(shifted)
            )

        quot: dict[int, dict[int, int]] = {}
        while rem:
            dr = max(rem)
            if dr < dq:
                raise_inexact(rem)
            f = _x1_exact_div(rem[dr], qlead)
            if f is None:
                raise_inexact(rem)
            quot[dr - dq] = f
            for e2, row in qv.items():
                tgt = rem.setdefault(e2 + dr - dq, {})
                for e1, v in row.items():
                    for f1, fv in f.items():
                        key = e1 + f1
                        nv = tgt.get(key, 0) - fv * v
                        if nv:
                            tgt[key] = nv
                        else:
                            tgt.pop(key, None)
                if not tgt:
                    del rem[e2 + dr - dq]

        sh1, sh2 = s1p - s1q, s2p - s2q
        out = {
            (e1 + sh1, e2 + sh2): v
            for e2, row in quot.items()
            for e1, v in row.items()
        }
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

    # -- serialization / display ----------------------------------------------------

    def to_json_terms(self) -> list[dict]:
        """Canonical JSON form: coefficients as decimal strings."""
        return [
            {"d1": d1, "d2": d2, "coeff": str(v)}
            for (d1, d2), v in self.items()
        ]

    @classmethod
    def from_json_terms(cls, records) -> "LaurentPoly2":
        return cls({(int(r["d1"]), int(r["d2"])): int(r["coeff"]) for r in records})

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (d1, d2), v in self.items():
            factors = []
            if abs(v) != 1 or (d1 == 0 and d2 == 0):
                factors.append(str(abs(v)))
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
        return f"LaurentPoly2({self._terms!r})"


X1 = LaurentPoly2.monomial(1, 0)
X2 = LaurentPoly2.monomial(0, 1)
ONE = LaurentPoly2.constant(1)


def _coerce(v):
    if isinstance(v, LaurentPoly2):
        return v
    if isinstance(v, int):
        return LaurentPoly2.constant(v)
    return NotImplemented


def _x1_exact_div(num: dict, den: dict):
    """Exact division in Z[x1] on {degree: coeff} maps; None if inexact."""
    num = dict(num)
    db = max(den)
    lb = den[db]
    out: dict[int, int] = {}
    while num:
        da = max(num)
        if da < db:
            return None
        q, r = divmod(num[da], lb)
        if r:
            return None
        out[da - db] = q
        for e, v in den.items():
            key = e + da - db
            nv = num.get(key, 0) - q * v
            if nv:
                num[key] = nv
            else:
                num.pop(key, None)
    return out


def _mul_terms(p: dict, q: dict) -> dict:
    if not p or not q:
        return {}
    if len(p) * len(q) >= _PACKED_MUL_THRESHOLD:
        if min(p.values()) >= 0 and min(q.values()) >= 0:
            return _mul_packed(p, q)
    if len(p) > len(q):
        p, q = q, p
    out: dict[tuple[int, int], int] = {}
    get = out.get
    qitems = list(q.items())
    for (a1, a2), u in p.items():
        for (b1, b2), v in qitems:
            k = (a1 + b1, a2 + b2)
            prev = get(k)
            if prev is None:
                out[k] = u * v
            else:
                out[k] = prev + u * v
    return {k: v for k, v in out.items() if v}


def _mul_packed(p: dict, q: dict) -> dict:
    """Multiply nonnegative-coefficient term maps via per-row integer packing.

    Rows (fixed x1-exponent on the common exponent lattice) become single
    integers with fixed-width coefficient blocks; the row-pair convolution
    then runs as big-integer multiplication.  Block width is sized so that
    no accumulated product coefficient can overflow its block.
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
    bits = (
        max(p.values()).bit_length()
        + max(q.values()).bit_length()
        + min(len(p), len(q)).bit_length()
        + 1
    )
    bpb = (bits + 7) // 8  # bytes per coefficient block

    def pack_rows(m, lo1, lo2):
        rows: dict[int, dict[int, int]] = {}
        for (d1, d2), v in m.items():
            rows.setdefault((d1 - lo1) // g1, {})[(d2 - lo2) // g2] = v
        packed = {}
        for r, cols in rows.items():
            buf = bytearray((max(cols) + 1) * bpb)
            for cix, v in cols.items():
                nb = (v.bit_length() + 7) // 8
                buf[cix * bpb : cix * bpb + nb] = v.to_bytes(nb, "little")
            packed[r] = int.from_bytes(buf, "little")
        return packed

    prow = pack_rows(p, p1lo, p2lo)
    qrow = pack_rows(q, q1lo, q2lo)
    acc: dict[int, int] = {}
    for i, a in prow.items():
        for j, b in qrow.items():
            k = i + j
            prev = acc.get(k)
            acc[k] = a * b if prev is None else prev + a * b

    out: dict[tuple[int, int], int] = {}
    base1 = p1lo + q1lo
    base2 = p2lo + q2lo
    for r, big in acc.items():
        raw = big.to_bytes((big.bit_length() + 7) // 8 + bpb, "little")
        for blk in range(len(raw) // bpb):
            v = int.from_bytes(raw[blk * bpb : (blk + 1) * bpb], "little")
            if v:
                out[(base1 + r * g1, base2 + blk * g2)] = v
    return out
