"""Executable supporting identities.

Three independently checkable facts live here:

* a two-sided generalized Vandermonde convolution, weighted by an
  arbitrary rational polynomial, evaluated exactly on both sides;
* a family of staged sums interpolating between a pure weight-tuple
  enumeration (stage -1) and the closed-form cell sum (stage n-4), all of
  which agree with the cell value chi(e1, e2);
* the vanishing of the cell value whenever e2*a_{n-1} - e1*a_{n-2} < 0,
  which at stage -1 is visible termwise: the leading indicator factor of
  every stage -1 summand is zero once that pairing is negative.

Stages below n-4 replace trailing tuple entries by weight variables
w_1, w_2, ... >= 0 with their own partial sums v_i; the stage -1 form has
no tuple entries left at all.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .closedform import _chi_sum
from .combinat import ClusterContext, mod_binom


@dataclass(frozen=True)
class RationalPoly:
    """Univariate polynomial with exact rational coefficients, ascending."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, vals) -> "RationalPoly":
        cs = [Fraction(v) for v in vals]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __call__(self, w: int) -> Fraction:
        acc = Fraction(0)
        for co in reversed(self.coeffs):
            acc = acc * w + co
        return acc


def vandermonde_sides(
    a: int, b: int, m: int, poly: RationalPoly
) -> tuple[Fraction, Fraction]:
    """Both sides of the weighted convolution identity, evaluated exactly.

    Left side sums P(w)*[a; w]*[b; m-w]; right side sums
    P(w)*[a; a-w]*[b; b-m+w] ([x; y] the extended binomial).  Requires
    a + b >= deg P >= 0, which also guarantees both supports are finite:
    each side is summed over the window outside which one factor vanishes.
    """
    q = poly.degree
    if q < 0 or a + b < q:
        raise ValueError(
            f"need a + b >= deg P >= 0; got a={a}, b={b}, deg={q}"
        )
    lo = m - b
    hi = a
    if a >= 0:
        lo = max(lo, 0)
    if b >= 0:
        hi = min(hi, m)
    lhs = Fraction(0)
    for w in range(lo, hi + 1):
        lhs += poly(w) * mod_binom(a, w) * mod_binom(b, m - w)
    lo = 0 if b < 0 else max(0, m - b)
    hi = m if a < 0 else min(m, a)
    rhs = Fraction(0)
    for w in range(lo, hi + 1):
        rhs += poly(w) * mod_binom(a, a - w) * mod_binom(b, b - m + w)
    return lhs, rhs


def staged_chi_sum(
    ctx: ClusterContext, n: int, e1: int, e2: int, stage: int
) -> int:
    """Stage-j member of the invariant sum family, -1 <= j <= n-4.

    Stage n-4 is the closed-form cell sum itself.  Lower stages trade the
    trailing tuple entries for weight variables; their enumeration is
    bounded because the leading indicator binomial caps the final weighted
    sum, and every weight carries a positive coefficient in it.  For c = 1
    those coefficients degenerate beyond n = 5, so larger n is rejected
    there rather than enumerated heuristically.
    """
    if ctx.c < 1:
        raise ValueError(f"requires c >= 1, got c={ctx.c}")
    if n < 3:
        raise ValueError(f"requires n >= 3, got {n}")
    if not (-1 <= stage <= n - 4):
        raise ValueError(f"stage must lie in [-1, n-4] = [-1, {n - 4}], got {stage}")
    if ctx.c == 1 and n > 5:
        raise ValueError("c = 1 staged sums are only enumerable for n <= 5")
    if stage == n - 4:
        return _chi_sum(ctx, n, e1, e2)

    c = ctx.c
    j = stage
    m = n - j - 4  # number of weight variables, >= 1 here
    ctx.a(n)
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

    def w_sum(sj: int, sj1: int) -> int:
        cap = pair1 - sj  # final weighted sum must not exceed this
        if cap < 0:
            return 0
        a1 = aj2 - c * sj1
        vlo = cap - a1 if a1 >= 0 else 0
        b1base = a1 + sj - pair1
        bot2base = sj1 - aj1 + pair2

        def rec(k: int, vprev: int, vcur: int, dot: int, prod: int) -> int:
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

    def trec(i: int, prod: int, sprev: int, scur: int) -> None:
        nonlocal total
        if i == j + 1:
            total += prod * w_sum(sprev, scur)
            return
        top = a(i + 1) - c * scur
        for t in range(top + 1):
            trec(i + 1, prod * mod_binom(top, t), scur, c * scur - sprev + t)

    trec(0, 1, 0, 0)
    return total


def vanishing_check(ctx: ClusterContext, n: int, e1: int, e2: int) -> bool:
    """True iff the cell sum is exactly zero; requires a negative pairing.

    Accepts c >= 1.  The hypothesis e2*a_{n-1} - e1*a_{n-2} < 0 is part of
    the contract; outside it the question answered here is not meaningful.
    """
    if ctx.c < 1:
        raise ValueError(f"requires c >= 1, got c={ctx.c}")
    if n < 3:
        raise ValueError(f"requires n >= 3, got {n}")
    if e2 * ctx.a(n - 1) - e1 * ctx.a(n - 2) >= 0:
        raise ValueError(
            f"vanishing_check requires e2*a_{n-1} - e1*a_{n-2} < 0, "
            f"got ({e1}, {e2})"
        )
    return _chi_sum(ctx, n, e1, e2) == 0
