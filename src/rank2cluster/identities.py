"""Executable supporting identities.

Three independently checkable facts live here:

* a two-sided generalized Vandermonde convolution, weighted by an
  arbitrary rational polynomial, evaluated exactly on both sides;
* a family of staged sums interpolating between a pure weight-tuple
  enumeration (stage -1) and the closed-form cell sum (stage n-4), which
  agree with the cell value chi(e1, e2) at every stage on every box cell
  checked up to n = 7.  From n = 8 on, the stages j >= 3, which read the
  tuple classes of depth >= 4, differ on some cells: a known fault, pinned
  by a strict expected failure in the test suite; stages j <= 2 agree on
  every cell checked;
* the vanishing of the cell value whenever e2*a_{n-1} - e1*a_{n-2} < 0,
  which at stage -1 is visible termwise: the leading indicator factor of
  every stage -1 summand is zero once that pairing is negative.  The
  stages 0..n-5 bound their weights by other pairings, so their vanishing
  there is what vanishing_check tests.

Stages below n-4 replace trailing tuple entries by weight variables
w_1, w_2, ... >= 0 with their own partial sums v_i; the stage -1 form has
no tuple entries left at all.  Their weighted running sum telescopes to
a_{N-k}*v_k - a_{N-k-1}*v_{k-1} and is capped by the leading binomial,
which bounds every weight loop from above.  The last two binomials of each
summand add a lower end to the loops over v_{m-1} and v_{m-2} and a band
of v_m to skip.  The loops may still visit branches whose every summand is
zero: only the bounds that measurably shorten the sum are kept.  The same
bounds hold for every c >= 1 that staged_chi_sum accepts (see its
docstring).

The tuple entries a stage j keeps enter its weight sum only through their
last two partial sums, so the stage reads the closed form's tuple classes
_leaves(j+1) instead of walking the tuples.  This leaves the family a real
check of the cell value: stage -1 reads only the trivial depth-0 class,
each stage 0 <= j < n-4 reads the table of depth j+1 < n-3, never the
depth-(n-3) table behind the cell value, and the test suite compares
_leaves with a direct tuple walk, tuple by tuple.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .closedform import _chi_sum, _leaves
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
    P(w)*[a; a-w]*[b; b-m+w] ([x; y] the extended binomial).  Every term
    of either side vanishes outside the one window
    min(m-b, 0) <= w <= max(a, m), so both are summed over it together.
    The identity needs a + b >= deg P >= 0.
    """
    q = poly.degree
    if q < 0 or a + b < q:
        raise ValueError(
            f"need a + b >= deg P >= 0; got a={a}, b={b}, deg={q}"
        )
    lhs = rhs = Fraction(0)
    for w in range(min(m - b, 0), max(a, m) + 1):
        left = mod_binom(a, w) * mod_binom(b, m - w)
        right = mod_binom(a, a - w) * mod_binom(b, b - m + w)
        if left or right:
            pw = poly(w)
            lhs += pw * left
            rhs += pw * right
    return lhs, rhs


def staged_chi_sum(
    ctx: ClusterContext, n: int, e1: int, e2: int, stage: int
) -> int:
    """Stage-j member of the invariant sum family, -1 <= j <= n-4.

    Stage n-4 is the closed-form cell sum itself.  Lower stages trade the
    trailing tuple entries for weight variables; their enumeration is
    bounded because the leading indicator binomial caps the final weighted
    sum, and every weight carries a positive coefficient in it.  The j+1
    tuple entries a stage keeps are summed by class (s_{j+1}, s_j) from
    _leaves(j+1): the single class (1, 0, 0) at stage -1, and never the
    depth-(n-3) classes that the cell value reads.  For c = 1
    those coefficients degenerate beyond n = 5, so larger n is rejected
    there rather than enumerated heuristically.

    With m = n-j-4 weights, N = m+2 and dot_k the weighted sum after w_k,
    the running sum telescopes: dot_k = a_{N-k}*v_k - a_{N-k-1}*v_{k-1}, so
    dot_m = v_m and dot_{m-1} = c*v_{m-1} - v_{m-2}.  Every w_k stops where
    dot_k reaches the cap on dot_m, and where its own trailing factor's
    top, when >= 0, runs out.  Beyond these the loops skip only branches
    whose every leaf is zero:

    * the leaf's second binomial has top top2 - c*v_m and bottom
      bot2 - c*v_m + v_{m-1}; when the top is >= 0 on every leaf a nonzero
      leaf needs v_{m-1} >= c*vlo - bot2 (vlo the least v_m the first
      binomial allows), hence v_{m-2} >= c*(c*vlo - bot2) - cap;
    * within the leaf loop, the band of v_m where that top is >= 0 and the
      bottom < 0 is cut out.

    Only the weighted-sum cap uses the sign of the sequence: it divides by
    the coefficients a_2, ..., a_{m+1} with which the weights enter the
    final sum.  For c >= 2 every a_i with i >= 2 is positive.  For c = 1
    the sequence turns negative at a_5, but n <= 5 keeps m <= 2, so only
    a_2 = a_3 = 1 are used.  The same loops therefore run for every c.
    """
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
    a = ctx.a
    aj1 = a(j + 1)
    aj2 = a(j + 2)
    pair1 = e2 * a(n - 2 - j) - e1 * a(n - 3 - j)
    pair2 = e2 * a(n - 1 - j) - e1 * a(n - 2 - j)
    # coefs[k] = a_{N-k}: weight k < m enters the final sum with coefficient
    # coefs[k], and dot_{k-1} = coefs[k-1]*v_{k-1} - coefs[k]*v_{k-2};
    # tconst[k] - c*v_{k-1} is the top of the trailing factor attached to w_k
    coefs = [a(m + 2 - k) for k in range(m)]
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
        # the leaf window's lower end on v_{m-1}, and the bound it puts on v_{m-2}
        vm1_lo = vm2_lo = 0
        if top2base >= c * cap:
            vm1_lo = c * vlo - bot2base
            vm2_lo = c * vm1_lo - cap

        def rec(k: int, vprev: int, vcur: int, prod: int) -> int:
            tk = tconst[k] - c * vcur
            base = c * vcur - vprev  # v_k at w_k = 0
            if k == m:
                # v_m = dot_m, so its window is [vlo, cap] directly
                lo = vlo if vlo > base else base
                hi = cap
                if 0 <= tk and base + tk < hi:
                    hi = base + tk
                # cut the band where the second binomial's top is >= 0
                # and its bottom < 0.  The two parts overlap only when
                # v_{m-1} > top2base - bot2base: there the bottom exceeds
                # the top at every v_m, so the overlap holds only zeros
                cut_lo = (bot2base + vcur) // c + 1
                cut_hi = top2base // c
                parts = (
                    range(lo, (hi if hi < cut_lo else cut_lo - 1) + 1),
                    range(lo if lo > cut_hi else cut_hi + 1, hi + 1),
                )
                acc = 0
                for part in parts:
                    for v in part:
                        acc += (
                            mod_binom(tk, tk - v + base)
                            * mod_binom(a1, b1base + v)
                            * mod_binom(top2base - c * v, bot2base - c * v + vcur)
                        )
                return acc * prod
            coef = coefs[k]
            w_hi = (cap - coefs[k - 1] * vcur + coef * vprev) // coef
            if 0 <= tk < w_hi:
                w_hi = tk
            w_lo = 0
            lo = (vm1_lo if k == m - 1 else vm2_lo if k == m - 2 else 0) - base
            if lo > 0:
                w_lo = lo
            acc = 0
            for w in range(w_lo, w_hi + 1):
                acc += rec(k + 1, vcur, base + w, prod * mod_binom(tk, tk - w))
            return acc

        return rec(1, 0, 0, 1)

    return sum(w * w_sum(s_prev, s_last) for w, s_last, s_prev in _leaves(ctx, j + 1))


def vanishing_check(ctx: ClusterContext, n: int, e1: int, e2: int) -> bool:
    """True iff the cell sum and the staged sums below it are exactly zero.

    Accepts c >= 1 and requires a negative pairing: the hypothesis
    e2*a_{n-1} - e1*a_{n-2} < 0 is part of the contract; outside it the
    question answered here is not meaningful.  That hypothesis is the very
    guard on which the cell sum returns before its first term (and stage -1
    caps its weights by the same pairing), so neither can fail here.  The
    staged sums of stages 0..n-5 cap their weights by other pairings,
    e2*a_{n-2-j} - e1*a_{n-3-j}, and each of them must be 0 too.  Which
    stages those are is _vanishing_stages(ctx, n); where it is empty the
    check stays definitional.
    """
    if n < 3:
        raise ValueError(f"requires n >= 3, got {n}")
    if e2 * ctx.a(n - 1) - e1 * ctx.a(n - 2) >= 0:
        raise ValueError(
            f"vanishing_check requires e2*a_{n-1} - e1*a_{n-2} < 0, "
            f"got ({e1}, {e2})"
        )
    if _chi_sum(ctx, n, e1, e2):
        return False
    return all(staged_chi_sum(ctx, n, e1, e2, j) == 0 for j in _vanishing_stages(ctx, n))


def _vanishing_stages(ctx: ClusterContext, n: int) -> range:
    """The stages below the cell value that vanishing_check evaluates at (c, n).

    They are 0..n-5, which exist for c >= 2 with n >= 5 and for c = 1 with
    n = 5.  The range is empty at n <= 4, and for c = 1 with n >= 6, where
    staged_chi_sum rejects every stage.
    """
    return range(n - 4) if ctx.c >= 2 or n <= 5 else range(0)
