"""Integer sequences, extended binomials, and the shared table types.

Everything downstream (both expansion routes, the characteristic tables,
the identity checks) is built from two ingredients defined here: the
denominator sequence attached to the parameter c, and a binomial
coefficient extended to arbitrary integer arguments.  The running
weighted sums of tuple entries against that sequence are built by the
closed form's tuple walk (closedform.enumerate_admissible).  The
characteristic table type that both routes fill lives here too, so
neither route imports the other.  This module imports nothing from the
package.
"""
from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from math import comb


def mod_binom(a: int, b: int) -> int:
    """Extended binomial: 0 if a < b, 1 if a = b, else C(a, a-b) exactly.

    For a >= 0 this is the ordinary binomial coefficient (in particular 0
    when b < 0).  For a < 0 it is the generalized value, an exact integer,
    computed through the reflection C(a, k) = (-1)^k * C(k-a-1, k).
    """
    if a < b:
        return 0
    if a >= 0:
        if b < 0:
            return 0
        return comb(a, b)
    k = a - b
    v = comb(k - a - 1, -a - 1)
    return -v if k & 1 else v


class ClusterContext:
    """Parameter c >= 1 plus the memoized sequence a_0=-1, a_1=0, a_2=1, ...

    The sequence obeys a_n = c*a_{n-1} - a_{n-2}; index 0 is the backward
    extension forced by that recurrence.  The table only grows, so reads
    are safe from concurrent threads; extension is serialized by a lock.
    """

    __slots__ = ("c", "_a", "_lock", "_derived")

    def __init__(self, c: int):
        c = operator.index(c)
        if c < 1:
            raise ValueError(f"parameter c must be a positive integer, got {c}")
        self.c = c
        self._a = [-1, 0, 1]
        self._lock = threading.Lock()
        self._derived: dict = {}  # memo space for derived tables, guarded by _lock

    def memo(self, key, build):
        """The table stored under key, storing build() first if there is none.

        build runs outside the lock, so concurrent callers may each build one
        key; the first value stored wins, and every caller gets that value.
        """
        if key in self._derived:
            return self._derived[key]
        value = build()
        with self._lock:
            return self._derived.setdefault(key, value)

    def a(self, n: int) -> int:
        """n-th sequence value; n must be >= 0."""
        if n < 0:
            raise ValueError(f"sequence index must be >= 0, got {n}")
        tab = self._a
        if n < len(tab):
            return tab[n]
        with self._lock:
            while len(self._a) <= n:
                self._a.append(self.c * self._a[-1] - self._a[-2])
        return self._a[n]

    def __repr__(self) -> str:
        return f"ClusterContext(c={self.c})"


def euler_form(ctx: ClusterContext, d: tuple[int, int], f: tuple[int, int]) -> int:
    """Bilinear form <d, f> = d1*f1 + d2*f2 - c*d1*f2 on dimension pairs."""
    return d[0] * f[0] + d[1] * f[1] - ctx.c * d[0] * f[1]


@dataclass(frozen=True)
class ChiTable:
    """Euler characteristics chi(e1, e2) for one (c, n), zero entries omitted.

    dim_vector is (a_{n-1}, a_{n-2}); every stored key lies in the box
    0 <= e1 <= a_{n-1}, 0 <= e2 <= a_{n-2}.
    """

    c: int
    n: int
    dim_vector: tuple[int, int]
    entries: dict

    def chi(self, e1: int, e2: int) -> int:
        return self.entries.get((e1, e2), 0)

    def items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.entries.items())
