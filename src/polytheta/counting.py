"""Exact integer counting of representations by polygonal numbers and by
congruence-constrained sums of squares.

Every polygonal count goes through the completed-square map of the paper:
x_j = 2(m-2) ell_j - (m-4) turns a weighted sum of four m-gonal numbers over
a domain into a weighted sum of four squares in the class -(m-4) mod 2(m-2)
above the image of the domain's lower bound.  One enumerator
(``_class_values``) and one pair-sum helper (``_pair_sums``) then serve both
kinds of count, in two evaluation styles:

* per-index counters (``count_polygonal``, ``count_squares``) that meet in
  the middle: the pair sums of two weights' class values are sorted, and
  each remainder left by a pair sum of the other two weights is counted by
  binary search -- these are the tables' oracles, since they count in a
  different way from the same values (the tests check the values against
  blind four-fold loops);
* batch tables (``polygonal_count_table``, ``squares_count_table``) that
  meet in the middle as well: the pair sums of the two coordinates with the
  most class values are counted into an int64 table by ``np.bincount``, and
  each value of the other two coordinates is one shifted add of that table
  in the sparse product kernel ``_sparse_product`` -- exact, and fast enough
  for sweeps to 10^6.  A polygonal table reads its image's squares on the
  stride 8(m-2), so it stays nmax + 1 entries long.  The same kernel, through
  ``_lattice_product``, multiplies the theta factors of ``series`` and the
  eta products of ``modforms``.

All counts are plain Python ints / int64 arrays; both styles guard against
int64 overflow explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod

import numpy as np

from .arith import _empty_table

__all__ = [
    "CountDomain",
    "ALL_INTEGERS",
    "NON_NEGATIVE",
    "POSITIVE",
    "PolygonalInstance",
    "CongruenceInstance",
    "polygonal_number",
    "count_polygonal",
    "count_squares",
    "polygonal_to_squares",
    "polygonal_count_table",
    "squares_count_table",
]

_INT64_GUARD = 2**62
_SEARCH_BLOCK = 2**16  # pair sums per block of _count_at and _count_table


class OverflowGuardError(OverflowError):
    """Raised when a count would leave the checked int64 range."""


@dataclass(frozen=True)
class CountDomain:
    """Per-coordinate domain: all integers (lower=None) or x >= lower."""

    lower: int | None

    @classmethod
    def at_least(cls, c: int) -> "CountDomain":
        return cls(lower=c)

    def __str__(self) -> str:
        if self.lower is None:
            return "all"
        if self.lower == 0:
            return "nonneg"
        if self.lower == 1:
            return "positive"
        return f"at_least({self.lower})"


ALL_INTEGERS = CountDomain(lower=None)
NON_NEGATIVE = CountDomain(lower=0)
POSITIVE = CountDomain(lower=1)


@dataclass(frozen=True)
class PolygonalInstance:
    """A weighted sum of four m-gonal numbers.

    The weight vector is normalized to non-increasing order (counting is
    symmetric under permutations).
    """

    m: int
    alpha: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if self.m < 3:
            raise ValueError(f"polygon order must satisfy m >= 3, got {self.m}")
        alpha = tuple(int(a) for a in self.alpha)
        if len(alpha) != 4 or any(a < 1 for a in alpha):
            raise ValueError(f"alpha must be four positive integers, got {self.alpha}")
        object.__setattr__(self, "alpha", tuple(sorted(alpha, reverse=True)))

    @property
    def alpha_sum(self) -> int:
        return sum(self.alpha)


@dataclass(frozen=True)
class CongruenceInstance:
    """A weighted sum of four squares with x_j = r (mod M) and optional x_j >= C.

    The residue is normalized into [0, M); the sign of a negative input
    residue survives only through the lower bound.
    """

    r: int
    M: int
    alpha: tuple[int, int, int, int]
    lower_bound: int | None = None

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValueError(f"modulus must be positive, got {self.M}")
        alpha = tuple(int(a) for a in self.alpha)
        if len(alpha) != 4 or any(a < 1 for a in alpha):
            raise ValueError(f"alpha must be four positive integers, got {self.alpha}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "r", int(self.r) % self.M)

    @property
    def alpha_sum(self) -> int:
        return sum(self.alpha)


def polygonal_number(m: int, ell: int) -> int:
    """The ell-th m-gonal number ((m-2)ell^2 - (m-4)ell)/2, exactly.

    The formula extends to negative ell and is always an integer.
    """
    if m < 3:
        raise ValueError(f"polygon order must satisfy m >= 3, got {m}")
    num = (m - 2) * ell * ell - (m - 4) * ell
    q, rem = divmod(num, 2)
    assert rem == 0
    return q


def _square_image(inst: PolygonalInstance, domain: CountDomain
                  ) -> tuple[CongruenceInstance, int, int]:
    """Completed-square image of a polygonal instance over ``domain``.

    x = 2(m-2) ell - (m-4) maps the integers one-to-one onto the class
    -(m-4) mod 2(m-2), and ell >= L onto x >= 2(m-2) L - (m-4); it gives
    x^2 = 8(m-2) p_m(ell) + (m-4)^2.  So sum_j alpha_j p_m(ell_j) = n has as
    many solutions over domain^4 as the returned instance has at
    stride * n + offset, with stride 8(m-2) and offset sum_j alpha_j (m-4)^2.
    This holds for every m >= 3.
    """
    m = inst.m
    M, c = 2 * (m - 2), m - 4
    lower = None if domain.lower is None else M * domain.lower - c
    cong = CongruenceInstance(r=-c, M=M, alpha=inst.alpha, lower_bound=lower)
    return cong, 8 * (m - 2), inst.alpha_sum * c * c


def _class_values(r: int, M: int, alpha_j: int, limit: int,
                  lower: int | None) -> list[int]:
    """alpha_j * x^2 for every x = r (mod M) with x >= lower (if set) and
    value <= limit, one entry per x (x and -x both, when both qualify), in
    ascending order so that a loop can stop at its remainder."""
    if limit < 0:
        return []
    xmax = isqrt(limit // alpha_j)
    low = -xmax if lower is None else max(lower, -xmax)
    start = low + (r - low) % M  # smallest class member >= low
    return sorted(alpha_j * x * x for x in range(start, xmax + 1, M))


def _pair_sums(first: np.ndarray, second: np.ndarray, n: int) -> np.ndarray:
    """Every v + w <= n with v in ``first`` and w in ``second``, one entry per
    pair, as int64."""
    sums = np.add.outer(first, second).ravel()
    return sums[sums <= n]


def _count_at(inst: CongruenceInstance, n: int) -> int:
    """Meet in the middle: sort one half's pair sums, search the other half.

    The class values of the two largest weights give one half of pair sums
    v1 + v2 <= n, those of the other two weights the other half.  The half
    with fewer pairs is sorted; the other is built in row blocks of about
    _SEARCH_BLOCK sums (at least one row), and each remainder n - s of a sum
    s in a block is counted in the sorted half by two binary searches
    (Horowitz & Sahni, J. ACM 21 (1974) 277-292).  Each x is one entry, so
    x = 0 counts once and x, -x both when both qualify.  Pair sums are
    int64, so n must stay below _INT64_GUARD; a larger n is refused before
    anything is enumerated.
    """
    if n >= _INT64_GUARD:
        raise OverflowGuardError(
            f"per-index count at n = {n} needs pair sums beyond the checked "
            "64-bit range"
        )
    r, M, lower = inst.r, inst.M, inst.lower_bound
    v1, v2, v3, v4 = (np.array(_class_values(r, M, a, n, lower), dtype=np.int64)
                      for a in sorted(inst.alpha, reverse=True))
    (s1, s2), (t1, t2) = sorted([(v1, v2), (v3, v4)],
                                key=lambda h: h[0].size * h[1].size)
    table = np.sort(_pair_sums(s1, s2, n))
    rows = max(1, _SEARCH_BLOCK // max(t2.size, 1))
    total = 0
    for i in range(0, t1.size, rows):
        rem = n - _pair_sums(t1[i:i + rows], t2, n)
        hits = table.searchsorted(rem, "right") - table.searchsorted(rem, "left")
        total += int(hits.sum())
    return total


def count_polygonal(inst: PolygonalInstance, n: int, domain: CountDomain) -> int:
    """Exact number of solutions of sum_j alpha_j p_m(ell_j) = n, ell in domain^4."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    cong, stride, offset = _square_image(inst, domain)
    return _count_at(cong, stride * n + offset)


def count_squares(inst: CongruenceInstance, n: int) -> int:
    """Exact number of x in the congruence class (and above the lower bound,
    if one is set) with sum_j alpha_j x_j^2 = n."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _count_at(inst, n)


def polygonal_to_squares(inst: PolygonalInstance, n: int) -> tuple[CongruenceInstance, int]:
    """Completed-square image of a polygonal instance over ell_j >= 0.

    Returns the sum of four squares in the class -(m-4) mod 2(m-2) with lower
    bound -(m-4), and the point 8(m-2) n + sum_j alpha_j (m-4)^2 at which its
    count equals the non-negative polygonal count at n.  This is the
    non-negative case of the map every polygonal count goes through; it is
    offered for the paper's range m >= 5 only.
    """
    if inst.m < 5:
        raise ValueError(f"completed-square map needs m >= 5, got {inst.m}")
    cong, stride, offset = _square_image(inst, NON_NEGATIVE)
    return cong, stride * n + offset


# ---------------------------------------------------------------------------
# batch tables
# ---------------------------------------------------------------------------

def _count_table(inst: CongruenceInstance, nmax: int, stride: int = 1,
                 offset: int = 0) -> np.ndarray:
    """Counts of ``inst`` at stride * n + offset for all 0 <= n <= nmax, as
    exact int64.

    Each coordinate's class value alpha_j x^2 becomes the index
    (alpha_j x^2 - shift_j) / stride, where the shifts split ``offset`` over
    the coordinates in proportion to alpha_j (each image coordinate of a
    polygonal count is (m-4)^2 at ell = 0).  The two coordinates with the
    most values meet in the middle: their pair sums <= nmax are built in
    row blocks of about _SEARCH_BLOCK sums and counted by ``np.bincount``.
    Each of the other two coordinates is then one ``_sparse_product`` stage,
    one shifted add of the running table per value, so x and -x in one class
    shift it twice.  Entries are non-negative, so a stage's maximum is at
    most the running maximum times its number of values; that bound is
    checked before the stage, and the table is refused before any int64
    wrap can happen.
    """
    values = []
    for a in inst.alpha:
        shift = a * offset // inst.alpha_sum
        v = np.array(_class_values(inst.r, inst.M, a, stride * nmax + shift,
                                   inst.lower_bound), dtype=np.int64)
        values.append((v - shift) // stride)
    first, second, *rest = sorted(values, key=len, reverse=True)
    acc = np.zeros(nmax + 1, dtype=np.int64)
    rows = max(1, _SEARCH_BLOCK // max(second.size, 1))
    for i in range(0, first.size, rows):
        acc += np.bincount(_pair_sums(first[i:i + rows], second, nmax),
                           minlength=nmax + 1)
    for vals in rest:
        if int(acc.max(initial=0)) * vals.size > _INT64_GUARD:
            raise OverflowGuardError(
                "batch count exceeds the checked 64-bit range; "
                "reduce nmax or count per index with exact big ints"
            )
        acc = _sparse_product([[(e, 1) for e in vals.tolist()]], nmax + 1, acc)
    return acc


def _sparse_product(factors: list[list[tuple[int, int]]], n: int,
                    table: np.ndarray | None = None) -> np.ndarray:
    """The first n coefficients of ``table`` (default 1) times the sparse
    series sum c q^e of each factor's (e, c) terms: one stage per factor, one
    shifted add of the running table per term.  int64 while max |table| times
    the product of the factors' sums of |c| below n (a bound on every entry
    and partial sum) stays within _INT64_GUARD, Python ints past it."""
    table = np.ones(1, dtype=np.int64) if table is None else table
    bound = prod(sum(abs(c) for e, c in terms if e < n) for terms in factors)
    bound *= int(max(table.max(initial=0), -table.min(initial=0)))
    dtype = np.int64 if bound <= _INT64_GUARD else object
    table = table.astype(dtype, copy=False)
    for terms in factors:
        out = np.zeros(n, dtype=dtype)
        for e, c in terms:
            if e < n:  # the first n - e entries of the table land below n
                part = table[:n - e]
                out[e:e + part.size] += part if c == 1 else c * part
        table = out
    return table


def _lattice_product(factors: list[list[tuple[int, int]]], start: int,
                     stop: int, shift: int = 0, unit: int = 1) -> np.ndarray:
    """Coefficients of the product of the factors' (e, c) terms at the
    exponents e = shift + unit * w, start <= w < stop, as an integer array.
    ``_sparse_product`` runs on the offsets from each factor's lowest exponent
    divided by their gcd, the one sublattice that carries the product; a
    product exponent off shift + unit * Z raises ``ValueError``."""
    if not all(factors):  # an empty factor: the product is 0
        return np.zeros(max(stop - start, 0), dtype=np.int64)
    lows = [min(e for e, _ in f) for f in factors]
    g = gcd(*(e - v for f, v in zip(factors, lows) for e, _ in f))
    low, rem = divmod(sum(lows) - shift, unit)
    if rem or g % unit:
        raise ValueError(f"prefactor failed to cancel: exponents {sum(lows) - shift}"
                         f"/{unit} + {g}/{unit} k are not all integers")
    step = g // unit or 1
    table = _sparse_product([[((e - v) // (step * unit), c) for e, c in f]
                             for f, v in zip(factors, lows)],
                            max(0, -(-(stop - low) // step)))
    k0 = max(0, -(-(start - low) // step))  # first k with low + step k >= start
    out = np.zeros(max(stop - start, 0), dtype=table.dtype)
    out[low + step * k0 - start::step] = table[k0:]
    return out


def polygonal_count_table(inst: PolygonalInstance, nmax: int,
                          domain: CountDomain) -> np.ndarray:
    """Counts for all 0 <= n <= nmax at once (exact; same values as
    count_polygonal).  nmax = -1 gives an empty table; lower raises."""
    cong, stride, offset = _square_image(inst, domain)
    if _empty_table(nmax):
        return np.zeros(0, dtype=np.int64)
    return _count_table(cong, nmax, stride, offset)


def squares_count_table(inst: CongruenceInstance, nmax: int) -> np.ndarray:
    """Counts for all 0 <= n <= nmax at once (exact; same values as
    count_squares).  nmax = -1 gives an empty table; lower raises."""
    if _empty_table(nmax):
        return np.zeros(0, dtype=np.int64)
    return _count_table(inst, nmax)
