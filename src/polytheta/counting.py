"""Exact integer counting of representations by polygonal numbers and by
congruence-constrained sums of squares.

Two evaluation styles are provided for each counting function:

* per-index counters (``count_polygonal``, ``count_squares``) that enumerate
  the first three coordinates and solve the fourth by an exact integer
  square-root test -- these are the brute-force oracles;
* batch tables (``polygonal_count_table``, ``squares_count_table``) that
  convolve the four one-variable generating arrays with numpy int64
  arithmetic -- exact, and fast enough for sweeps to 10^5 and beyond.

All counts are plain Python ints / int64 arrays; the batch tables guard
against int64 overflow explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

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


class OverflowGuardError(OverflowError):
    """Raised when a batch count would leave the checked int64 range."""


@dataclass(frozen=True)
class CountDomain:
    """Per-coordinate domain: all integers (lower=None) or x >= lower."""

    lower: int | None

    @classmethod
    def at_least(cls, c: int) -> "CountDomain":
        return cls(lower=c)

    def contains(self, x: int) -> bool:
        return self.lower is None or x >= self.lower

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

    @property
    def domain(self) -> CountDomain:
        return CountDomain(lower=self.lower_bound)


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


def _poly_indices_upto(m: int, alpha_j: int, limit: int, domain: CountDomain):
    """Yield (ell, alpha_j * p_m(ell)) for all in-domain ell with value <= limit."""
    if limit < 0:
        return
    lo = domain.lower
    # non-negative side (p_m increasing for ell >= 1; includes ell = 0)
    ell = 0 if lo is None else max(lo, 0)
    while True:
        v = alpha_j * polygonal_number(m, ell)
        if v > limit and ell >= 1:
            break
        if v <= limit:
            yield ell, v
        ell += 1
    # negative side (p_m increases as ell decreases below 0)
    if lo is None:
        ell = -1
    elif lo < 0:
        ell = -1
    else:
        return
    while ell >= (lo if lo is not None else -10**18):
        v = alpha_j * polygonal_number(m, ell)
        if v > limit:
            break
        yield ell, v
        ell -= 1


def _count_poly_last(m: int, alpha_j: int, value: int, domain: CountDomain) -> int:
    """Number of in-domain ell with alpha_j * p_m(ell) == value (exact)."""
    if value < 0 or value % alpha_j:
        return 0
    v = value // alpha_j
    # 8(m-2) p_m(ell) + (m-4)^2 = (2(m-2)ell - (m-4))^2
    disc = 8 * (m - 2) * v + (m - 4) ** 2
    s = isqrt(disc)
    if s * s != disc:
        return 0
    count = 0
    for x in {s, -s}:
        num = x + (m - 4)
        den = 2 * (m - 2)
        if num % den == 0 and domain.contains(num // den):
            count += 1
    return count


def count_polygonal(inst: PolygonalInstance, n: int, domain: CountDomain) -> int:
    """Exact number of solutions of sum_j alpha_j p_m(ell_j) = n, ell in domain^4."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    m, alpha = inst.m, inst.alpha
    total = 0
    for _, v1 in _poly_indices_upto(m, alpha[0], n, domain):
        r1 = n - v1
        for _, v2 in _poly_indices_upto(m, alpha[1], r1, domain):
            r2 = r1 - v2
            for _, v3 in _poly_indices_upto(m, alpha[2], r2, domain):
                total += _count_poly_last(m, alpha[3], r2 - v3, domain)
    return total


def _square_residues_upto(r: int, M: int, alpha_j: int, limit: int,
                          domain: CountDomain):
    """Yield alpha_j * x^2 for all in-domain x = r (mod M) with value <= limit."""
    if limit < 0:
        return
    lo = domain.lower
    xmax = isqrt(limit // alpha_j)
    low = -xmax if lo is None else max(lo, -xmax)
    x = low + ((r - low) % M)  # smallest class member >= low
    while x <= xmax:
        yield alpha_j * x * x
        x += M


def _count_square_last(r: int, M: int, alpha_j: int, value: int,
                       domain: CountDomain) -> int:
    """Number of in-domain x = r (mod M) with alpha_j x^2 == value (exact)."""
    if value < 0 or value % alpha_j:
        return 0
    v = value // alpha_j
    s = isqrt(v)
    if s * s != v:
        return 0
    count = 0
    for x in {s, -s}:
        if (x - r) % M == 0 and domain.contains(x):
            count += 1
    return count


def count_squares(inst: CongruenceInstance, n: int) -> int:
    """Exact number of x in the congruence class (and above the lower bound,
    if one is set) with sum_j alpha_j x_j^2 = n."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    r, M, alpha, dom = inst.r, inst.M, inst.alpha, inst.domain
    total = 0
    for v1 in _square_residues_upto(r, M, alpha[0], n, dom):
        r1 = n - v1
        for v2 in _square_residues_upto(r, M, alpha[1], r1, dom):
            r2 = r1 - v2
            for v3 in _square_residues_upto(r, M, alpha[2], r2, dom):
                total += _count_square_last(r, M, alpha[3], r2 - v3, dom)
    return total


def polygonal_to_squares(inst: PolygonalInstance, n: int) -> tuple[CongruenceInstance, int]:
    """Completed-square image of a polygonal instance.

    Substituting x_j = 2(m-2) ell_j - (m-4) turns sum alpha_j p_m(ell_j) = n
    into a sum of four squares in the class -(m-4) mod 2(m-2) with lower
    bound -(m-4), evaluated at 8(m-2) n + sum_j alpha_j (m-4)^2.  Counting
    over ell_j >= 0 then equals counting the image instance.
    """
    m = inst.m
    if m < 5:
        raise ValueError(f"completed-square map needs m >= 5, got {m}")
    M = 2 * (m - 2)
    shift = 8 * (m - 2) * n + inst.alpha_sum * (m - 4) ** 2
    cong = CongruenceInstance(r=-(m - 4), M=M, alpha=inst.alpha,
                              lower_bound=-(m - 4))
    return cong, shift


# ---------------------------------------------------------------------------
# batch tables
# ---------------------------------------------------------------------------

def _convolve_supports(supports: list[np.ndarray], nmax: int) -> np.ndarray:
    """Truncated product of generating arrays: exact int64 with overflow guard.

    Each support array holds the per-coordinate counts by value (index =
    contributed value).  The product starts from the first support and adds
    each further support's shifts of the running product once per unit of
    multiplicity, so no scaled temporary is made.  All entries are
    non-negative, so partial sums are bounded by the final counts and a
    single guard on the running maximum suffices.
    """
    acc = None
    acc_max = 1
    for sup in supports:
        # preventive guard: entries are non-negative, so the next maximum is
        # at most acc_max * sum(sup); refuse before any int64 wrap can happen
        if acc_max * max(int(sup.sum()), 1) > _INT64_GUARD:
            raise OverflowGuardError(
                "batch count exceeds the checked 64-bit range; "
                "reduce nmax or count per index with exact big ints"
            )
        if acc is None:
            acc = sup.copy()
        else:
            new = np.zeros(nmax + 1, dtype=np.int64)
            idx = np.nonzero(sup)[0]
            for e in np.repeat(idx, sup[idx]):
                new[e:] += acc[: nmax + 1 - e]
            acc = new
        acc_max = int(acc.max(initial=0))
    return acc


def _poly_support(m: int, alpha_j: int, nmax: int, domain: CountDomain) -> np.ndarray:
    sup = np.zeros(nmax + 1, dtype=np.int64)
    for _, v in _poly_indices_upto(m, alpha_j, nmax, domain):
        sup[v] += 1
    return sup


def _square_support(r: int, M: int, alpha_j: int, nmax: int,
                    domain: CountDomain) -> np.ndarray:
    sup = np.zeros(nmax + 1, dtype=np.int64)
    for v in _square_residues_upto(r, M, alpha_j, nmax, domain):
        sup[v] += 1
    return sup


def polygonal_count_table(inst: PolygonalInstance, nmax: int,
                          domain: CountDomain) -> np.ndarray:
    """Counts for all 0 <= n <= nmax at once (exact; same values as
    count_polygonal)."""
    sups = [_poly_support(inst.m, a, nmax, domain) for a in inst.alpha]
    return _convolve_supports(sups, nmax)


def squares_count_table(inst: CongruenceInstance, nmax: int) -> np.ndarray:
    """Counts for all 0 <= n <= nmax at once (exact; same values as
    count_squares)."""
    sups = [_square_support(inst.r, inst.M, a, nmax, inst.domain)
            for a in inst.alpha]
    return _convolve_supports(sups, nmax)
