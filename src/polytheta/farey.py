"""Farey sequences, neighbor structure, arc endpoints, and the rho values
that index the Kloosterman-style dissection.

The order-N sequence covers [0, 1).  For adjacency we use the circular
convention: the predecessor of 0/1 is (N-1)/N shifted down by one full turn
(i.e. -1/N), and the successor of the last fraction is 1/1.  Arc endpoints
are exact rationals, so measure bookkeeping is exact.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import NamedTuple

import numpy as np

__all__ = ["FareyArc", "farey_sequence", "arcs", "rho_congruence"]


class FareyArc(NamedTuple):
    """A reduced fraction h/k of order N with its two circular neighbors.

    Construction does not check the adjacency determinants
    h k1 - h1 k = h2 k - h k2 = 1; ``checks.FAREY_PROPERTIES["determinants"]``
    does.
    """

    h: int
    k: int
    h1: int  # left neighbor h1/k1 (may be negative for the wrap-around)
    k1: int
    h2: int  # right neighbor h2/k2
    k2: int
    N: int

    @property
    def theta_left(self) -> Fraction:
        return Fraction(1, self.k * (self.k + self.k1))

    @property
    def theta_right(self) -> Fraction:
        return Fraction(1, self.k * (self.k + self.k2))

    @property
    def rho1(self) -> int:
        return self.k + self.k1 - self.N

    @property
    def rho2(self) -> int:
        return self.k + self.k2 - self.N

    @property
    def measure(self) -> Fraction:
        """theta_left + theta_right, over their common denominator."""
        k, k1, k2 = self.k, self.k1, self.k2
        return Fraction(2 * k + k1 + k2, k * (k + k1) * (k + k2))


def farey_sequence(N: int) -> list[tuple[int, int]]:
    """Reduced fractions h/k in [0, 1) with k <= N, ascending.

    Generated by the next-term recurrence (constant memory per step).
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    seq = [(0, 1)]
    if N == 1:
        return seq
    a, b, c, d = 0, 1, 1, N
    while (c, d) != (1, 1):
        seq.append((c, d))
        t = (N + b) // d
        a, b, c, d = c, d, t * c - a, t * d - b
    return seq


def arcs(N: int) -> list[FareyArc]:
    """All order-N arcs, in sequence order, with circular neighbor data."""
    seq = farey_sequence(N)
    hl, kl = seq[-1]
    left = [(hl - kl, kl)] + seq[:-1]  # (N-1)/N one turn down; -1/1 when N = 1
    right = seq[1:] + [(1, 1)]
    return [FareyArc(h, k, h1, k1, h2, k2, N)
            for (h, k), (h1, k1), (h2, k2) in zip(seq, left, right)]


def _arc_columns(N: int) -> np.ndarray:
    """``arcs(N)`` as an (A, 7) int64 array, one arc a row, in the field
    order of ``FareyArc``."""
    rows = arcs(N)
    return np.fromiter(itertools.chain.from_iterable(rows), np.int64,
                       7 * len(rows)).reshape(-1, 7)


def rho_congruence(h: int, k: int, N: int) -> int:
    """The unique value rho in (0, k] with h (N + rho) = 1 (mod k).

    Since an adjacent pair satisfies h k1 - h1 k = 1, the left-neighbor
    denominator obeys h k1 = 1 (mod k); writing k1 = N + rho - k shows this
    rho equals k + k1 - N, the left-neighbor form (verified exhaustively in
    the tests).  The mirrored class h (N + rho) = -1 (mod k) picks out the
    right neighbor instead and is reached through the reflection
    h -> k - h.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if gcd(h, k) != 1:
        raise ValueError(f"need gcd(h, k) = 1, got h={h}, k={k}")
    if k == 1:
        return 1
    hinv = pow(h, -1, k)
    rho = (hinv - N) % k
    return rho if rho != 0 else k
