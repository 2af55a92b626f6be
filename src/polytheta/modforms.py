"""Integer-exponent q-expansions as integer arrays indexed by exponent: eta
powers from the sparse product kernel of ``counting``, the weight-two
Eisenstein identity of the 1 (mod 6) divisor-sum progression, and the exact
split of the unrestricted-count generating series into an Eisenstein
progression plus an eta-power cusp expansion.

An array t stands for sum_{w < order} t[w] q^w; only ``eta_power`` returns a
``QSeries``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import divisor_sigma, kronecker, sigma_table, twisted_divisor_sum_8
from .counting import CongruenceInstance, _lattice_product, squares_count_table
from .qseries import QSeries

__all__ = [
    "eta_power",
    "e_series_identity_check",
    "ThetaSplitReport",
    "verify_theta_split",
    "corollary_main_terms",
]


def _need_order(order: int) -> None:
    if order < 1:
        raise ValueError(f"need order >= 1, got {order}")


def _eta_table(a: int, p: int, order: int) -> np.ndarray:
    """Coefficients of eta(a tau)^p = q^(a p/24) prod_{n>=1} (1 - q^(a n))^p
    at q^w, w < order, for 24 | a p.

    prod (1 - q^(a n))^p is the product of p // 3 of Jacobi's cubes
    sum_{k>=0} (-1)^k (2k+1) q^(a k(k+1)/2) and p % 3 of Euler's series
    sum_j (-1)^j q^(a j(3j-1)/2) (Hardy & Wright, ch. XIX), multiplied by
    ``counting._lattice_product`` on the lattice a Z (int64 below the
    counting guard, Python ints past it).
    """
    shift = a * p // 24
    n = max(0, -(-(order - shift) // a))  # exponents of x = q^a below order
    ks = range(-math.isqrt(2 * n) - 1, math.isqrt(2 * n) + 2)
    cube = [(a * k * (k + 1) // 2, (-1) ** (k % 2) * (2 * k + 1)) for k in ks if k >= 0]
    euler = [(a * k * (3 * k - 1) // 2, (-1) ** (k % 2)) for k in ks]
    return _lattice_product([cube] * (p // 3) + [euler] * (p % 3), 0, order, -shift)


def eta_power(argument_multiplier: int, power: int, order: int) -> QSeries:
    """q^(a p / 24) prod_{n>=1} (1 - q^(a n))^p with a p = 0 (mod 24).

    The dedekind-eta prefactor keeps all exponents integral exactly when
    24 | a*p; other combinations are rejected.  Coefficients are exact
    integers, the nonzero entries of ``_eta_table``.
    """
    a, p = argument_multiplier, power
    if a < 1 or p < 1:
        raise ValueError("argument multiplier and power must be positive")
    if (a * p) % 24:
        raise ValueError(
            f"exponent lattice is not integral: a*p = {a * p} is not divisible by 24")
    _need_order(order)
    table = _eta_table(a, p, order)
    return QSeries(1, order, {int(w): int(table[w]) for w in np.flatnonzero(table)})


def e_series_identity_check(order: int = 1000) -> bool:
    """Exact check, on exponents n < order, that 48 times the progression
    sum over n = 1 (mod 6) of sigma(n) q^n equals -(chi + chi^2) E2 with its
    even-index part removed, where chi = (-3/n) and E2 = 1 - 24 sum sigma(n)
    q^n.

    E2 reads the divisor-sum sieve and the progression reads ``divisor_sigma``
    at each of its indices, so the two sides share no table.
    """
    _need_order(order)
    chi = np.fromiter((kronecker(-3, n) for n in range(order)), np.int64, order)
    e2 = -24 * sigma_table(order - 1)
    e2[0] = 1
    lhs = -(chi + chi * chi) * e2
    lhs[::2] = 0
    rhs = np.zeros(order, dtype=np.int64)
    rhs[1::6] = [48 * divisor_sigma(n) for n in range(1, order, 6)]
    return bool(np.array_equal(lhs, rhs))


@dataclass(frozen=True)
class ThetaSplitReport:
    ok: bool
    first_mismatch: int | None
    order: int


def verify_theta_split(order: int = 200) -> ThetaSplitReport:
    """Exact check, on integer exponents w < order, that the unrestricted
    count of x = 5 (mod 6), weights (1,1,1,1), at w equals
    (2/3) [progression series at w/4] + (1/3) [eta(24 tau)^4 at w].

    Counts come from the meet-in-the-middle count table, so both sides are
    independent integer computations; the comparison is 3*s = 2*e + c on
    integer arrays, and ``first_mismatch`` is the first w where it fails.
    """
    _need_order(order)
    inst = CongruenceInstance(r=5, M=6, alpha=(1, 1, 1, 1))
    s_star = squares_count_table(inst, order - 1)
    eis = np.zeros(order, dtype=np.int64)
    m = np.arange(1, (order - 1) // 4 + 1, 6)  # 4m < order, m = 1 (mod 6)
    eis[4 * m] = sigma_table(max((order - 1) // 4, 1))[m]
    bad = np.flatnonzero(3 * s_star != 2 * eis + _eta_table(24, 4, order))
    first = int(bad[0]) if bad.size else None
    return ThetaSplitReport(ok=first is None, first_mismatch=first, order=order)


def corollary_main_terms(which: str, n: int) -> Fraction:
    """Leading divisor-sum term of the four-term polygonal counts.

    hexagonal:  sigma(2n+1)/16        (weights 1,1,1,1, six-sided)
    hexagonal2: -(1/64) sum_{d | 8n+5} (8/d) d   (weights 1,1,1,2, six-sided)
    pentagonal: sigma(6n+1)/24        (weights 1,1,1,1, five-sided)
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if which == "hexagonal":
        return Fraction(divisor_sigma(2 * n + 1), 16)
    if which == "hexagonal2":
        return Fraction(-twisted_divisor_sum_8(8 * n + 5), 64)
    if which == "pentagonal":
        return Fraction(divisor_sigma(6 * n + 1), 24)
    raise ValueError(f"unknown main-term family: {which!r}")
