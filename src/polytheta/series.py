"""Exact q-expansions of the theta-type generating functions and the
structural identities linking them.

Conventions (q-exponents, all exact rationals):

* ``theta_series(r, M)``:        sum over nu = r (mod M) of q^(nu^2 / (2M))
* ``false_theta_series(r, M)``:  sum over nu = r (mod 2M) of sgn(nu) q^(nu^2 / (4M))
* ``partial_theta_series``:      generating series of the one-sided square
  counts s_{r,M,alpha}(n) at q^(n/M)  (coordinates x_j >= 1), read off
  ``counting.squares_count_table``
* ``star_theta_series``:         same with unrestricted sign (the s* counts)
* ``f_J_series``:                q^(-r^2 sum(alpha) / (2M)) times a product of
  theta factors (j in J) and false-theta factors (j not in J), all at 2 alpha_j
  tau; the prefactor cancels the fractional part of every exponent, leaving an
  integer-exponent (possibly Laurent) series.

An optional ``scale`` multiplies the argument tau, i.e. rescales exponents.

The identity checks and ``f_J_series`` multiply the factors' (lattice index,
coefficient) terms on integer arrays with ``counting._lattice_product``;
``QSeries`` is only the exact container the constructors return.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .counting import (ALL_INTEGERS, POSITIVE, CongruenceInstance,
                       PolygonalInstance, _lattice_product, count_polygonal,
                       polygonal_count_table, squares_count_table)
from .qseries import QSeries, Rational, _ceil_index

__all__ = [
    "theta_series",
    "false_theta_series",
    "partial_theta_series",
    "star_theta_series",
    "IdentityReport",
    "decomposition_check",
    "f_J_series",
    "rplus_generating_check",
    "index_identity_check",
]

FULL_J = frozenset({1, 2, 3, 4})


def _class_terms(r: int, M: int, scale: int, limit: int,
                 signed: bool) -> list[tuple[int, int]]:
    """(scale nu^2, c) for each nu = r (mod m) with scale nu^2 < limit, where
    m = 2M and c = sgn(nu) when signed, m = M and c = 1 otherwise: one term
    per nu, so nu and -nu in one class give two terms at one index."""
    if M < 1 or scale < 1:
        raise ValueError(f"need M >= 1 and scale >= 1, got M={M}, scale={scale}")
    m = 2 * M if signed else M
    top = isqrt((limit - 1) // scale) if limit > 0 else -1
    return [(scale * nu * nu, (nu > 0) - (nu < 0) if signed else 1)
            for nu in range(-top + (r + top) % m, top + 1, m)]


def _class_series(r: int, M: int, truncation: Rational, scale: int,
                  signed: bool) -> QSeries:
    """The terms of ``_class_terms`` below the truncation, summed per index,
    on the lattice 1/(4M) when signed and 1/(2M) otherwise."""
    D = 4 * M if signed else 2 * M
    order = _ceil_index(truncation, D)
    terms: dict[int, int] = {}
    for idx, c in _class_terms(r, M, scale, order, signed):
        terms[idx] = terms.get(idx, 0) + c
    return QSeries(D, order, terms)


def theta_series(r: int, M: int, truncation: Rational, scale: int = 1) -> QSeries:
    """Exact expansion of the two-sided theta sum at argument scale * tau."""
    return _class_series(r, M, truncation, scale, False)


def false_theta_series(r: int, M: int, truncation: Rational, scale: int = 1) -> QSeries:
    """Exact expansion of the sign-weighted theta sum at argument scale * tau."""
    return _class_series(r, M, truncation, scale, True)


def _square_count_series(r: int, M: int, alpha: tuple[int, int, int, int],
                         truncation: Rational, lower: int | None) -> QSeries:
    order = _ceil_index(truncation, M)
    table = squares_count_table(
        CongruenceInstance(r, M, alpha, lower_bound=lower), max(order - 1, -1))
    return QSeries(M, order, {int(i): int(table[i]) for i in np.flatnonzero(table)})


def partial_theta_series(r: int, M: int, alpha: tuple[int, int, int, int],
                         truncation: Rational) -> QSeries:
    """Generating series of the one-sided counts: coefficient at q^(n/M) is
    the number of x with x_j = r (mod M), x_j >= 1, sum alpha_j x_j^2 = n."""
    return _square_count_series(r, M, alpha, truncation, lower=1)


def star_theta_series(r: int, M: int, alpha: tuple[int, int, int, int],
                      truncation: Rational) -> QSeries:
    """Generating series of the unrestricted counts (x in Z^4)."""
    return _square_count_series(r, M, alpha, truncation, lower=None)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of an exact coefficientwise comparison."""

    ok: bool
    first_mismatch: Fraction | None
    checked_truncation: Fraction

    def __bool__(self) -> bool:
        return self.ok


def _mismatch(lhs: np.ndarray, rhs: np.ndarray, offset: int, unit: int,
              checked: Fraction) -> IdentityReport:
    """Report on lhs == rhs, entry i standing at exponent (i + offset) / unit."""
    bad = np.flatnonzero(lhs != rhs)
    first = Fraction(int(bad[0]) + offset, unit) if bad.size else None
    return IdentityReport(first is None, first, checked)


def _factors(r: int, M: int, alpha: tuple[int, int, int, int],
             J: frozenset[int], limit: int) -> list[list[tuple[int, int]]]:
    """Terms below lattice index ``limit`` of ``theta_series(r, 2M, .,
    2 alpha_j)`` (j in J) or ``false_theta_series(r, M, ., 2 alpha_j)``
    (j not in J), j = 1..4: both on the lattice 1/(4M)."""
    return [_class_terms(r, 2 * M, 2 * a, limit, False) if j in J
            else _class_terms(r, M, 2 * a, limit, True)
            for j, a in enumerate(alpha, start=1)]


def decomposition_check(r: int, M: int, alpha: tuple[int, int, int, int],
                        n_max: int) -> IdentityReport:
    """Check the sixteen-term split of the one-sided series into theta and
    false-theta products, exactly, for all count indices n <= n_max.

    On the lattice 1/(4M): 16 times the one-sided count table for (r, 2M,
    alpha) at the even indices against the sum over subsets J of {1,2,3,4}
    of the products of theta factors (j in J) and false-theta factors (j not
    in J), each at argument 2 alpha_j tau.
    """
    if not (0 < r < 2 * M):
        raise ValueError(f"need 0 < r < 2M, got r={r}, M={M}")
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    limit = 2 * (n_max + 1)
    lhs = np.zeros(limit, dtype=np.int64)
    lhs[::2] = 16 * squares_count_table(
        CongruenceInstance(r, 2 * M, tuple(alpha), lower_bound=1), n_max)
    # a product's entries are below (limit/2)^2 < 2^58 for any lattice under
    # 2^30 entries (8 GiB), so the int64 sum of sixteen cannot wrap
    subsets = ({j + 1 for j in range(4) if mask >> j & 1} for mask in range(16))
    rhs = sum(_lattice_product(_factors(r, M, alpha, J, limit), 0, limit)
              for J in subsets)
    return _mismatch(lhs, rhs, 0, 4 * M, Fraction(n_max + 1, 2 * M))


def f_J_series(r: int, M: int, alpha: tuple[int, int, int, int],
               J: frozenset[int] | set[int], n_max: int) -> QSeries:
    """The J-indexed product series, shifted by q^(-r^2 sum(alpha) / (2M)).

    The result is a series in integer powers of q (the prefactor must cancel
    every fractional exponent; this is asserted).  Exponents may be negative,
    down to -r^2 sum(alpha) / (2M).  Coefficients are known for all integer
    exponents <= n_max.
    """
    J = frozenset(J)
    if not J <= FULL_J:
        raise ValueError(f"J must be a subset of {{1,2,3,4}}, got {J}")
    s4 = 2 * r * r * sum(alpha)  # the prefactor's exponent on the lattice 1/(4M)
    start = -(s4 // (4 * M))
    coeffs = _lattice_product(_factors(r, M, alpha, J, 4 * M * (n_max + 1) + s4),
                              start, n_max + 1, s4, 4 * M).tolist()
    return QSeries(1, n_max + 1, {start + i: c for i, c in enumerate(coeffs) if c})


def rplus_generating_check(m: int, alpha: tuple[int, int, int, int],
                           n_max: int) -> IdentityReport:
    """Check that the generating series of the all-coordinates-positive
    polygonal counts equals the shifted one-sided square series at tau/4,
    exactly for all n <= n_max: the one-sided table of the class m mod
    2(m-2) holds the positive counts at 8(m-2) n + sum(alpha) (m-4)^2 and
    vanishes off that progression.
    """
    if m < 5:
        raise ValueError(f"need m >= 5, got {m}")
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    inst = PolygonalInstance(m=m, alpha=tuple(alpha))
    stride, offset = 8 * (m - 2), inst.alpha_sum * (m - 4) ** 2
    table = squares_count_table(
        CongruenceInstance(m, 2 * (m - 2), tuple(alpha), lower_bound=1),
        stride * (n_max + 1) + offset - 1)
    expect = np.zeros_like(table)
    expect[offset::stride] = [count_polygonal(inst, n, POSITIVE)
                              for n in range(n_max + 1)]
    return _mismatch(table, expect, -offset, stride, Fraction(n_max + 1))


def index_identity_check(m: int, alpha: tuple[int, int, int, int],
                         n_max: int) -> IdentityReport:
    """Check that the unrestricted m-gonal counts r*(n) are the coefficients
    of the J-full product series for (r, M) = (m, m - 2) at the completed-
    square indices 4 (n - sum(alpha)), exactly for all n <= n_max.
    """
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    inst = PolygonalInstance(m=m, alpha=tuple(alpha))
    asum, unit = inst.alpha_sum, 4 * (m - 2)  # the J-full f_J of (m, m - 2)
    s4, stop = 2 * m * m * asum, 4 * (n_max - asum) + 1
    fj = _lattice_product(_factors(m, m - 2, alpha, FULL_J, unit * stop + s4),
                          -4 * asum, stop, s4, unit)
    return _mismatch(fj[::4], polygonal_count_table(inst, n_max, ALL_INTEGERS),
                     0, 1, Fraction(n_max + 1))
