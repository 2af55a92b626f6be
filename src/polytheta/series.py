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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counting import (ALL_INTEGERS, POSITIVE, CongruenceInstance,
                       PolygonalInstance, count_polygonal, polygonal_count_table,
                       squares_count_table)
from .qseries import QSeries, Rational, _ceil_index

__all__ = [
    "theta_series",
    "false_theta_series",
    "partial_theta_series",
    "star_theta_series",
    "IdentityReport",
    "decomposition_check",
    "f_J_series",
    "c_coefficient",
    "rplus_generating_check",
    "index_identity_check",
]

FULL_J = frozenset({1, 2, 3, 4})


def _class_series(r: int, M: int, truncation: Rational, scale: int,
                  signed: bool) -> QSeries:
    """Sum over nu = r (mod m) of sgn(nu)^signed q^(scale nu^2/(2m)), with
    m = 2M when signed and m = M otherwise, walked outward from the class
    representative in both directions."""
    if M < 1 or scale < 1:
        raise ValueError(f"need M >= 1 and scale >= 1, got M={M}, scale={scale}")
    m = 2 * M if signed else M
    r %= m
    order = _ceil_index(truncation, 2 * m)
    terms: dict[int, int] = {}
    for start, step in ((r, m), (r - m, -m)):
        nu = start
        while scale * nu * nu < order:
            if nu or not signed:
                idx = scale * nu * nu
                terms[idx] = terms.get(idx, 0) + (-1 if signed and nu < 0 else 1)
            nu += step
    return QSeries(2 * m, order, terms)


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


def decomposition_check(r: int, M: int, alpha: tuple[int, int, int, int],
                        n_max: int) -> IdentityReport:
    """Check the sixteen-term split of the one-sided series into theta and
    false-theta products, exactly, for all count indices n <= n_max.

    Left side: the one-sided series for (r, 2M, alpha), read off the int64
    count table.  Right side: 1/16 times the sum over subsets J of {1,2,3,4}
    of ``QSeries`` products of theta factors (j in J) and false-theta factors
    (j not in J), each at argument 2 alpha_j tau.
    """
    if not (0 < r < 2 * M):
        raise ValueError(f"need 0 < r < 2M, got r={r}, M={M}")
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    truncation = Fraction(n_max + 1, 2 * M)
    lhs = partial_theta_series(r, 2 * M, alpha, truncation)
    thetas = [theta_series(r, 2 * M, truncation, scale=2 * a) for a in alpha]
    falses = [false_theta_series(r, M, truncation, scale=2 * a) for a in alpha]
    rhs = None
    for mask in range(16):
        prod = None
        for j in range(4):
            f = thetas[j] if (mask >> j) & 1 else falses[j]
            prod = f if prod is None else (prod * f).truncate(truncation)
        rhs = prod if rhs is None else rhs + prod
    rhs = Fraction(1, 16) * rhs
    ok, where = lhs.agree(rhs)
    bound = min(lhs.truncation, rhs.truncation)
    return IdentityReport(ok, where, bound)


def f_J_series(r: int, M: int, alpha: tuple[int, int, int, int],
               J: frozenset[int] | set[int], n_max: int) -> QSeries:
    """The J-indexed product series, shifted by q^(-r^2 sum(alpha) / (2M)).

    The result is a series in integer powers of q (the prefactor must cancel
    every fractional exponent; this is asserted).  Exponents may be negative.
    Coefficients are known for all integer exponents <= n_max.
    """
    J = frozenset(J)
    if not J <= FULL_J:
        raise ValueError(f"J must be a subset of {{1,2,3,4}}, got {J}")
    shift = Fraction(r * r * sum(alpha), 2 * M)
    truncation = Fraction(n_max + 1) + shift
    prod = None
    for j, a in enumerate(alpha, start=1):
        if j in J:
            f = theta_series(r, 2 * M, truncation, scale=2 * a)
        else:
            f = false_theta_series(r, M, truncation, scale=2 * a)
        prod = f if prod is None else (prod * f).truncate(truncation)
    out = prod.shift(-shift)
    for idx in out.coeffs:
        if idx % out.D:
            raise ValueError(
                f"prefactor failed to cancel: exponent {Fraction(idx, out.D)} "
                "is not an integer"
            )
    return out.normalize()


def c_coefficient(r: int, M: int, alpha: tuple[int, int, int, int],
                  J: frozenset[int] | set[int], n: int) -> Fraction:
    """Coefficient of q^n in the J-indexed product series (n may be negative)."""
    return f_J_series(r, M, alpha, J, max(n, 0)).coeff(n)


def rplus_generating_check(m: int, alpha: tuple[int, int, int, int],
                           n_max: int) -> IdentityReport:
    """Check that the generating series of the all-coordinates-positive
    polygonal counts equals the shifted one-sided square series at tau/4,
    exactly for all n <= n_max.
    """
    if m < 5:
        raise ValueError(f"need m >= 5, got {m}")
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    inst = PolygonalInstance(m=m, alpha=tuple(alpha))
    lhs = QSeries(1, n_max + 1,
                  {n: count_polygonal(inst, n, POSITIVE) for n in range(n_max + 1)})
    shift = Fraction(sum(alpha) * (m - 4) ** 2, 8 * (m - 2))
    truncation = Fraction(n_max + 1) + shift
    theta_plus = partial_theta_series(m, 2 * (m - 2), tuple(alpha),
                                      truncation * 4)
    rhs = theta_plus.substitute(Fraction(1, 4)).shift(-shift)
    ok, where = lhs.agree(rhs)
    return IdentityReport(ok, where, min(lhs.truncation, rhs.truncation))


def index_identity_check(m: int, alpha: tuple[int, int, int, int],
                         n_max: int) -> IdentityReport:
    """Check that the unrestricted m-gonal counts r*(n) are the coefficients
    of the J-full product series for (r, M) = (m, m - 2) at the completed-
    square indices 4 (n - sum(alpha)), exactly for all n <= n_max.
    """
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    inst = PolygonalInstance(m=m, alpha=tuple(alpha))
    asum = inst.alpha_sum
    fj = f_J_series(m, m - 2, alpha, FULL_J, 4 * (n_max - asum))
    table = polygonal_count_table(inst, n_max, ALL_INTEGERS)
    checked = Fraction(n_max + 1)
    for n in range(n_max + 1):
        if fj.coeff(4 * (n - asum)) != int(table[n]):
            return IdentityReport(False, Fraction(n), checked)
    return IdentityReport(True, None, checked)
