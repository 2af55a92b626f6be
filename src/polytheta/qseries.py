"""Exact truncated series in a fractional power of q.

A ``QSeries`` lives on the exponent lattice (1/D) * Z: coefficients are exact
rationals, stored as ``int`` where integral, keyed by integer lattice index
(negative indices are allowed, so Laurent-type prefactors work).  Indices at
or beyond ``order`` are *unknown*, not zero, and every operation tracks the
tightest truncation order it can guarantee for its result.  No floating point
appears anywhere in this module.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union

Rational = Union[int, Fraction]

__all__ = ["QSeries", "TruncationError"]


class TruncationError(KeyError):
    """Requested a coefficient at or beyond the known truncation order."""


class QSeries:
    """Truncated series sum_i c_i q^(i/D) with exact rational coefficients,
    stored as ``int`` where integral.

    Every product and sum of integral coefficients then runs on machine
    integers; ``coeff`` and ``coeff_index`` still return a ``Fraction``.
    """

    __slots__ = ("D", "order", "coeffs")

    def __init__(self, D: int, order: int, coeffs: Mapping[int, Rational]):
        if D < 1:
            raise ValueError(f"lattice denominator must be positive, got {D}")
        clean: dict[int, Rational] = {}
        for idx, c in coeffs.items():
            if type(c) is not int:
                c = Fraction(c)
                if c.denominator == 1:
                    c = c.numerator
            if c == 0:
                continue
            if idx >= order:
                raise ValueError(
                    f"coefficient at lattice index {idx} >= truncation order {order}"
                )
            clean[idx] = c
        self.D = D
        self.order = order
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, D: int = 1, order: int = 1) -> "QSeries":
        return cls(D, order, {0: 1})

    # -- basic views --------------------------------------------------------

    @property
    def truncation(self) -> Fraction:
        """Exponent bound: coefficients at exponents < truncation are known."""
        return Fraction(self.order, self.D)

    @property
    def effective_valuation(self) -> int:
        """Lattice index v with a guarantee that the series is O(q^(v/D))."""
        if not self.coeffs:
            return self.order
        return min(min(self.coeffs), self.order)

    def coeff_index(self, idx: int) -> Fraction:
        if idx >= self.order:
            raise TruncationError(
                f"lattice index {idx} is at or beyond truncation order {self.order}"
            )
        return Fraction(self.coeffs.get(idx, 0))

    def coeff(self, exponent: Rational) -> Fraction:
        """Coefficient of q^exponent (0 off-lattice, error beyond truncation)."""
        e = Fraction(exponent)
        idx = e * self.D
        if e >= self.truncation:
            raise TruncationError(
                f"exponent {e} is at or beyond truncation {self.truncation}"
            )
        if idx.denominator != 1:
            return Fraction(0)
        return Fraction(self.coeffs.get(int(idx), 0))

    def items(self) -> list[tuple[int, Rational]]:
        return sorted(self.coeffs.items())

    def __repr__(self) -> str:
        head = ", ".join(
            f"{c}*q^({i}/{self.D})" for i, c in self.items()[:6]
        )
        more = "" if len(self.coeffs) <= 6 else ", ..."
        return f"QSeries({head}{more}; D={self.D}, order={self.order})"

    # -- lattice housekeeping ------------------------------------------------

    def rescale(self, D_new: int) -> "QSeries":
        """Re-express on a finer lattice; D_new must be a multiple of D."""
        if D_new == self.D:
            return self
        if D_new % self.D:
            raise ValueError(f"{D_new} is not a multiple of lattice {self.D}")
        f = D_new // self.D
        return QSeries(D_new, self.order * f,
                       {i * f: c for i, c in self.coeffs.items()})

    def normalize(self) -> "QSeries":
        """Reduce the lattice denominator to the smallest faithful one."""
        g = self.D
        for i in self.coeffs:
            g = gcd(g, i)
            if g == 1:
                return self
        if g == 1:
            return self
        # a coarse index i' is known iff its exponent i' g/D is below the
        # old bound order/D, i.e. i' < ceil(order/g)
        return QSeries(self.D // g, _ceil_div(self.order, g),
                       {i // g: c for i, c in self.coeffs.items()})

    def _common(self, other: "QSeries") -> tuple["QSeries", "QSeries"]:
        D = lcm(self.D, other.D)
        return self.rescale(D), other.rescale(D)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._common(other)
        order = min(a.order, b.order)
        coeffs = {i: c for i, c in a.coeffs.items() if i < order}
        for i, c in b.coeffs.items():
            if i < order:
                s = coeffs.get(i, 0) + c
                if s:
                    coeffs[i] = s
                elif i in coeffs:
                    del coeffs[i]
        return QSeries(a.D, order, coeffs)

    def __neg__(self) -> "QSeries":
        return QSeries(self.D, self.order, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c: Rational) -> "QSeries":
        c = Fraction(c)
        if c == 0:
            return QSeries(self.D, self.order, {})
        return QSeries(self.D, self.order, {i: c * v for i, v in self.coeffs.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._common(other)
        order = min(a.order + b.effective_valuation,
                    b.order + a.effective_valuation)
        coeffs: dict[int, Rational] = {}
        bi = b.items()
        for i, c in a.coeffs.items():
            for j, d in bi:
                k = i + j
                if k >= order:
                    break
                s = coeffs.get(k, 0) + c * d
                if s:
                    coeffs[k] = s
                elif k in coeffs:
                    del coeffs[k]
        return QSeries(a.D, order, coeffs)

    # -- exponent manipulations ----------------------------------------------

    def shift(self, exponent: Rational) -> "QSeries":
        """Multiply by q^exponent (exponent may be negative or fractional)."""
        e = Fraction(exponent)
        D = lcm(self.D, e.denominator)
        a = self.rescale(D)
        off = int(e * D)
        return QSeries(D, a.order + off, {i + off: c for i, c in a.coeffs.items()})

    def substitute(self, a: Rational) -> "QSeries":
        """Replace q by q^a for rational a > 0."""
        a = Fraction(a)
        if a <= 0:
            raise ValueError(f"substitution power must be positive, got {a}")
        D = self.D * a.denominator
        p = a.numerator
        return QSeries(D, self.order * p,
                       {i * p: c for i, c in self.coeffs.items()})

    def truncate(self, truncation: Rational) -> "QSeries":
        """Restrict knowledge to exponents < truncation (cannot extend)."""
        order = min(self.order, _ceil_index(truncation, self.D))
        return QSeries(self.D, order,
                       {i: c for i, c in self.coeffs.items() if i < order})

    # -- comparison ----------------------------------------------------------

    def agree(self, other: "QSeries") -> tuple[bool, Fraction | None]:
        """Coefficientwise comparison up to the common truncation.

        Returns (True, None) on agreement, else (False, first mismatching
        exponent).
        """
        a, b = self._common(other)
        bound = min(a.order, b.order)
        keys = {i for i in a.coeffs if i < bound} | {i for i in b.coeffs if i < bound}
        for i in sorted(keys):
            if a.coeffs.get(i, 0) != b.coeffs.get(i, 0):
                return False, Fraction(i, a.D)
        return True, None

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "D": self.D,
            "order": self.order,
            "entries": [[i, c.numerator, c.denominator] for i, c in self.items()],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "QSeries":
        coeffs = {int(i): Fraction(int(num), int(den))
                  for i, num, den in obj["entries"]}
        return cls(int(obj["D"]), int(obj["order"]), coeffs)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _ceil_index(truncation: Rational, D: int) -> int:
    t = Fraction(truncation) * D
    return _ceil_div(t.numerator, t.denominator)
