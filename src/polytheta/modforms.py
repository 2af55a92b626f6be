"""Integer-exponent q-expansion toolkit: eta powers, the weight-two
Eisenstein expansion, character twists, the U/V index operators, and the
exact split of the unrestricted-count generating series into an Eisenstein
progression plus an eta-power cusp expansion.

All series here live on the integer lattice (D = 1) with exact coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import divisor_sigma, kronecker, sigma_table, twisted_divisor_sum_8
from .counting import CongruenceInstance, squares_count_table
from .qseries import QSeries

__all__ = [
    "eta_power",
    "eisenstein_E2",
    "twist",
    "U_op",
    "V_op",
    "eisenstein_progression",
    "e_series_identity_check",
    "ThetaSplitReport",
    "verify_theta_split",
    "corollary_main_terms",
]


def _integer_series(f: QSeries, name: str) -> QSeries:
    if f.D != 1:
        raise ValueError(f"{name} needs an integer-exponent series, got D={f.D}")
    return f


def eta_power(argument_multiplier: int, power: int, order: int) -> QSeries:
    """q^(a p / 24) prod_{n>=1} (1 - q^(a n))^p with a p = 0 (mod 24).

    The dedekind-eta prefactor keeps all exponents integral exactly when
    24 | a*p; other combinations are rejected.  Coefficients are exact
    integers, built from the sparse pentagonal-number expansion of the
    product and repeated squaring.
    """
    a, p = argument_multiplier, power
    if a < 1 or p < 1:
        raise ValueError("argument multiplier and power must be positive")
    if (a * p) % 24:
        raise ValueError(
            f"exponent lattice is not integral: a*p = {a * p} is not divisible by 24")
    # prod (1 - q^(a n)) = sum_j (-1)^j q^(a j (3j-1)/2)
    base: dict[int, int] = {}
    j = 0
    while True:
        done = True
        for jj in (j, -j) if j else (0,):
            e = a * jj * (3 * jj - 1) // 2
            if e < order:
                base[e] = base.get(e, 0) + (-1) ** (jj % 2)
                done = False
        if done and j > 0:
            break
        j += 1
    f = QSeries(1, order, base)
    out = QSeries.one(1, order)
    g, e = f, p
    while e:
        if e & 1:
            out = (out * g).truncate(order)
        e >>= 1
        if e:
            g = (g * g).truncate(order)
    return out.shift(a * p // 24).truncate(order)


def eisenstein_E2(order: int) -> QSeries:
    """1 - 24 sum_{n>=1} sigma(n) q^n."""
    sig = sigma_table(max(order - 1, 0))
    coeffs = {0: 1}
    for n in range(1, order):
        coeffs[n] = -24 * int(sig[n])
    return QSeries(1, order, coeffs)


def twist(f: QSeries, D: int) -> QSeries:
    """Coefficientwise twist by the Kronecker character n -> (D/n)."""
    f = _integer_series(f, "twist")
    return QSeries(1, f.order,
                   {n: kronecker(D, n) * c for n, c in f.coeffs.items()})


def U_op(f: QSeries, delta: int) -> QSeries:
    """Index contraction: coefficient at n becomes the old one at delta*n."""
    f = _integer_series(f, "U_op")
    if delta < 1:
        raise ValueError(f"need delta >= 1, got {delta}")
    order = (f.order + delta - 1) // delta
    return QSeries(1, order,
                   {n // delta: c for n, c in f.coeffs.items() if n % delta == 0})


def V_op(f: QSeries, delta: int) -> QSeries:
    """Index dilation: coefficient moves from n to delta*n."""
    f = _integer_series(f, "V_op")
    if delta < 1:
        raise ValueError(f"need delta >= 1, got {delta}")
    order = delta * (f.order - 1) + 1 if f.order > 0 else f.order * delta
    return QSeries(1, order, {delta * n: c for n, c in f.coeffs.items()})


def eisenstein_progression(order: int) -> QSeries:
    """sum over n = 1 (mod 6) of sigma(n) q^n."""
    sig = sigma_table(max(order - 1, 0))
    return QSeries(1, order,
                   {n: int(sig[n]) for n in range(1, order, 6)})


def e_series_identity_check(order: int = 1000) -> bool:
    """Exact check that the progression series equals
    -(1/48) (E2 twisted by chi_-3 + E2 twisted by chi_-3^2) with the
    even-index part removed (1 - U_2 V_2)."""
    e2 = eisenstein_E2(order)
    t1 = twist(e2, -3)
    sq = QSeries(1, e2.order,
                 {n: kronecker(-3, n) ** 2 * c for n, c in e2.coeffs.items()})
    combo = t1 + sq
    combo = combo - V_op(U_op(combo, 2), 2)
    rhs = Fraction(-1, 48) * combo
    ok, _ = eisenstein_progression(order).agree(rhs)
    return ok


@dataclass(frozen=True)
class ThetaSplitReport:
    ok: bool
    first_mismatch: int | None
    order: int


def verify_theta_split(order: int = 200) -> ThetaSplitReport:
    """Exact check, on integer exponents w < order, that the unrestricted
    count of x = 5 (mod 6), weights (1,1,1,1), at w equals
    (2/3) [progression series at w/4] + (1/3) [eta(24 tau)^4 at w].

    Counts come from the brute-force convolution table, so both sides are
    independent integer computations; the comparison is 3*s = 2*e + c with
    everything integral.
    """
    if order < 1:
        raise ValueError(f"need order >= 1, got {order}")
    inst = CongruenceInstance(r=5, M=6, alpha=(1, 1, 1, 1))
    s_star = squares_count_table(inst, order - 1)
    eta4 = eta_power(24, 4, order)
    sig = sigma_table(max((order - 1) // 4, 1))
    for w in range(order):
        e_coeff = 0
        if w % 4 == 0 and w > 0 and (w // 4) % 6 == 1:
            e_coeff = int(sig[w // 4])
        c_coeff = int(eta4.coeff(w)) if w < eta4.order else 0
        if 3 * int(s_star[w]) != 2 * e_coeff + c_coeff:
            return ThetaSplitReport(ok=False, first_mismatch=w, order=order)
    return ThetaSplitReport(ok=True, first_mismatch=None, order=order)


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
