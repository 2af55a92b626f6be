"""Reference routes the tests hold polytheta against.

The package integrates on its own Gauss-Legendre rules and sums the
principal values of lemma 5 as Fourier/residue series, with numpy alone.
These are the independent routes it is compared with: QUADPACK
(``scipy.integrate``) for the integrals and the Cauchy-weight principal
value, the Faddeeva closed form with digamma and Hurwitz-zeta tails
(``scipy.special``) for the principal values and their nu-sums,
scipy's Gauss-Legendre nodes for the rules, and lemma 4.2's three-series
expansion of the off-J transformed factor
(``false_theta_transformed_by_window``).  scipy is a test dependency
only; each oracle imports it when called.  ``eta_power`` is the dict-series
route to eta powers (pentagonal expansion and repeated ``QSeries``
squaring) that ``modforms._eta_table`` is held against.  ``sigma_table``,
``twisted8_table`` and ``jacobi_four_square_table`` sieve every n, even ones
included, by divisor pairs (``_divisor_pair_sum``): the route the odd-part
sieve and its even lifts in ``polytheta.arith`` are held against.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import isqrt
from typing import Sequence

import numpy as np

from polytheta.analytic import (_GAUSS_TAIL, PVIntegralParams, _arc_rows,
                                _gauss_pair, _gaussian_cutoff, _gaussian_sum,
                                _series_terms, _unit_phase, _window_entry)
from polytheta.counting import (ALL_INTEGERS, POSITIVE, PolygonalInstance,
                                count_polygonal, polygonal_count_table)
from polytheta.qseries import QSeries
from polytheta.series import (FULL_J, IdentityReport, false_theta_series,
                              partial_theta_series, theta_series)

# entries per Faddeeva block of ``nu_sum_batch``
_PV_CHUNK = 8192


def _by_node(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """v with one trailing unit axis per axis of z, so that it broadcasts
    against z (the nodes go on the trailing axis)."""
    return v.reshape(v.shape + (1,) * z.ndim)


def complex_quad(f, a: float, b: float, *, points: Sequence[float] | None = None,
                 tol: float = 1e-11) -> tuple[complex, float]:
    """Adaptive quadrature of a complex integrand; returns (value, error est)."""
    from scipy import integrate

    kw = {"limit": 200, "epsabs": tol, "epsrel": tol, "full_output": 1}
    if points is not None:
        pts = [p for p in points if a < p < b]
        if pts:
            kw["points"] = pts
    res_re = integrate.quad(lambda x: f(x).real, a, b, **kw)
    res_im = integrate.quad(lambda x: f(x).imag, a, b, **kw)
    return res_re[0] + 1j * res_im[0], res_re[1] + res_im[1]


def pv_cauchy_quad(params: PVIntegralParams, tol: float = 1e-11) -> complex:
    """QUADPACK's Cauchy-weight principal value of the defining integral,
    plus the half-residue term."""
    from scipy import integrate

    mu, z = params.mu, params.z
    w = cmath.pi * params.gaussian_weight
    L = max(math.sqrt(60.0 / w.real), 3.0 * abs(mu))
    kw = {"limit": 400, "epsabs": tol, "epsrel": tol,
          "weight": "cauchy", "wvar": float(mu), "full_output": 1}
    pv_re = integrate.quad(lambda x: cmath.exp(-w * x * x).real, -L, L, **kw)
    pv_im = integrate.quad(lambda x: cmath.exp(-w * x * x).imag, -L, L, **kw)
    pv = pv_re[0] + 1j * pv_im[0]
    sgn = 1 if mu > 0 else -1
    return pv + sgn * cmath.pi * 1j * cmath.exp(-w * mu * mu)


def pv_closed_form_batch(mus: np.ndarray, M: int, alpha_j: int, k: int,
                         z) -> np.ndarray:
    """Faddeeva-function closed form of the principal-value integral, for
    each entry of an array of nonzero integers mu, at a complex z (an array
    of mus' shape) or a 1-D array of z (mus' shape, then z's).

    With a = mu sqrt(pi V): pi i [(sgn(mu) + 1) exp(-a^2) - wofz(-a)],
    which is pi i sgn(mu) wofz(|mu| sqrt(pi V)) by wofz(-a) = 2 exp(-a^2) -
    wofz(a); one Faddeeva call per entry and no exponential.
    Odd in mu; asymptotically -2 sqrt(M k alpha_j z)/mu for large |mu|.
    """
    from scipy.special import wofz

    mus = np.asarray(mus)
    z = np.asarray(z, dtype=complex)
    s = np.sqrt(np.pi / (4.0 * M * k * alpha_j * z))
    return _by_node(np.pi * 1j * np.sign(mus), z) * wofz(_by_node(np.abs(mus), z) * s)


def nu_sum_batch(ells: Sequence[int], M: int, alpha_j: int, k: int, z,
                 terms: int = 24) -> np.ndarray:
    """For each l in ells: the nu=0-halved sum over nu >= 0 and both signs of
    the principal-value integrals at arguments l +- 2 M k nu, at a complex z
    (an array over ells) or a 1-D array of z (ells on the first axis, z's
    shape after it).

    The first ``terms`` shifted pairs are evaluated with the closed form; the
    remainder is summed analytically from the 1/mu, 1/mu^3 and 1/mu^5
    asymptotics (digamma and Hurwitz-zeta tails).  The residual error decays like
    terms^(-4).  The Faddeeva calls go in blocks of at most ``_PV_CHUNK``
    (window index, shifted pair, node) entries, one node at a time where
    the other axes alone are larger.
    """
    from scipy.special import digamma, zeta

    ells = np.asarray(list(ells), dtype=np.int64)
    if np.any(ells == 0) or np.any(np.abs(ells) > M * k) or np.any(ells < 1 - M * k):
        raise ValueError("window indices must lie in [1-Mk, -1] or [1, Mk]")
    z = np.asarray(z, dtype=complex)
    step = 2 * M * k
    nu = np.arange(1, terms + 1, dtype=np.int64)
    # arguments: l itself, then the +- pairs for nu = 1..terms
    mus = np.concatenate([
        ells[:, None],
        ells[:, None] + step * nu[None, :],
        ells[:, None] - step * nu[None, :],
    ], axis=1).astype(np.float64)
    nodes = z.reshape(-1)
    per = max(1, _PV_CHUNK // max(mus.size, 1))
    partial = np.concatenate(
        [pv_closed_form_batch(mus, M, alpha_j, k, nodes[i:i + per]).sum(axis=1)
         for i in range(0, nodes.size, per)], axis=1).reshape(ells.shape + z.shape)
    # analytic tails from the large-mu expansion: mainC/mu + cubicC/mu^3 +
    # quinticC/mu^5 + O(mu^-7); paired tails reduce to digamma and
    # Hurwitz-zeta differences
    Vc = 1.0 / (4.0 * M * k * alpha_j * z)
    sqVc = np.sqrt(Vc)
    mainC = -1.0 / sqVc
    cubicC = -1.0 / (2.0 * np.pi * Vc * sqVc)
    quinticC = -3.0 / (4.0 * np.pi**2 * Vc * Vc * sqVc)
    x = ells / step
    V1 = terms + 1
    tail = mainC / step * _by_node(digamma(V1 - x) - digamma(V1 + x), z)
    tail += cubicC / step**3 * _by_node(zeta(3, V1 + x) - zeta(3, V1 - x), z)
    tail += quinticC / step**5 * _by_node(zeta(5, V1 + x) - zeta(5, V1 - x), z)
    return partial + tail


def window_sum_by_sines(dT: np.ndarray, M: int, alpha_j: int, k: int,
                        z: np.ndarray) -> np.ndarray:
    """``analytic._window_sum`` of one arc (dT a length-2Mk table, odd mod
    2Mk; z a 1-D array of nodes) with its sine transform from the table of
    exact angles: D(m) = sum over l = 1..Mk-1 of dT[l] sin(2 pi m l/L),
    L = 2Mk, each angle 2 pi (m l mod L)/L reduced in integers and the table
    contracted by np.einsum; and with one exponential per term of both
    Gaussian series, through the package's cutoffs."""
    L = 2 * M * k
    ells = np.arange(1, M * k)
    j = np.arange(L)
    sines = np.sin(2 * np.pi * j / L)[(j[:, None] * ells) % L]
    D = np.einsum("jl,l->j", sines, dT[ells])

    def series(coef, rate):
        cut = int(_gaussian_cutoff(rate.real.min(), _GAUSS_TAIL, 1))
        m = np.arange(1, cut + 1)
        return (coef[m % L, None] * np.exp(-(m * m)[:, None] * rate)).sum(axis=0)

    fourier = series(D, np.pi * alpha_j / (M * k) * z)
    residues = series(dT, np.pi / (4 * M * k * alpha_j * z))
    return (-4j / (M * k)) * np.sqrt(M * k * alpha_j * z) * fourier - 2 * residues


def false_theta_transformed_by_window(r: int, M: int, alpha_j: int, h, k,
                                      z) -> np.ndarray:
    """The off-J factor of ``analytic._transformed_sum`` as lemma 4.2
    expands it: the nu-sum of g(nu) [T(nu) - T(-nu)] (nu = 0 halved, each
    row to its own tail) plus half the principal-value window
    ``analytic._window_entry``, times e(alpha_j h r^2/(2Mk)) /
    (2 sqrt(M k alpha_j z)); h, k and z as for ``_transformed_sum``.  The
    package sums the window's Fourier series alone, since the nu-sum and
    the window's residue series cancel identically; this sums all three."""
    shape, h, k, z = _arc_rows(h, k, z)
    w = np.pi / (4 * M * alpha_j * k * z)
    nus, keep = _series_terms(w, 9, 0)
    coef = _gauss_pair(r, M, alpha_j, h, k, nus, -1).T[..., None]
    coef[0] /= 2
    total = _gaussian_sum(coef * keep, -w, 0, 1)
    total += _window_entry(r, M, alpha_j, h, k, z) / 2
    out = _unit_phase(alpha_j * h * r * r, 2 * M * k) / (
        2 * np.sqrt(M * alpha_j * k * z)) * total
    return out.reshape(shape)


def legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """scipy's m-point Gauss-Legendre nodes and weights, mapped to [0, 1]."""
    from scipy.special import roots_legendre

    x, w = roots_legendre(m)
    return (x + 1) / 2, w / 2


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


def _divisor_pair_sum(w: np.ndarray) -> np.ndarray:
    """sum_{d|n} w[d] for 0 <= n < len(w) as int64 (index 0 set to 0).

    Each n = d*q with d <= q is visited once from its smaller divisor d <=
    isqrt(nmax): the first slice adds the cofactor term w[q] for every q >= d,
    the second the divisor term w[d] for every q > d (q == d is one divisor).
    """
    nmax = len(w) - 1
    out = np.zeros(nmax + 1, dtype=np.int64)
    for d in range(1, isqrt(max(nmax, 0)) + 1):
        out[d * d::d] += w[d:nmax // d + 1]
        out[d * d + d::d] += w[d]
    return out


def sigma_table(nmax: int) -> np.ndarray:
    """sigma(n) for 0 <= n <= nmax (entry 0 set to 0), every n sieved."""
    return _divisor_pair_sum(np.arange(nmax + 1, dtype=np.int64))


def twisted8_table(nmax: int) -> np.ndarray:
    """sum_{d|n} (8/d) d for 0 <= n <= nmax, every n sieved."""
    w = np.arange(nmax + 1, dtype=np.int64)
    w[::2] = 0
    w[3::8] *= -1
    w[5::8] *= -1
    return _divisor_pair_sum(w)


def jacobi_four_square_table(nmax: int) -> np.ndarray:
    """r_4(n) = 8 sigma(n) - 32 sigma(n/4) (the last term at 4 | n only) for
    0 <= n <= nmax, with entry 0 set to 1."""
    sig = sigma_table(nmax)
    out = 8 * sig
    idx4 = np.arange(0, nmax + 1, 4)
    out[idx4] -= 32 * sig[idx4 // 4]
    out[0] = 1
    return out


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


def phi_table(nmax: int) -> np.ndarray:
    """Euler phi(n) for 0 <= n <= nmax as int64 (index 0 set to 0), one
    scalar primality test and one strided update per prime p <= nmax."""
    phi = np.arange(nmax + 1, dtype=np.int64)
    phi[0] = 0
    for p in range(2, nmax + 1):
        if phi[p] == p:  # p prime (untouched so far)
            phi[p::p] -= phi[p::p] // p
    return phi
