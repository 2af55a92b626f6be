from fractions import Fraction

import numpy as np
import oracles
import pytest

from polytheta import modforms as mf
from polytheta.arith import (divisor_sigma, kronecker, phi_table,
                             twisted8_table)
from polytheta.checks import FAMILIES, main_term_table
from polytheta.circle import error_exponent_fit


def brute_product_fourth_power(kmax: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - x^n)^4 by plain polynomial expansion."""
    coeffs = [0] * (kmax + 1)
    coeffs[0] = 1
    for n in range(1, kmax + 1):
        for _ in range(4):
            for k in range(kmax, n - 1, -1):
                coeffs[k] -= coeffs[k - n]
    return coeffs


def test_eta4_matches_brute_product():
    f = mf.eta_power(24, 4, 1000)
    brute = brute_product_fourth_power(41)
    for k in range(42):
        e = 24 * k + 4
        if e < 1000:
            assert f.coeff(e) == brute[k], k
    # spot values forced by the expansion
    assert [f.coeff(e) for e in (4, 28, 52, 76, 100)] == [1, -4, 2, 8, -5]
    # nothing off the 4 mod 24 progression
    assert all(i % 24 == 4 for i in f.coeffs)


def test_eta_power_leading_term():
    f = mf.eta_power(24, 4, 10)
    assert f.coeff(4) == 1
    assert f.effective_valuation == 4


def test_eta_power_other_shapes():
    # eta(tau)^24: starts q - 24 q^2 + 252 q^3 - 1472 q^4 (the discriminant)
    f = mf.eta_power(1, 24, 6)
    assert [f.coeff(i) for i in range(1, 6)] == [1, -24, 252, -1472, 4830]
    # eta(2 tau)^12: exponents 1 + 2k
    g = mf.eta_power(2, 12, 20)
    assert g.coeff(1) == 1


def test_eta_power_rejects_fractional_lattice():
    with pytest.raises(ValueError):
        mf.eta_power(1, 4, 50)
    with pytest.raises(ValueError):
        mf.eta_power(5, 4, 50)
    # 24 | a*p keeps the lattice integral even for p != 24
    assert mf.eta_power(8, 3, 30).coeff(1) == 1
    assert mf.eta_power(24, 3, 80).coeff(3) == 1


@pytest.mark.parametrize("a, p, order", [
    (24, 4, 20_000), (24, 1, 3000), (8, 3, 3000), (2, 12, 200), (24, 3, 500),
    (1, 24, 300)])
def test_eta_power_matches_squaring_oracle(a, p, order):
    got, ref = mf.eta_power(a, p, order), oracles.eta_power(a, p, order)
    assert (got.D, got.order, got.coeffs) == (ref.D, ref.order, ref.coeffs)
    assert all(type(c) is int for c in got.coeffs.values())
    # eta(tau)^24's factors pass the int64 bound at order 300: Python ints
    assert mf._eta_table(a, p, order).dtype == (object if p == 24 else np.int64)


def test_eta_closed_forms():
    # eta(24 tau) = sum chi_12(n) q^(n^2); eta(8 tau)^3 = sum chi_-4(n) n q^(n^2)
    order = 20_000
    for a, p, weight in ((24, 1, lambda n: kronecker(12, n)),
                         (8, 3, lambda n: kronecker(-4, n) * n)):
        ref = {n * n: weight(n) for n in range(1, order)
               if n * n < order and weight(n)}
        assert mf.eta_power(a, p, order).coeffs == ref, (a, p)


@pytest.mark.parametrize("order", [0, -5])
def test_bad_order_fails_clearly(order):
    with pytest.raises(ValueError, match="need order >= 1"):
        mf.eta_power(24, 4, order)
    with pytest.raises(ValueError, match="need order >= 1"):
        mf.e_series_identity_check(order)
    with pytest.raises(ValueError, match="need order >= 1"):
        mf.verify_theta_split(order)


def test_eta4_empirical_coefficient_growth():
    # |a(n)| stays within a mild power of n (spot check of the square-root
    # cusp-form scaling; exponent fitted, not assumed)
    f = mf.eta_power(24, 4, 10_001)
    ns, cs = zip(*((i, abs(int(c))) for i, c in f.items() if c))
    fit = error_exponent_fit(np.array(ns, float), np.array(cs, float))
    assert fit.slope < 0.6
    ratio = max(c / n ** 0.6 for n, c in zip(ns, cs))
    assert ratio < 3.0


ORDERS = (1, 29, 200, 1001, 2000, 20_000, 100_000)


def test_e_series_composite_identity_exact():
    for order in ORDERS:
        assert mf.e_series_identity_check(order), order


def test_e_series_identity_detects_perturbed_sigma(monkeypatch):
    # E2 reads the sieve and the progression reads divisor_sigma, so one
    # wrong sieve entry at n = 1 (mod 6) breaks the identity there
    sieve = mf.sigma_table

    def perturbed(nmax):
        t = sieve(nmax)
        t[7] += 1
        return t
    monkeypatch.setattr(mf, "sigma_table", perturbed)
    assert not mf.e_series_identity_check(200)


def test_theta_split_exact_and_mutation_detected(monkeypatch):
    for order in ORDERS:
        rep = mf.verify_theta_split(order)
        assert rep.ok and rep.first_mismatch is None and rep.order == order
    # negative control: one perturbed cusp coefficient, on the 4 (mod 24)
    # progression or off it, is the first mismatch
    table = mf._eta_table
    for w in (28, 101):
        def perturbed(a, p, order, w=w):
            t = table(a, p, order)
            t[w] += 1
            return t
        monkeypatch.setattr(mf, "_eta_table", perturbed)
        rep = mf.verify_theta_split(200)
        assert not rep.ok and rep.first_mismatch == w


def test_theta_split_on_progression():
    # restatement on the arithmetic progression 24n + 4
    from polytheta.counting import CongruenceInstance, squares_count_table
    order = 24 * 50 + 5
    s = squares_count_table(CongruenceInstance(r=5, M=6, alpha=(1, 1, 1, 1)),
                            order)
    eta4 = mf.eta_power(24, 4, order)
    for n in range(51):
        w = 24 * n + 4
        lhs = Fraction(int(s[w]))
        rhs = Fraction(2, 3) * divisor_sigma(6 * n + 1) + \
            Fraction(1, 3) * eta4.coeff(w)
        assert lhs == rhs, n


def test_corollary_main_terms():
    assert mf.corollary_main_terms("hexagonal", 0) == Fraction(1, 16)
    assert mf.corollary_main_terms("hexagonal2", 0) == Fraction(1, 16)
    assert mf.corollary_main_terms("pentagonal", 1) == Fraction(1, 3)
    with pytest.raises(ValueError):
        mf.corollary_main_terms("square", 1)
    with pytest.raises(ValueError):
        mf.corollary_main_terms("hexagonal", -1)


def test_main_term_table_matches_per_index_main_terms():
    # the per-index divisor sums are the oracle for the sieved table
    rng = np.random.default_rng(0)
    sample = sorted(int(n) for n in rng.integers(0, 100_001, size=100))
    for fam in FAMILIES:
        small, large = main_term_table(fam, 300), main_term_table(fam, 100_000)
        assert len(small) == 301 and len(large) == 100_001
        assert all(small[n] == float(mf.corollary_main_terms(fam, n))
                   for n in range(301)), fam
        assert all(large[n] == float(mf.corollary_main_terms(fam, n))
                   for n in sample), fam


@pytest.mark.parametrize("nmax", [0, 1, 2, 300, 100_000])
def test_main_term_table_matches_full_table_slices(nmax):
    # the odd sieve read at 2n+1, 6n+1 and 8n+5 against those entries of the
    # tables over every n
    assert np.array_equal(main_term_table("hexagonal", nmax),
                          oracles.sigma_table(2 * nmax + 1)[1::2].astype(float) / 16.0)
    assert np.array_equal(main_term_table("pentagonal", nmax),
                          oracles.sigma_table(6 * nmax + 1)[1::6].astype(float) / 24.0)
    assert np.array_equal(main_term_table("hexagonal2", nmax),
                          -oracles.twisted8_table(8 * nmax + 5)[5::8].astype(float) / 64.0)


def test_twisted_main_term_positive_via_phi():
    # positivity of the twisted divisor sum main term, against the totient
    phi = phi_table(8 * 10_000 + 5)
    tw = twisted8_table(8 * 10_000 + 5)
    m = np.arange(5, 8 * 10_000 + 6, 8)
    assert (-tw[m] >= phi[m]).all()
