import math
import tracemalloc

import numpy as np
import oracles
import pytest

from polytheta import arith


def test_gauss_sum_two_term_cancellation():
    assert abs(arith.gauss_sum(1, 0, 2)) < 1e-14


def test_gauss_sum_four_term():
    assert arith.gauss_sum(1, 0, 4) == pytest.approx(2 + 2j, abs=1e-13)


def test_gauss_sum_magnitude_odd_modulus():
    # |G(a,0;c)| = sqrt(c) for odd c with gcd(a,c) = 1
    for c in range(1, 100, 2):
        for a in (1, 2, c - 1):
            if math.gcd(a, c) != 1:
                continue
            assert abs(arith.gauss_sum(a, 0, c)) == pytest.approx(
                math.sqrt(c), rel=1e-10)


def test_gauss_sum_periodicity_exact():
    for (a, b, c) in [(3, 5, 7), (10, 4, 6), (-2, 13, 9)]:
        assert arith.gauss_sum(a, b, c) == arith.gauss_sum(a % c, b % c, c)


def test_gauss_sum_conjugation():
    for (a, b, c) in [(1, 0, 5), (2, 3, 7), (3, 1, 12)]:
        lhs = arith.gauss_sum(-a, -b, c)
        rhs = arith.gauss_sum(a, b, c).conjugate()
        assert abs(lhs - rhs) < 1e-10


def test_gauss_sum_table_matches_scalar():
    # every a and b mod c: against the scalar sum for c <= 40, and at
    # c = 401 (where accumulating the twiddle e(l/c) over b drifts past
    # 1e-12) against the defining sum as one dense product
    # sum_l e(a l^2/c) e(b l/c), each exponent reduced mod c in integers
    for c in range(1, 41):
        for a in range(c):
            tab = arith.gauss_sum_table(a, c)
            for b in range(c):
                assert abs(tab[b] - arith.gauss_sum(a, b, c)) <= 1e-12, (a, b, c)
    c = 401
    ell = np.arange(c)
    roots = np.exp((2j * np.pi / c) * ell)
    dense = roots[np.outer(ell, ell * ell) % c] @ roots[np.outer(ell, ell) % c]
    tables = np.array([arith.gauss_sum_table(a, c) for a in range(c)])
    gap = np.abs(tables - dense)
    assert gap.max() <= 1e-12, np.unravel_index(gap.argmax(), gap.shape)


def test_gauss_sum_rejects_bad_modulus():
    with pytest.raises(ValueError):
        arith.gauss_sum(1, 1, 0)


def test_sigma_values():
    assert arith.divisor_sigma(1) == 1
    assert arith.divisor_sigma(6) == 12
    assert arith.divisor_sigma(28) == 56
    with pytest.raises(ValueError):
        arith.divisor_sigma(0)


def test_sigma_phi_multiplicative_on_coprime_pairs():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = int(rng.integers(1, 100)), int(rng.integers(1, 100))
        if math.gcd(a, b) != 1:
            continue
        assert arith.divisor_sigma(a * b) == arith.divisor_sigma(a) * arith.divisor_sigma(b)
        assert arith.euler_phi(a * b) == arith.euler_phi(a) * arith.euler_phi(b)


def test_kronecker_basics():
    # (8/d) for odd d depends on d mod 8 only
    for d in range(1, 200, 2):
        expect = 1 if d % 8 in (1, 7) else -1
        assert arith.kronecker(8, d) == expect
    # even second argument with even first vanishes
    assert arith.kronecker(8, 6) == 0
    assert arith.kronecker(2, 0) == 0
    assert arith.kronecker(1, 0) == 1
    assert arith.kronecker(-1, -1) == -1


def test_kronecker_legendre_agreement():
    # against Euler's criterion for odd primes
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            euler = -1 if euler == p - 1 else euler
            assert arith.kronecker(a, p) == euler


def test_twisted_divisor_sum_example():
    assert arith.twisted_divisor_sum_8(5) == -4
    assert arith.twisted_divisor_sum_8(1) == 1


def test_twisted_sum_dominates_phi():
    # -sum_{d | 8n+5} (8/d) d >= phi(8n+5), checked well into the range
    phi = arith.phi_table(8 * 2000 + 5)
    tw = arith.twisted8_table(8 * 2000 + 5)
    for n in range(2001):
        m = 8 * n + 5
        assert -tw[m] >= phi[m]


def test_tables_match_scalars():
    sig = arith.sigma_table(300)
    phi = arith.phi_table(300)
    tw = arith.twisted8_table(301)
    for n in range(1, 301):
        assert sig[n] == arith.divisor_sigma(n)
        assert phi[n] == arith.euler_phi(n)
        assert tw[n] == arith.twisted_divisor_sum_8(n)
    # tables whose nmax sits on a square boundary of the divisor-pair sieve
    for nmax in (0, 1, 2, 3, 4, 8, 9, 24, 25, 289):
        sig = arith.sigma_table(nmax)
        tw = arith.twisted8_table(nmax)
        assert len(sig) == len(tw) == nmax + 1
        assert sig[0] == tw[0] == 0
        for n in range(1, nmax + 1):
            assert sig[n] == arith.divisor_sigma(n)
            assert tw[n] == arith.twisted_divisor_sum_8(n)
    rng = np.random.default_rng(20261018)
    sig = arith.sigma_table(360001)
    for n in rng.integers(1, 360002, size=200):
        assert sig[n] == arith.divisor_sigma(int(n))
    tw = arith.twisted8_table(480005)
    for n in rng.integers(1, 480006, size=200):
        assert tw[n] == arith.twisted_divisor_sum_8(int(n))


def test_jacobi_table_entries():
    tab = arith.jacobi_four_square_table(20)
    # 8 * sum of divisors not divisible by 4
    assert tab[0] == 1
    assert tab[1] == 8
    assert tab[2] == 24
    assert tab[4] == 8 * (1 + 2)  # divisor 4 excluded
    assert tab[12] == 8 * (1 + 2 + 3 + 6)


DIVISOR_TABLES = ("sigma_table", "twisted8_table", "jacobi_four_square_table")


@pytest.mark.parametrize("name", DIVISOR_TABLES)
def test_divisor_tables_match_every_n_sieve(name):
    # the odd-part sieve with its even lifts against the sieve over every n,
    # at every small size (each parity of nmax, every square boundary) and at
    # the benchmark's sizes
    table, oracle = getattr(arith, name), getattr(oracles, name)
    for nmax in [*range(601), 360001, 480005, 2000001]:
        got, want = table(nmax), oracle(nmax)
        assert got.dtype == want.dtype == np.int64, (name, nmax)
        assert np.array_equal(got, want), (name, nmax)


def test_phi_table_matches_every_prime_sieve():
    # the sieve over primes <= sqrt(nmax) plus one step for the prime above
    # it, against the strided update for every prime <= nmax, at every small
    # size (each square boundary, primes and prime squares at the end) and
    # at sizes where n has a prime factor far above sqrt(nmax)
    for nmax in [*range(601), 80005, 1000003]:
        got, want = arith.phi_table(nmax), oracles.phi_table(nmax)
        assert got.dtype == want.dtype == np.int64, nmax
        assert np.array_equal(got, want), nmax


def _peak_over_output(build, nmax):
    tracemalloc.start()
    try:
        out = build(nmax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / out.nbytes


def test_divisor_tables_peak_memory():
    # the table plus one half-length array of odd entries (1.5x); sieving
    # every n holds the weights and the table at once (2.0x), which the
    # bound rejects
    bound = 1.6
    for name, nmax in (("sigma_table", 360001), ("twisted8_table", 480005)):
        assert _peak_over_output(getattr(arith, name), nmax) <= bound, name
        assert _peak_over_output(getattr(oracles, name), nmax) > bound, name


@pytest.mark.parametrize("name", [*DIVISOR_TABLES, "phi_table"])
def test_tables_size_rule(name):
    table = getattr(arith, name)
    empty = table(-1)
    assert empty.dtype == np.int64 and empty.size == 0
    for nmax in (-2, -5):
        with pytest.raises(ValueError, match=f"nmax={nmax}"):
            table(nmax)
