import itertools
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytheta import arith
from polytheta.counting import (ALL_INTEGERS, NON_NEGATIVE, POSITIVE,
                                CongruenceInstance, CountDomain,
                                PolygonalInstance, count_polygonal,
                                count_squares, polygonal_count_table,
                                polygonal_number, polygonal_to_squares,
                                squares_count_table)


def brute_polygonal(m, alpha, n, lower):
    """Blind four-fold loop used to cross-check the slicker counters."""
    bound = 1
    while polygonal_number(m, bound) * min(alpha) <= n:
        bound += 1
    lo = lower if lower is not None else -bound - 2
    vals = range(lo, bound + 1)
    return sum(1 for t in itertools.product(vals, repeat=4)
               if sum(a * polygonal_number(m, x) for a, x in zip(alpha, t)) == n)


def brute_squares(r, M, alpha, lower, nmax):
    """Blind four-fold loop: the number of x in Z^4 with every x_j = r (mod M)
    and x_j >= lower (if set) and sum_j alpha_j x_j^2 = n, for each n <= nmax."""
    b = isqrt(nmax)
    xs = [x for x in range(-b, b + 1)
          if (x - r) % M == 0 and (lower is None or x >= lower)]
    counts = [0] * (nmax + 1)
    for t in itertools.product(xs, repeat=4):
        v = sum(a * x * x for a, x in zip(alpha, t))
        if v <= nmax:
            counts[v] += 1
    return counts


def test_polygonal_number_values():
    assert polygonal_number(6, 0) == 0
    assert polygonal_number(3, 3) == 6
    assert polygonal_number(4, 5) == 25
    assert polygonal_number(6, 2) == 6
    assert polygonal_number(5, 3) == 12


def test_polygonal_number_triangular_reflection():
    for ell in range(-50, 51):
        assert polygonal_number(3, -ell - 1) == polygonal_number(3, ell)


def test_polygonal_number_rejects_small_m():
    with pytest.raises(ValueError):
        polygonal_number(2, 1)


def test_domain_aliases():
    assert CountDomain.at_least(1) == POSITIVE
    assert CountDomain.at_least(0) == NON_NEGATIVE
    assert str(ALL_INTEGERS) == "all"


def test_jacobi_four_squares_small():
    inst = PolygonalInstance(m=4, alpha=(1, 1, 1, 1))
    jac = arith.jacobi_four_square_table(50)
    for n in range(51):
        assert count_polygonal(inst, n, ALL_INTEGERS) == int(jac[n])


def test_count_polygonal_zero_case():
    for m in (3, 5, 6, 9):
        inst = PolygonalInstance(m=m, alpha=(3, 2, 1, 1))
        assert count_polygonal(inst, 0, NON_NEGATIVE) == 1


def test_hexagonal_example_n6():
    inst = PolygonalInstance(m=6, alpha=(1, 1, 1, 1))
    assert count_polygonal(inst, 6, NON_NEGATIVE) == 4


def test_count_polygonal_matches_blind_bruteforce():
    for m, alpha, lower in [(5, (1, 1, 1, 1), 0), (6, (2, 1, 1, 1), 1),
                            (7, (1, 1, 1, 1), None), (3, (1, 1, 1, 1), 0),
                            (4, (1, 1, 1, 1), None), (3, (2, 1, 1, 1), None),
                            (8, (2, 1, 1, 1), -2), (5, (1, 1, 1, 1), 2)]:
        inst = PolygonalInstance(m=m, alpha=alpha)
        dom = CountDomain(lower=lower)
        for n in range(25):
            assert count_polygonal(inst, n, dom) == brute_polygonal(
                m, inst.alpha, n, lower), (m, alpha, lower, n)


def test_count_squares_matches_blind_bruteforce():
    # unsorted alpha and negative residues, raw as the loop sees them
    alphas = [(1, 3, 2, 1), (2, 1, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2), (1, 2, 1, 1)]
    cases = itertools.product((1, 2, 3, 5, 8), (None, -3, 0, 1, 2))
    for i, (M, lower) in enumerate(cases):
        r, alpha = -1 - i % 4, alphas[i % len(alphas)]
        inst = CongruenceInstance(r=r, M=M, alpha=alpha, lower_bound=lower)
        got = [count_squares(inst, n) for n in range(81)]
        assert got == brute_squares(r, M, alpha, lower, 80), (r, M, alpha, lower)


def test_count_squares_distinct_weights_match_blind_bruteforce():
    # four distinct weights, so a counter that pairs or reuses the wrong
    # coordinates' values cannot agree by symmetry
    for alpha in [(5, 3, 2, 1), (1, 2, 4, 3), (2, 7, 1, 3)]:
        for r, M, lower in [(0, 1, None), (1, 2, None), (-1, 3, -2), (0, 1, 0)]:
            inst = CongruenceInstance(r=r, M=M, alpha=alpha, lower_bound=lower)
            got = [count_squares(inst, n) for n in range(81)]
            assert got == brute_squares(r, M, alpha, lower, 80), (
                r, M, alpha, lower)


def test_domain_monotonicity():
    for m, alpha in [(5, (1, 1, 1, 1)), (6, (3, 2, 1, 1)), (8, (1, 1, 1, 1))]:
        inst = PolygonalInstance(m=m, alpha=alpha)
        for n in range(80):
            p = count_polygonal(inst, n, POSITIVE)
            nn = count_polygonal(inst, n, NON_NEGATIVE)
            al = count_polygonal(inst, n, ALL_INTEGERS)
            assert p <= nn <= al


def test_count_squares_examples():
    assert count_squares(CongruenceInstance(r=1, M=2, alpha=(1, 1, 1, 1)), 4) == 16
    assert count_squares(CongruenceInstance(r=3, M=4, alpha=(1, 1, 1, 1)), 4) == 1
    # off the forced residue class the count vanishes
    inst = CongruenceInstance(r=1, M=4, alpha=(1, 1, 1, 1))
    for n in range(60):
        if n % 8 != 4 % 8:
            assert count_squares(inst, n) == 0


def test_count_squares_residue_class_forcing():
    # counts vanish unless n = r^2 sum(alpha) (mod 2M) for even modulus 2M
    for (r, twoM, alpha) in [(1, 4, (1, 1, 1, 1)), (3, 8, (2, 1, 1, 1)),
                             (5, 6, (1, 1, 1, 1))]:
        inst = CongruenceInstance(r=r, M=twoM, alpha=alpha)
        forced = (r * r * sum(alpha)) % twoM
        tab = squares_count_table(inst, 300)
        for n in range(301):
            if n % twoM != forced:
                assert tab[n] == 0


def test_eps_sign_bijection():
    # all-odd classes: the sixteen sign flips identify the mod-4 class count
    # with 1/16 of the mod-2 class count
    t12 = squares_count_table(CongruenceInstance(r=1, M=2, alpha=(1, 1, 1, 1)), 400)
    t34 = squares_count_table(CongruenceInstance(r=3, M=4, alpha=(1, 1, 1, 1)), 400)
    for n in range(401):
        assert t12[n] == 16 * t34[n]


def test_polygonal_to_squares_images():
    inst6 = PolygonalInstance(m=6, alpha=(1, 1, 1, 1))
    cong, shifted = polygonal_to_squares(inst6, 7)
    assert (cong.M, cong.lower_bound) == (8, -2)
    assert cong.r == (-2) % 8
    assert shifted == 32 * 7 + 16
    inst5 = PolygonalInstance(m=5, alpha=(1, 1, 1, 1))
    cong, shifted = polygonal_to_squares(inst5, 0)
    assert (cong.M, cong.lower_bound) == (6, -1)
    assert cong.r == (-1) % 6
    assert shifted == 4


def test_polygonal_to_squares_needs_m5():
    with pytest.raises(ValueError):
        polygonal_to_squares(PolygonalInstance(m=4, alpha=(1, 1, 1, 1)), 1)


def test_polygonal_to_squares_roundtrip():
    for m, alpha in [(6, (1, 1, 1, 1)), (5, (2, 1, 1, 1)), (7, (1, 1, 1, 1))]:
        inst = PolygonalInstance(m=m, alpha=alpha)
        for n in range(0, 201, 7):
            cong, shifted = polygonal_to_squares(inst, n)
            assert count_squares(cong, shifted) == count_polygonal(
                inst, n, NON_NEGATIVE)


def test_tables_match_per_index_counters():
    inst = PolygonalInstance(m=6, alpha=(2, 1, 1, 1))
    for dom in (ALL_INTEGERS, NON_NEGATIVE, POSITIVE):
        tab = polygonal_count_table(inst, 60, dom)
        for n in range(61):
            assert tab[n] == count_polygonal(inst, n, dom)
    cinst = CongruenceInstance(r=5, M=6, alpha=(1, 1, 1, 1))
    tab = squares_count_table(cinst, 120)
    for n in range(121):
        assert tab[n] == count_squares(cinst, n)
    # the last two have supports with entries 2 (x and -x in the same class)
    for cinst in (CongruenceInstance(r=5, M=6, alpha=(1, 1, 1, 1), lower_bound=-1),
                  CongruenceInstance(r=1, M=2, alpha=(2, 1, 1, 1)),
                  CongruenceInstance(r=0, M=1, alpha=(1, 1, 1, 1))):
        tab = squares_count_table(cinst, 120)
        for n in range(121):
            assert tab[n] == count_squares(cinst, n)


def assert_table_matches_counters(inst, nmax, domain=None):
    if domain is None:
        got = squares_count_table(inst, nmax)
        want = [count_squares(inst, n) for n in range(nmax + 1)]
    else:
        got = polygonal_count_table(inst, nmax, domain)
        want = [count_polygonal(inst, n, domain) for n in range(nmax + 1)]
    assert got.dtype == np.int64
    assert got.tolist() == want


EDGE_CASES = [  # (instance, polygonal domain or None for squares, nmax)
    # nmax 0 and 1: only the zero vector, or the first class values
    *[(inst, dom, nmax) for nmax in (0, 1) for inst, dom in (
        (CongruenceInstance(r=0, M=1, alpha=(1, 1, 1, 1)), None),
        (CongruenceInstance(r=1, M=2, alpha=(1, 1, 1, 1)), None),
        (CongruenceInstance(r=0, M=1, alpha=(3, 1, 2, 1), lower_bound=0), None),
        (PolygonalInstance(m=6, alpha=(1, 1, 1, 1)), NON_NEGATIVE),
        (PolygonalInstance(m=5, alpha=(2, 1, 1, 1)), ALL_INTEGERS),
        (PolygonalInstance(m=3, alpha=(1, 1, 1, 1)), POSITIVE))],
    # a coordinate whose class has no value <= nmax: one, three or all four
    # value arrays empty
    (CongruenceInstance(r=1, M=2, alpha=(1, 1, 1, 50)), None, 40),
    (CongruenceInstance(r=1, M=2, alpha=(60, 50, 1, 70)), None, 40),
    (CongruenceInstance(r=0, M=1, alpha=(1, 1, 1, 1), lower_bound=7), None, 40),
    # r = 0 and r = M/2: x and -x repeat a value in every coordinate
    (CongruenceInstance(r=0, M=1, alpha=(1, 1, 1, 1)), None, 150),
    (CongruenceInstance(r=0, M=4, alpha=(1, 1, 1, 1)), None, 150),
    (CongruenceInstance(r=2, M=4, alpha=(1, 2, 1, 1)), None, 150),
    (CongruenceInstance(r=3, M=6, alpha=(1, 1, 1, 1)), None, 150),
    # a lower bound that cuts one side: only some values repeat
    (CongruenceInstance(r=0, M=1, alpha=(1, 1, 1, 1), lower_bound=-1), None, 150),
    (CongruenceInstance(r=2, M=4, alpha=(1, 1, 1, 1), lower_bound=-2), None, 150),
    (CongruenceInstance(r=3, M=6, alpha=(2, 1, 1, 1), lower_bound=-3), None, 150),
    (PolygonalInstance(m=4, alpha=(1, 1, 1, 1)), CountDomain(lower=-1), 150),
    # four distinct weights, so pairing or reusing the wrong coordinates'
    # values cannot agree by symmetry
    (CongruenceInstance(r=0, M=1, alpha=(7, 5, 2, 1)), None, 150),
    (CongruenceInstance(r=1, M=3, alpha=(1, 3, 8, 2), lower_bound=-2), None, 150),
    (PolygonalInstance(m=5, alpha=(5, 3, 2, 1)), ALL_INTEGERS, 150),
    (PolygonalInstance(m=6, alpha=(4, 3, 2, 1)), NON_NEGATIVE, 150),
]


@pytest.mark.parametrize("inst, dom, nmax", EDGE_CASES)
def test_table_edge_cases_match_per_index_counters(inst, dom, nmax):
    assert_table_matches_counters(inst, nmax, dom)


@pytest.mark.parametrize("build", [
    lambda nmax: squares_count_table(CongruenceInstance(1, 2, (1, 1, 1, 1)), nmax),
    lambda nmax: polygonal_count_table(PolygonalInstance(m=6, alpha=(1, 1, 1, 1)),
                                       nmax, NON_NEGATIVE),
], ids=["squares_count_table", "polygonal_count_table"])
def test_tables_size_rule(build):
    # the size rule of the arith tables: nmax = -1 is empty, lower names nmax
    empty = build(-1)
    assert empty.dtype == np.int64 and empty.size == 0
    for nmax in (-2, -5):
        with pytest.raises(ValueError, match=f"nmax={nmax}"):
            build(nmax)


def test_table_pair_stage_in_blocks_of_one_sum(monkeypatch):
    # a block of one row per bincount: many blocks must add up to the counts
    from polytheta import counting

    monkeypatch.setattr(counting, "_SEARCH_BLOCK", 1)
    for inst, dom in [(CongruenceInstance(r=0, M=1, alpha=(7, 5, 2, 1)), None),
                      (CongruenceInstance(r=3, M=6, alpha=(1, 1, 1, 1),
                                          lower_bound=-3), None),
                      (PolygonalInstance(m=6, alpha=(2, 1, 1, 1)), ALL_INTEGERS)]:
        assert_table_matches_counters(inst, 200, dom)


def test_tables_match_closed_forms_at_scale():
    # hexagonal2 over all integers is an Eisenstein series with the
    # character (8/.): 4 r*(n) = -sum_{d | 8n+5} (8/d) d; four unrestricted
    # squares (x and -x repeat in every coordinate) give Jacobi's count
    n = 100_000
    hexagonal2 = polygonal_count_table(PolygonalInstance(m=6, alpha=(2, 1, 1, 1)),
                                       n, ALL_INTEGERS)
    assert np.array_equal(4 * hexagonal2, -arith.twisted8_table(8 * n + 5)[5::8])
    squares = squares_count_table(CongruenceInstance(r=0, M=1, alpha=(1, 1, 1, 1)), n)
    assert np.array_equal(squares, arith.jacobi_four_square_table(n))


small_polygonal = st.tuples(
    st.integers(3, 8), st.lists(st.integers(1, 3), min_size=4, max_size=4),
    st.integers(0, 150),
    st.sampled_from([ALL_INTEGERS, NON_NEGATIVE, POSITIVE, CountDomain(lower=-2),
                     CountDomain(lower=2)]))


@given(small_polygonal, st.data())
@settings(max_examples=40, deadline=None)
def test_table_matches_counter_and_ignores_alpha_order(case, data):
    m, alpha, nmax, dom = case
    tab = polygonal_count_table(PolygonalInstance(m=m, alpha=tuple(alpha)), nmax, dom)
    inst = PolygonalInstance(m=m, alpha=tuple(data.draw(st.permutations(alpha))))
    assert tab.tolist() == [count_polygonal(inst, n, dom) for n in range(nmax + 1)]
    assert np.array_equal(polygonal_count_table(inst, nmax, dom), tab)


small_congruence = st.tuples(
    st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 5, 6, 8]),
    st.lists(st.integers(1, 4), min_size=4, max_size=4),
    st.sampled_from([None, -3, -1, 0, 1, 2]), st.integers(0, 200))


@given(small_congruence)
@settings(max_examples=40, deadline=None)
def test_squares_counter_matches_table(case):
    r, M, alpha, lower, nmax = case
    inst = CongruenceInstance(r=r, M=M, alpha=tuple(alpha), lower_bound=lower)
    tab = squares_count_table(inst, nmax)
    assert tab.tolist() == [count_squares(inst, n) for n in range(nmax + 1)]


def test_zero_one_gap_exponent():
    # the all-coordinates-positive count differs from the non-negative count
    # by boundary solutions, empirically O(n^(1/2+eps)): fitted exponent <= 0.6
    from polytheta.circle import error_exponent_fit

    inst = PolygonalInstance(m=6, alpha=(1, 1, 1, 1))
    nn = polygonal_count_table(inst, 10_000, NON_NEGATIVE)
    pp = polygonal_count_table(inst, 10_000, POSITIVE)
    diff = (nn - pp).astype(float)
    ns = np.arange(len(diff))
    fit = error_exponent_fit(ns[1:], diff[1:])
    assert fit.slope <= 0.6


def test_alpha_normalized_input_recorded():
    inst = PolygonalInstance(m=6, alpha=(1, 2, 1, 3))
    assert inst.alpha == (3, 2, 1, 1)


def test_residue_normalization_keeps_lower_bound():
    inst = CongruenceInstance(r=-2, M=8, alpha=(1, 1, 1, 1), lower_bound=-2)
    assert inst.r == 6
    assert inst.lower_bound == -2


def test_invalid_instances_rejected():
    with pytest.raises(ValueError):
        PolygonalInstance(m=6, alpha=(1, 1, 1))
    with pytest.raises(ValueError):
        PolygonalInstance(m=6, alpha=(1, 1, 1, 0))
    with pytest.raises(ValueError):
        CongruenceInstance(r=1, M=0, alpha=(1, 1, 1, 1))
    with pytest.raises(ValueError):
        count_polygonal(PolygonalInstance(m=6, alpha=(1, 1, 1, 1)), -1,
                        NON_NEGATIVE)


def test_batch_overflow_guard(monkeypatch):
    # four unrestricted squares: each coordinate has 2 * isqrt(nmax) + 1
    # values, the pair stage counts r_2, and the last shift-add stage runs
    # over a table of r_3, so its preventive bound is max r_3 times the
    # number of values; a guard just below that bound refuses the table, a
    # guard at or above it does not
    from polytheta import counting

    nmax = 2000
    inst = CongruenceInstance(r=0, M=1, alpha=(1, 1, 1, 1))
    values = 2 * isqrt(nmax) + 1
    theta = np.zeros(nmax + 1, dtype=np.int64)
    theta[np.arange(isqrt(nmax) + 1) ** 2] = 2
    theta[0] = 1
    r3 = np.convolve(np.convolve(theta, theta)[:nmax + 1], theta)[:nmax + 1]
    bound = int(r3.max()) * values
    jacobi = arith.jacobi_four_square_table(nmax)
    assert np.array_equal(squares_count_table(inst, nmax), jacobi)

    monkeypatch.setattr(counting, "_INT64_GUARD", 2 ** ((bound - 1).bit_length() - 1))
    with pytest.raises(counting.OverflowGuardError):
        squares_count_table(inst, nmax)
    monkeypatch.setattr(counting, "_INT64_GUARD", 2 ** bound.bit_length())
    assert np.array_equal(squares_count_table(inst, nmax), jacobi)


def test_per_index_overflow_guard_refuses_before_enumerating():
    # pair sums are int64, so a huge n is refused at once instead of
    # enumerating billions of class values
    from polytheta.counting import OverflowGuardError

    with pytest.raises(OverflowGuardError):
        count_squares(CongruenceInstance(r=0, M=1, alpha=(1, 1, 1, 1)), 2**63)
    # the polygonal image point 8(m-2) n + offset crosses the guard
    with pytest.raises(OverflowGuardError):
        count_polygonal(PolygonalInstance(m=6, alpha=(1, 1, 1, 1)), 2**60,
                        ALL_INTEGERS)


@pytest.mark.parametrize("n", [100_003, 199_998, 300_000])
def test_counters_at_scale_match_closed_forms(n):
    # over all integers the hexagonal numbers l(2l-1) are the triangular
    # numbers, and four of them sum to n in sigma(2n+1) ways; Jacobi's
    # four-square count is 8 * sum of the divisors of n not divisible by 4
    hexagonal = PolygonalInstance(m=6, alpha=(1, 1, 1, 1))
    assert count_polygonal(hexagonal, n, ALL_INTEGERS) == arith.divisor_sigma(
        2 * n + 1)
    squares = CongruenceInstance(r=0, M=1, alpha=(1, 1, 1, 1))
    assert count_squares(squares, n) == 8 * sum(
        d for d in arith.divisors(n) if d % 4)


def _dict_product(factors):
    """Every product of one term per factor, summed by exponent."""
    out = {0: 1}
    for terms in factors:
        step = {}
        for e0, c0 in out.items():
            for e, c in terms:
                step[e0 + e] = step.get(e0 + e, 0) + c0 * c
        out = step
    return out


terms = st.lists(st.tuples(st.integers(0, 40), st.integers(-3, 3)), max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(terms, min_size=1, max_size=4), st.integers(-10, 30),
       st.integers(-10, 60), st.integers(-6, 12), st.integers(1, 4),
       st.integers(1, 3))
def test_lattice_product_matches_dict_product(factors, start, stop, shift,
                                              unit, spread):
    # factors on a common stride (spread) from their own lowest exponents,
    # read at e = shift + unit * w for start <= w < stop; a nonzero
    # product term off that lattice must be refused
    from polytheta.counting import _lattice_product

    factors = [[(spread * e + j, c) for e, c in f] for j, f in enumerate(factors)]
    full = _dict_product(factors)
    want = np.zeros(max(stop - start, 0), dtype=np.int64)
    for e, c in full.items():
        w, rem = divmod(e - shift, unit)
        if not rem and start <= w < stop:
            want[w - start] += c
    off = any(c and (e - shift) % unit for e, c in full.items())
    try:
        got = _lattice_product(factors, start, stop, shift, unit)
    except ValueError as exc:
        assert "prefactor failed to cancel" in str(exc)
        # refused only when some product exponent (maybe with zero
        # coefficient) is off the lattice
        assert any((e - shift) % unit for e in full) or off
        return
    assert not off
    assert np.array_equal(got, want)


def test_sparse_product_switches_to_python_ints_past_the_guard():
    # table times (1 + q): the bound is max |table| times the factor's sum of
    # |c|, 2 * 2^62 here, so the product runs on Python ints and stays exact;
    # a quarter of the table keeps it in int64
    from polytheta.counting import _INT64_GUARD, _sparse_product

    table = np.array([_INT64_GUARD, 1, 0], dtype=np.int64)
    out = _sparse_product([[(0, 1), (1, 1)]], 3, table)
    assert out.dtype == object and out.tolist() == [2**62, 2**62 + 1, 1]
    out = _sparse_product([[(0, 1), (1, 1)]], 3, table // 4)
    assert out.dtype == np.int64 and out.tolist() == [2**60, 2**60, 0]
