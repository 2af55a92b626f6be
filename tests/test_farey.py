from fractions import Fraction

import pytest

from polytheta.arith import euler_phi
from polytheta.checks import FAREY_PROPERTIES, farey_structure
from polytheta.farey import arcs, farey_sequence, rho_congruence


def test_sequence_order_five():
    assert farey_sequence(5) == [(0, 1), (1, 5), (1, 4), (1, 3), (2, 5),
                                 (1, 2), (3, 5), (2, 3), (3, 4), (4, 5)]


def test_sequence_is_sorted_reduced_and_complete():
    from math import gcd

    for N in (1, 2, 3, 8, 40):
        seq = farey_sequence(N)
        fracs = [Fraction(h, k) for h, k in seq]
        assert fracs == sorted(fracs)
        assert all(gcd(h, k) == 1 and 0 <= h < k <= N for h, k in seq)
        assert len(seq) == 1 + sum(euler_phi(k) for k in range(2, N + 1))


def test_sequence_count_order_100():
    assert len(farey_sequence(100)) == 1 + sum(euler_phi(k) for k in range(2, 101))


def test_adjacency_determinants():
    for N in (1, 2, 7, 30):
        seq = farey_sequence(N)
        for (h1, k1), (h, k) in zip(seq, seq[1:]):
            assert h * k1 - h1 * k == 1


def test_single_arc_order_one():
    (a,) = arcs(1)
    assert a.theta_left == Fraction(1, 2)
    assert a.theta_right == Fraction(1, 2)
    assert a.rho1 == 1 and a.rho2 == 1


def test_measures_sum_to_one_exactly():
    for N in (1, 2, 5, 23, 60):
        assert sum(a.measure for a in arcs(N)) == 1


def test_measure_is_sum_of_half_arcs():
    corrupted = arcs(9)
    corrupted[3] = corrupted[3]._replace(N=15)
    corrupted[4] = corrupted[4]._replace(h1=corrupted[4].h1 + 1)
    all_arcs = [a for N in range(1, 81) for a in arcs(N)] + corrupted
    assert all(a.measure == a.theta_left + a.theta_right for a in all_arcs)


def test_rho_bounds():
    assert farey_structure(60, ("rho_range",))[1] is None


def test_mediant_of_adjacent_exceeds_order():
    for N in (2, 5, 12, 33):
        seq = farey_sequence(N)
        for (h1, k1), (h, k) in zip(seq, seq[1:]):
            assert k1 + k > N


def test_rho_congruence_base_cases():
    assert rho_congruence(0, 1, 1) == 1
    assert rho_congruence(0, 1, 17) == 1
    with pytest.raises(ValueError):
        rho_congruence(2, 4, 5)


def test_rho_congruence_defining_property():
    for N in (3, 10, 25):
        for a in arcs(N):
            if a.k == 1:
                continue
            rho = rho_congruence(a.h, a.k, N)
            assert 0 < rho <= a.k
            assert (a.h * (N + rho) - 1) % a.k == 0


def test_rho_mirror_congruence_is_right_neighbor():
    # the -1 variant of the congruence characterizes the right-neighbor value
    for N in (3, 10, 25):
        for a in arcs(N):
            if a.k == 1:
                continue
            rho = rho_congruence(a.k - a.h, a.k, N)  # = rho2 by reflection
            assert (a.h * (N + rho) + 1) % a.k == 0
            assert rho == a.rho2


def test_reflection_swaps_neighbor_roles():
    assert farey_structure(120, ("reflection",))[1] is None


def test_structure_properties_reject_corrupted_arcs():
    # the shared walk must not pass vacuously: relabelling the arc 1/7 of
    # order 9 (neighbours 1/8, 1/6) as order 15 moves its rho values to 0
    # and -2, and dropping an arc leaves a gap in the circle
    order9 = arcs(9)
    order9[3] = order9[3]._replace(N=15)
    for name in ("rho_range", "congruence", "reflection"):
        assert FAREY_PROPERTIES[name](order9) is order9[3], name
    assert FAREY_PROPERTIES["measure"](arcs(9)[1:]) is not None
    # arcs are not checked at construction, so a wrong neighbour is caught
    # only by the determinants property
    skewed = arcs(9)
    skewed[3] = skewed[3]._replace(h1=skewed[3].h1 + 1)
    assert FAREY_PROPERTIES["determinants"](skewed) is skewed[3]


def test_wraparound_neighbors():
    for N in (2, 5, 9):
        all_arcs = arcs(N)
        first, last = all_arcs[0], all_arcs[-1]
        assert (first.h, first.k) == (0, 1)
        assert (first.h1, first.k1) == (last.h - last.k, last.k)
        assert (last.h2, last.k2) == (1, 1)
