from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytheta.arith import euler_phi
from polytheta.checks import FAREY_PROPERTIES, farey_structure
from polytheta.farey import (FareyArc, _arc_columns, arcs, farey_sequence,
                             rho_congruence)


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


def test_arc_columns_are_the_arc_fields():
    for N in range(1, 61):
        cols = _arc_columns(N)
        assert cols.dtype == np.int64 and cols.shape == (len(arcs(N)), 7)
        assert np.array_equal(cols, np.array(arcs(N), dtype=np.int64)), N


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


def _flagged(name, arc_list):
    """The indices of the arcs that ``FAREY_PROPERTIES[name]`` flags."""
    cols = np.array(arc_list, dtype=np.int64).T
    return np.flatnonzero(FAREY_PROPERTIES[name](*cols)).tolist()


def test_structure_properties_reject_corrupted_arcs():
    # the shared walk must not pass vacuously: relabelling the arc 1/7 of
    # order 9 (neighbours 1/8, 1/6) as order 15 moves its rho values to 0
    # and -2, and dropping an arc leaves a gap in the circle
    order9 = arcs(9)
    order9[3] = order9[3]._replace(N=15)
    for name in ("rho_range", "congruence", "reflection"):
        assert _flagged(name, order9)[0] == 3, name
    assert _flagged("measure", arcs(9)[1:]) == [0]
    # arcs are not checked at construction, so a wrong neighbour is caught
    # by the determinants property
    skewed = arcs(9)
    skewed[3] = skewed[3]._replace(h1=skewed[3].h1 + 1)
    assert _flagged("determinants", skewed)[0] == 3


def _rho_class_differs(a):
    try:
        return rho_congruence(a.h, a.k, a.N) != a.rho1
    except ValueError:  # k < 1 or gcd(h, k) > 1: no class to match
        return True


def _measure_differs(arc_list):
    """True unless the exact Fraction sum of the measures is 1 and the
    neighbours chain around one turn with every gap of determinant 1 (the
    columns check the chain, which a corrupted h, h1 or h2 breaks while
    every measure stays the same)."""
    A = len(arc_list)
    for i, a in enumerate(arc_list):
        prev, nxt = arc_list[i - 1], arc_list[(i + 1) % A]
        left = (prev.h - prev.k * (i == 0), prev.k)
        right = (nxt.h + nxt.k * (i == A - 1), nxt.k)
        if (a.k < 1 or (a.h1, a.k1) != left or (a.h2, a.k2) != right
                or right[0] * a.k - a.h * right[1] != 1):
            return True
    try:
        return sum((a.measure for a in arc_list), Fraction(0)) != 1
    except ZeroDivisionError:
        return True


def _scalar_flags(name, arc_list):
    """The first arc that the scalar form of the property flags, or None."""
    if name == "measure":
        return 0 if _measure_differs(arc_list) else None
    # reflection: the mirror (k-h)/k of arc i, looked up by value, must be
    # arc A - i (the reflection reverses the sequence) with rho1 = rho2(i)
    A = len(arc_list)
    mirror = {(a.h, a.k): (i, a.rho1) for i, a in enumerate(arc_list)}
    bad = {
        "determinants": lambda i, a: (a.h * a.k1 - a.h1 * a.k != 1
                                      or a.h2 * a.k - a.h * a.k2 != 1),
        "rho_range": lambda i, a: not (1 <= a.rho1 <= a.k
                                       and 1 <= a.rho2 <= a.k),
        "congruence": lambda i, a: _rho_class_differs(a),
        "reflection": lambda i, a: (a.k > 1 and mirror.get((a.k - a.h, a.k))
                                    != ((A - i) % A, a.rho2)),
    }[name]
    return next((i for i, a in enumerate(arc_list) if bad(i, a)), None)


@given(st.integers(1, 40), st.none() | st.tuples(
    st.integers(0, 10**6), st.sampled_from(FareyArc._fields),
    st.integers(-5, 5).filter(bool)))
@settings(max_examples=300, deadline=None)
def test_column_properties_match_scalar_oracles(N, corruption):
    # one entry of one column moved (or none): each mask's first flagged
    # arc is the one the scalar walk over the tuples flags
    arc_list = arcs(N)
    if corruption is not None:
        i, field, delta = corruption
        i %= len(arc_list)
        arc_list[i] = arc_list[i]._replace(
            **{field: getattr(arc_list[i], field) + delta})
    for name in FAREY_PROPERTIES:
        flags = _flagged(name, arc_list)
        assert (flags[0] if flags else None) == _scalar_flags(name, arc_list), \
            (name, corruption)


def test_wraparound_neighbors():
    for N in (2, 5, 9):
        all_arcs = arcs(N)
        first, last = all_arcs[0], all_arcs[-1]
        assert (first.h, first.k) == (0, 1)
        assert (first.h1, first.k1) == (last.h - last.k, last.k)
        assert (last.h2, last.k2) == (1, 1)
