from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytheta.qseries import QSeries, TruncationError


def series_strategy(min_idx=-6, max_idx=12):
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.builds(
        lambda D, order, items: QSeries(
            D, order, {i: c for i, c in items if i < order}),
        st.sampled_from([1, 2, 3, 4, 6]),
        st.integers(min_value=2, max_value=max_idx),
        st.lists(st.tuples(st.integers(min_idx, max_idx - 1), coeff),
                 max_size=6),
    )


def assert_same(a: QSeries, b: QSeries):
    ok, where = a.agree(b)
    assert ok, f"first mismatch at exponent {where}"


@given(series_strategy(), series_strategy())
@settings(max_examples=150, deadline=None)
def test_addition_commutes(f, g):
    assert_same(f + g, g + f)


@given(series_strategy(), series_strategy())
@settings(max_examples=150, deadline=None)
def test_multiplication_commutes(f, g):
    assert_same(f * g, g * f)


@given(series_strategy(), series_strategy(), series_strategy())
@settings(max_examples=100, deadline=None)
def test_multiplication_associative(f, g, h):
    assert_same((f * g) * h, f * (g * h))


@given(series_strategy(), series_strategy(), series_strategy())
@settings(max_examples=100, deadline=None)
def test_distributive(f, g, h):
    assert_same(f * (g + h), f * g + f * h)


@given(series_strategy(), series_strategy(),
       st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4))
@settings(max_examples=100, deadline=None)
def test_substitution_coherence(f, g, a):
    if a <= 0:
        return
    assert_same((f * g).substitute(a), f.substitute(a) * g.substitute(a))


@given(series_strategy())
@settings(max_examples=100, deadline=None)
def test_truncation_soundness(f):
    # every coefficient reported below a tighter truncation agrees with the
    # original, fuller series
    t = f.truncate(f.truncation - Fraction(1, f.D))
    for idx, c in t.coeffs.items():
        assert c == f.coeff_index(idx)
    ok, _ = t.agree(f)
    assert ok


@given(series_strategy())
@settings(max_examples=60, deadline=None)
def test_normalize_preserves_values(f):
    g = f.normalize()
    ok, _ = f.agree(g)
    assert ok


@given(series_strategy())
@settings(max_examples=60, deadline=None)
def test_serialization_roundtrip(f):
    g = QSeries.from_json_obj(f.to_json_obj())
    assert g.D == f.D and g.order == f.order and g.coeffs == f.coeffs


def test_coeff_beyond_truncation_raises():
    f = QSeries(2, 5, {0: 1, 3: Fraction(1, 2)})
    assert f.coeff(Fraction(3, 2)) == Fraction(1, 2)
    assert f.coeff(1) == 0  # on lattice, absent
    assert f.coeff(Fraction(1, 4)) == 0  # off lattice
    with pytest.raises(TruncationError):
        f.coeff(Fraction(5, 2))


def test_shift_and_negative_exponents():
    f = QSeries(1, 3, {0: 1, 2: 4})
    g = f.shift(-2)
    assert g.coeff(-2) == 1
    assert g.coeff(0) == 4
    assert g.order == 1
    h = f.shift(Fraction(1, 2))
    assert h.coeff(Fraction(1, 2)) == 1
    assert h.D == 2


def test_multiplication_truncation_tracks_valuation():
    # f known to q^5, g starts at q^2: product coefficients valid to q^7
    f = QSeries(1, 5, {0: 1, 1: 1})
    g = QSeries(1, 9, {2: 1})
    prod = f * g
    assert prod.order == 7
    assert prod.coeff(3) == 1


def test_scalar_zero_keeps_truncation():
    f = QSeries(1, 5, {0: 1})
    z = 0 * f
    assert z.order == 5 and not z.coeffs


def test_rejects_bad_construction():
    with pytest.raises(ValueError):
        QSeries(0, 5, {})
    with pytest.raises(ValueError):
        QSeries(1, 5, {5: 1})
    with pytest.raises(ValueError):
        QSeries(1, 5, {0: 1}).substitute(0)
    with pytest.raises(ValueError):
        QSeries(1, 5, {0: 1}).rescale(3).rescale(2)


def assert_canonical(f: QSeries):
    # integral coefficients are stored as int, the others as Fraction
    for idx, c in f.coeffs.items():
        assert c != 0
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)
        assert type(f.coeff_index(idx)) is Fraction
    assert type(f.coeff_index(f.order - 1)) is Fraction


@given(series_strategy(), series_strategy(),
       st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4))
@settings(max_examples=100, deadline=None)
def test_integral_coefficients_stored_as_int(f, g, a):
    for h in (f, f + g, f - g, f * g, f.scale(Fraction(2, 3)), f.scale(-4),
              f.shift(Fraction(-3, 2)), f.substitute(a),
              f.truncate(f.truncation - Fraction(1, f.D)), f.rescale(2 * f.D),
              f.normalize()):
        assert_canonical(h)
