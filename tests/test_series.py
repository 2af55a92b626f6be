from fractions import Fraction

import pytest

import oracles
from polytheta import series
from polytheta.counting import (ALL_INTEGERS, CongruenceInstance,
                                PolygonalInstance, count_polygonal,
                                count_squares, squares_count_table)
from polytheta.series import (FULL_J, decomposition_check, f_J_series,
                              false_theta_series, partial_theta_series,
                              rplus_generating_check, star_theta_series,
                              theta_series)


def test_theta_series_class_zero():
    # multiplicity 2 off the origin from the +-nu pairing
    f = theta_series(0, 1, 10)
    assert f.coeff(0) == 1
    assert f.coeff(Fraction(1, 2)) == 2  # nu = +-1
    assert f.coeff(2) == 2  # nu = +-2
    assert f.coeff(1) == 0


def test_theta_series_odd_class():
    f = theta_series(1, 2, 10)
    assert f.coeff(Fraction(1, 4)) == 2
    assert f.coeff(Fraction(9, 4)) == 2
    assert f.coeff(Fraction(2, 4)) == 0


def test_false_theta_explicit_expansion():
    # class nu = 1 (mod 4): +q^(1/8) - q^(9/8) + q^(25/8) - ...
    # (nu = -3 carries sign -1, nu = 5 sign +1)
    f = false_theta_series(1, 2, 30)
    assert f.coeff(Fraction(1, 8)) == 1
    assert f.coeff(Fraction(9, 8)) == -1
    assert f.coeff(Fraction(25, 8)) == 1
    assert f.coeff(2) == 0
    # the r = M class cancels pairwise and vanishes identically
    assert not false_theta_series(1, 1, 30).coeffs


def test_theta_series_reject_scale_below_one():
    with pytest.raises(ValueError):
        theta_series(1, 2, 5, scale=0)
    with pytest.raises(ValueError):
        false_theta_series(1, 2, 5, scale=-1)


def test_false_theta_vanishing_and_antisymmetry():
    for M in range(1, 13):
        zero0 = false_theta_series(0, M, 8)
        zeroM = false_theta_series(M, M, 8)
        assert not zero0.coeffs
        assert not zeroM.coeffs
        for r in range(0, 2 * M + 1):
            a = false_theta_series(2 * M - r, M, 6)
            b = false_theta_series(r, M, 6)
            ok, _ = a.agree(-1 * b)
            assert ok, (r, M)


def test_partial_theta_matches_bruteforce_counts():
    # the per-index counter, not the table that builds the series
    for (r, M, alpha) in [(1, 4, (1, 1, 1, 1)), (5, 6, (1, 1, 1, 1)),
                          (3, 8, (2, 1, 1, 1))]:
        inst = CongruenceInstance(r=r, M=M, alpha=alpha, lower_bound=1)
        f = partial_theta_series(r, M, alpha, Fraction(501, M))
        for n in range(501):
            assert f.coeff(Fraction(n, M)) == count_squares(inst, n), (r, M, n)


def test_partial_theta_odd_modulus_rescaling():
    # doubling the class: the (r, M) series equals the (2r, 2M) series at
    # tau/2 (x -> 2x sends the count at n to the count at 4n, and
    # 4n/(2M) * 1/2 = n/M)
    for (r, M) in [(1, 3), (2, 5)]:
        alpha = (1, 1, 1, 1)
        lhs = partial_theta_series(r, M, alpha, 30)
        rhs = partial_theta_series(2 * r, 2 * M, alpha, 60).substitute(
            Fraction(1, 2))
        ok, where = lhs.agree(rhs)
        assert ok, where


def test_star_theta_fourth_power_cho():
    # coefficient of the all-odd four-square count at 8n+4 is 16 sigma(2n+1)
    from polytheta.arith import divisor_sigma

    f = star_theta_series(1, 2, (1, 1, 1, 1), Fraction(8 * 20 + 5, 2))
    for n in range(21):
        assert f.coeff(Fraction(8 * n + 4, 2)) == 16 * divisor_sigma(2 * n + 1)


def test_decomposition_check_cases():
    assert decomposition_check(1, 2, (1, 1, 1, 1), 8000).ok
    assert decomposition_check(5, 6, (1, 1, 1, 1), 120).ok
    assert decomposition_check(5, 3, (2, 1, 1, 1), 120).ok


def test_decomposition_check_rejects_edge_r():
    with pytest.raises(ValueError):
        decomposition_check(0, 2, (1, 1, 1, 1), 50)
    with pytest.raises(ValueError):
        decomposition_check(4, 2, (1, 1, 1, 1), 50)


def _mutate_terms(monkeypatch, change, scale, signed):
    # rewrite the (index, coefficient) terms of every factor built with this
    # scale and sign type, in the series module the array route and the
    # QSeries oracles both read
    original = series._class_terms

    def mutated(r, M, sc, limit, sg):
        terms = original(r, M, sc, limit, sg)
        if (sc, sg) == (scale, signed):
            terms = [change(e, c) for e, c in terms]
        return terms

    monkeypatch.setattr(series, "_class_terms", mutated)


def _report(rep):
    return rep.ok, rep.first_mismatch, rep.checked_truncation


def test_decomposition_detects_mutation(monkeypatch):
    # flip the sign of the weight-2 false-theta term at nu = -3 (class 1 mod
    # 4): the sixteen products then no longer cancel the x_1 = -3 points,
    # first at 2*9 + 1 + 1 + 1 = 21 on the lattice 1/4
    r, M, alpha = 1, 2, (2, 1, 1, 1)
    assert decomposition_check(r, M, alpha, 100).ok
    _mutate_terms(monkeypatch, lambda e, c: (e, -c if e == 4 * 9 else c),
                  scale=4, signed=True)
    rep = decomposition_check(r, M, alpha, 100)
    assert _report(rep) == (False, Fraction(21, 4), Fraction(101, 4))
    assert _report(rep) == _report(oracles.decomposition_check(r, M, alpha, 100))
    # below the first broken index the split still holds
    assert decomposition_check(r, M, alpha, 20).ok


def test_decomposition_detects_a_changed_count(monkeypatch):
    # one more one-sided count at index 40 of the lattice 1/(2M) = 1/4
    original = series.squares_count_table

    def bumped(inst, nmax):
        table = original(inst, nmax)
        table[40] += 1
        return table

    monkeypatch.setattr(series, "squares_count_table", bumped)
    rep = decomposition_check(1, 2, (1, 1, 1, 1), 100)
    assert _report(rep) == (False, Fraction(40, 4), Fraction(101, 4))
    assert _report(rep) == _report(oracles.decomposition_check(1, 2, (1, 1, 1, 1), 100))


def test_rplus_detects_mass_off_the_progression(monkeypatch):
    # one count placed 3 steps past the offset 4 * (6-4)^2 = 16 of the
    # stride 8 * (6-2) = 32 belongs to no n, and must be reported there
    original = series.squares_count_table

    def off_progression(inst, nmax):
        table = original(inst, nmax)
        table[16 + 3] += 1
        return table

    assert rplus_generating_check(6, (1, 1, 1, 1), 20).ok
    monkeypatch.setattr(series, "squares_count_table", off_progression)
    rep = rplus_generating_check(6, (1, 1, 1, 1), 20)
    assert _report(rep) == (False, Fraction(3, 32), Fraction(21))
    assert _report(rep) == _report(oracles.rplus_generating_check(6, (1, 1, 1, 1), 20))


def test_f_J_series_detects_a_shifted_factor(monkeypatch):
    # one factor's exponents moved by one step of the lattice 1/(4M) leave
    # the prefactor a fractional exponent
    _mutate_terms(monkeypatch, lambda e, c: (e + 1, c), scale=4, signed=False)
    for route in (f_J_series, oracles.f_J_series):
        with pytest.raises(ValueError, match="prefactor failed to cancel"):
            route(1, 2, (2, 1, 1, 1), FULL_J, 40)
        # the unmutated false-theta factor of weight 2 leaves it integral
        route(1, 2, (2, 1, 1, 1), {2, 3, 4}, 40)


@pytest.mark.parametrize("alpha", [(1, 1, 1, 1), (2, 1, 1, 1)])
@pytest.mark.parametrize("r, M", [(1, 2), (5, 6), (6, 4), (7, 5)])
def test_f_J_series_matches_qseries_oracle(r, M, alpha):
    # r <= M and r > M (where exponents below zero appear), four J, and
    # three truncations: the same lattice, order and coefficients
    for J in (set(), {1}, {1, 2, 3}, FULL_J):
        for n_max in (0, 37, 2000):
            got = f_J_series(r, M, alpha, J, n_max)
            ref = oracles.f_J_series(r, M, alpha, J, n_max)
            assert (got.D, got.order, got.coeffs) == (ref.D, ref.order, ref.coeffs)
            assert all(type(c) is int for c in got.coeffs.values())


def _reports(route):
    # the Tier-1 grid of the three identity checks, by one route
    reps = [route.decomposition_check(r, M, alpha, n) for r, M, alpha, n in (
        (1, 2, (1, 1, 1, 1), 8000), (5, 6, (1, 1, 1, 1), 120),
        (5, 3, (2, 1, 1, 1), 120), (5, 4, (1, 1, 1, 1), 500))]
    reps += [route.rplus_generating_check(m, alpha, n) for m, alpha, n in (
        (6, (1, 1, 1, 1), 80), (5, (1, 1, 1, 1), 200), (7, (2, 1, 1, 1), 50))]
    reps += [route.index_identity_check(m, alpha, n) for m, alpha, n in (
        (5, (1, 1, 1, 1), 200), (6, (1, 1, 1, 1), 200), (7, (2, 1, 1, 2), 120))]
    return [_report(rep) for rep in reps]


def test_identity_reports_match_qseries_oracles(monkeypatch):
    # ok, first_mismatch and checked_truncation as the QSeries route reports
    # them: on the Tier-1 grid, then with the weight-1 theta factors' terms at
    # nu^2 = 25 dropped and one unrestricted count changed
    reports = _reports(series)
    assert all(ok for ok, _, _ in reports)
    assert reports == _reports(oracles)
    _mutate_terms(monkeypatch, lambda e, c: (e, 0 if e == 2 * 25 else c),
                  scale=2, signed=False)
    original = series.polygonal_count_table

    def bumped(inst, nmax, domain):
        table = original(inst, nmax, domain)
        table[nmax // 2] += 1
        return table

    monkeypatch.setattr(series, "polygonal_count_table", bumped)
    monkeypatch.setattr(oracles, "polygonal_count_table", bumped)
    reports = _reports(series)
    # (5, 3, (2,1,1,1)) has no one-sided point below 125 that uses nu = 5
    assert [ok for ok, _, _ in reports] == [False, False, True, False] + \
        [True] * 3 + [False] * 3
    assert reports == _reports(oracles)


def test_f_J_series_prefactor_cancels_to_integer_lattice():
    f = f_J_series(1, 2, (1, 1, 1, 1), FULL_J, 40)
    assert f.D == 1
    assert all(isinstance(i, int) for i in f.coeffs)
    # only even exponents carry mass
    assert all(i % 2 == 0 for i in f.coeffs)


def test_f_J_series_star_identity():
    # with every factor of theta type, coefficients are the unrestricted
    # counts at 2Mn + r^2 sum(alpha)
    r, M, alpha = 1, 2, (1, 1, 1, 1)
    fj = f_J_series(r, M, alpha, FULL_J, 100)
    free = CongruenceInstance(r=r, M=2 * M, alpha=alpha)
    tab = squares_count_table(free, 2 * M * 100 + 4)
    for n in range(101):
        assert fj.coeff(n) == int(tab[2 * M * n + 4])


def test_f_J_series_polygonal_identity_with_negative_exponents():
    for m in (5, 6, 7):
        alpha = (1, 1, 1, 1)
        fj = f_J_series(m, m - 2, alpha, FULL_J, 4 * 96)
        inst = PolygonalInstance(m=m, alpha=alpha)
        for n in range(101):
            expect = count_polygonal(inst, n, ALL_INTEGERS)
            assert fj.coeff(4 * (n - 4)) == expect, (m, n)
    # the lowest nontrivial coefficient sits below exponent zero
    assert f_J_series(6, 4, (1, 1, 1, 1), FULL_J, 0).coeff(-16) == 1


def test_c_coefficient_subsets_sum_to_partial_theta():
    # summing the J-indexed coefficients over all sixteen subsets recovers
    # sixteen times the one-sided count at the shifted index
    r, M, alpha = 1, 2, (1, 1, 1, 1)
    n = 6
    total = Fraction(0)
    for mask in range(16):
        J = {j + 1 for j in range(4) if (mask >> j) & 1}
        total += f_J_series(r, M, alpha, J, n).coeff(n)
    inst = CongruenceInstance(r=r, M=2 * M, alpha=alpha, lower_bound=1)
    tab = squares_count_table(inst, 2 * M * n + 4)
    assert total == 16 * int(tab[2 * M * n + 4])


def test_rplus_generating_identity():
    assert rplus_generating_check(6, (1, 1, 1, 1), 80).ok
    assert rplus_generating_check(5, (1, 1, 1, 1), 80).ok
    assert rplus_generating_check(7, (2, 1, 1, 1), 50).ok


def test_one_sided_series_respects_lower_bound():
    # class 5 (mod 6): x = (-1, -1, -1, -1) gives exponent 4/6 only without
    # the lower bound, and x = (5, 5, 5, 5) is the one point >= 1 at 100/6
    alpha = (1, 1, 1, 1)
    f = partial_theta_series(5, 6, alpha, 30)
    g = star_theta_series(5, 6, alpha, 30)
    assert f.coeff(Fraction(4, 6)) == 0
    assert g.coeff(Fraction(4, 6)) == 1
    assert f.coeff(Fraction(100, 6)) == 1


def test_count_series_keep_a_non_positive_truncation_order():
    # a truncation t <= 0 leaves nothing known: the series is empty with
    # order ceil(t * M), the same as the truncation asked for
    alpha = (1, 1, 1, 1)
    for make in (partial_theta_series, star_theta_series):
        for t, order in ((-3, -6), (Fraction(-3, 4), -1), (0, 0)):
            f = make(1, 2, alpha, t)
            assert (f.D, f.order, f.coeffs) == (2, order, {}), (make, t)
