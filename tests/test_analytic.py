import cmath
import itertools
import math

import numpy as np
import oracles
import pytest

from polytheta import analytic as an
from polytheta import checks
from polytheta.circle import _arc_rule
from polytheta.farey import arcs


def arc_z(k: int, N: int, frac: float) -> complex:
    """z = k(1/N^2 - i Phi) with Phi = frac/(kN), |frac| < 1."""
    return an._arc_z(k, N, frac / (k * N))


# ---------------------------------------------------------------------------
# arc points
# ---------------------------------------------------------------------------

def test_arc_point_invariants_across_orders():
    # exhaustive through N = 60, then spot orders up to 200
    orders = list(range(1, 61)) + [100, 150, 200]
    for N in orders:
        for arc in arcs(N):
            for phi in (-float(arc.theta_left), 0.0, float(arc.theta_right)):
                z = an._arc_z(arc.k, N, phi)
                assert z.real > 0
                assert ((arc.h + 1j * z) / arc.k).imag > 0
                assert arc.k * abs(z) <= math.sqrt(2) + 1e-12
                assert arc.k**2 / N**2 <= arc.k * abs(z) + 1e-12
                assert math.sqrt((1 / z).real / arc.k) >= 1 / math.sqrt(2) - 1e-12


def test_arc_point_validation():
    with pytest.raises(ValueError):
        an._arc_z(5, 3, 0.0)


# ---------------------------------------------------------------------------
# direct evaluation
# ---------------------------------------------------------------------------

# h = 0, k = 1, z = -i tau: the sums at a plain upper-half-plane point tau

def test_theta_direct_two_cutoffs_agree():
    z = -1j * (0.31 + 0.047j)
    a = an.theta_eval_direct_arc(3, 7, 2, 0, 1, z, tol=1e-12)
    b = an.theta_eval_direct_arc(3, 7, 2, 0, 1, z, tol=1e-18)
    assert abs(a - b) < 1e-12


def test_false_theta_direct_vanishing_classes():
    z = -1j * (0.1 + 0.2j)
    for M in (1, 2, 5):
        assert abs(an.false_theta_eval_direct_arc(0, M, 1, 0, 1, z)) < 1e-14
        assert abs(an.false_theta_eval_direct_arc(M, M, 1, 0, 1, z)) < 1e-14


def test_false_theta_direct_antisymmetry():
    z = -1j * (-0.23 + 0.11j)
    for (r, M) in [(1, 3), (2, 5), (7, 4)]:
        a = an.false_theta_eval_direct_arc(2 * M - r, M, 1, 0, 1, z)
        b = an.false_theta_eval_direct_arc(r, M, 1, 0, 1, z)
        assert abs(a + b) < 1e-12


def test_direct_arc_variants_match_generic():
    h, k, N = 2, 5, 9
    z = arc_z(k, N, 0.3)
    # exact phase reduction at (h, k, z) against floating phases at h = 0,
    # k = 1, z = -i tau
    plain = -1j * (h + 1j * z) / k
    assert abs(an.theta_eval_direct_arc(1, 4, 2, h, k, z)
               - an.theta_eval_direct_arc(1, 4, 2, 0, 1, plain)) < 1e-11
    assert abs(an.false_theta_eval_direct_arc(1, 2, 2, h, k, z)
               - an.false_theta_eval_direct_arc(1, 2, 2, 0, 1, plain)) < 1e-11


def _criterion5_direct_points():
    """(evaluator, modulus, signed, args, zs) of both direct evaluators for
    each of ``THETA_CONFIGS`` on every order-20 arc with k <= 10, zs the
    arc's left end, centre and right end (the criterion-5 grid)."""
    for r, M, aj in checks.THETA_CONFIGS:
        for arc in arcs(20):
            if arc.k > 10:
                continue
            zs = an._arc_z(arc.k, 20, np.array(
                [-float(arc.theta_left), 0.0, float(arc.theta_right)]))
            yield (an.theta_eval_direct_arc, 2 * M, False,
                   (r, 2 * M, 2 * aj, arc.h, arc.k), zs)
            yield (an.false_theta_eval_direct_arc, 2 * M, True,
                   (r, M, 2 * aj, arc.h, arc.k), zs)


def _long_walk_points():
    """(evaluator, modulus, signed, args, zs) of both direct evaluators for
    the longest walks the contour makes: the hexagonal class r = 6 at
    modulus 8 and scale 2 on the order-63 arc at 0/1 (index 3984), zs its
    ends, centre and 16-point rule nodes; about 55 terms a direction."""
    arc = next(a for a in arcs(63) if a.k == 1)
    sides = np.array([-float(arc.theta_left), float(arc.theta_right)])
    zs = an._arc_z(1, 63, np.concatenate(
        [sides, [0.0], _arc_rule(sides, 16)[0]]))
    yield an.theta_eval_direct_arc, 8, False, (6, 8, 2, arc.h, 1), zs
    yield an.false_theta_eval_direct_arc, 8, True, (6, 4, 2, arc.h, 1), zs


def _edge_class_points():
    """(evaluator, modulus, signed, args, zs) of both direct evaluators for
    the classes whose walk differs: r = 0, which has the nu = 0 term, and
    r = M/2, whose two directions run the same |nu|, at modulus 4 on the
    order-20 arcs with k <= 3 (ends and centre)."""
    for r in (0, 2):
        for arc in arcs(20):
            if arc.k > 3:
                continue
            zs = an._arc_z(arc.k, 20, np.array(
                [-float(arc.theta_left), 0.0, float(arc.theta_right)]))
            yield (an.theta_eval_direct_arc, 4, False,
                   (r, 4, 2, arc.h, arc.k), zs)
            yield (an.false_theta_eval_direct_arc, 4, True,
                   (r, 2, 2, arc.h, arc.k), zs)


def test_direct_evaluators_match_mpmath_oracle():
    # the defining sums at 40 digits, summed independently of _lattice_sum:
    # q^(nu^2) by the recurrence of its ratios along each direction, the
    # phases from a table of roots of unity, cut where q^(nu^2) < 1e-30
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 40
    roots = {}

    def reference(r, mod, signed, scale, h, k, z):
        den = 2 * mod * k
        if den not in roots:
            roots[den] = [mp.expjpi(mp.mpf(2 * j) / den) for j in range(den)]
        q = mp.exp(-2 * mp.pi * scale * mp.mpc(z.real, z.imag) / den)
        total = mp.mpc(0)
        lift = q ** (2 * mod * mod)
        for nu, step in ((r % mod, mod), (r % mod - mod, -mod)):
            term, ratio = q ** (nu * nu), q ** (2 * nu * step + step * step)
            while abs(nu) <= mod or abs(term) >= 1e-30:
                if nu or not signed:
                    phase = roots[den][(scale * nu * nu * h) % den]
                    total += (-1 if signed and nu < 0 else 1) * phase * term
                term, ratio, nu = term * ratio, ratio * lift, nu + step
        return complex(total)

    worst = 0.0
    points = itertools.chain(_criterion5_direct_points(), _long_walk_points(),
                             _edge_class_points())
    for fn, mod, signed, (r, m_arg, scale, h, k), zs in points:
        for z in zs.tolist():
            ref = reference(r, mod, signed, scale, h, k, z)
            got = fn(r, m_arg, scale, h, k, z)
            worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    assert worst <= 1e-13, worst


def test_lattice_sum_pair_equals_direct_evaluators():
    # one walk gives both sums: each is its public evaluator's value bit
    # for bit (the theta factor at modulus 2M, the sign-weighted at M)
    for fn, mod, signed, (r, m_arg, scale, h, k), zs in (
            _criterion5_direct_points()):
        pair = an._lattice_sum(r, mod, scale, h, k, zs, 1e-16)
        assert np.array_equal(pair[signed], fn(r, m_arg, scale, h, k, zs))


def test_direct_array_call_matches_scalar_calls():
    for fn, _, _, args, zs in _criterion5_direct_points():
        got = fn(*args, zs)
        assert got.shape == zs.shape
        want = [fn(*args, z) for z in zs.tolist()]
        for g, w in zip(got.tolist(), want):
            assert isinstance(w, complex)
            assert abs(g - w) <= 1e-15 * max(1.0, abs(w))


def test_direct_tail_cutoff_refused_up_front():
    # Re z = 1e-20 puts the Gaussian cutoff near |nu| = 1e10, past the 1e7
    # limit; the sum is refused before any term is added
    for fn, args in ((an.theta_eval_direct_arc, (1, 4, 2, 0, 1)),
                     (an.false_theta_eval_direct_arc, (1, 2, 2, 0, 1))):
        with pytest.raises(an.QuadratureError):
            fn(*args, 1e-20 + 0.3j)
        with pytest.raises(an.QuadratureError):
            fn(*args, np.array([0.5 - 0.1j, 1e-20 + 0.3j]))


def test_direct_eval_rejects_lower_half_plane():
    # z = -i tau for tau = 0.3 - 0.1i and tau = 0.3, then two more z
    for z in (-0.1 - 0.3j, -0.3j, 0.0 - 0.2j, -0.1 + 0.3j):
        with pytest.raises(ValueError):
            an.theta_eval_direct_arc(1, 4, 2, 1, 3, z)
        with pytest.raises(ValueError):
            an.false_theta_eval_direct_arc(1, 2, 2, 1, 3, z)


# ---------------------------------------------------------------------------
# transformed evaluation
# ---------------------------------------------------------------------------

def test_theta_transformed_classical_inversion_point():
    # h=0, k=1, z=1: the plain inversion; both routes to 1e-10
    d = an.theta_eval_direct_arc(1, 4, 2, 0, 1, 1.0 + 0j)
    t = an.theta_eval_transformed(1, 2, 1, 0, 1, 1.0 + 0j)
    assert abs(d - t) < 1e-10


def test_theta_transformed_generic_point():
    z = 0.1 - 0.02j
    d = an.theta_eval_direct_arc(1, 4, 2, 1, 3, z)
    t = an.theta_eval_transformed(1, 2, 1, 1, 3, z)
    assert abs(d - t) / abs(d) < 1e-10


def test_sqrt_branch_fan():
    # transformed evaluation with the principal branch reproduces direct
    # summation across arg z in (-pi/2, pi/2)
    for ang in np.linspace(-1.4, 1.4, 9):
        z = 0.3 * cmath.exp(1j * ang)
        d = an.theta_eval_direct_arc(3, 8, 2, 1, 2, z)
        t = an.theta_eval_transformed(3, 4, 1, 1, 2, z)
        assert abs(d - t) / abs(d) < 1e-9, ang


def test_false_theta_transformed_inversion_point():
    z = 0.7 + 0.1j
    d = an.false_theta_eval_direct_arc(1, 1, 2, 0, 1, z)
    t = an.false_theta_eval_transformed(1, 1, 1, 0, 1, z)
    assert abs(d - t) < 1e-10


def test_false_theta_transformed_generic_points():
    for (r, M, aj, h, k, frac, N) in [(5, 4, 1, 1, 2, 0.4, 10),
                                      (1, 2, 1, 2, 3, -0.5, 12),
                                      (5, 6, 1, 3, 4, 0.2, 9),
                                      (3, 4, 2, 1, 5, 0.7, 15)]:
        z = arc_z(k, N, frac)
        d = an.false_theta_eval_direct_arc(r, M, 2 * aj, h, k, z)
        t = an.false_theta_eval_transformed(r, M, aj, h, k, z)
        assert abs(d - t) / abs(d) < 1e-9, (r, M, aj, h, k)


def test_transformed_requires_coprime():
    with pytest.raises(ValueError):
        an.theta_eval_transformed(1, 2, 1, 2, 4, 0.1 + 0j)
    with pytest.raises(ValueError):
        an.false_theta_eval_transformed(1, 2, 1, 2, 4, 0.1 + 0j)


def _rule_points():
    """(r, M, alpha_j, h, k, z) for each of ``THETA_CONFIGS`` on the arcs
    of one order N with k = 1, 2, a middle k or N and h <= k/2, z the nodes
    of the 32-point rules on both sides of the cusp, as the contour places
    them."""
    for (r, M, aj), N in zip(checks.THETA_CONFIGS, (6, 9, 12, 20)):
        for arc in arcs(N):
            if arc.k in (1, 2, N // 2 + 1, N) and 2 * arc.h <= arc.k:
                phi, _ = _arc_rule(np.array([-float(arc.theta_left),
                                             float(arc.theta_right)]), 32)
                yield r, M, aj, arc.h, arc.k, an._arc_z(arc.k, N, phi)


def test_transformed_array_matches_scalar_at_every_node():
    # one array call of _transformed_sum per rule against the public scalar
    # evaluators node by node (each node's own nu cutoff), and one call per
    # configuration over all of its rules as (A, 1) columns against the
    # call per rule, bit for bit
    count = 0
    points = list(_rule_points())
    for fn, in_J in ((an.theta_eval_transformed, True),
                     (an.false_theta_eval_transformed, False)):
        per_rule = []
        for r, M, aj, h, k, zs in points:
            got = an._transformed_sum(r, M, aj, h, k, zs, in_J)
            assert got.shape == zs.shape
            per_rule.append(got)
            for g, z in zip(got.tolist(), zs.tolist()):
                want = fn(r, M, aj, h, k, z)
                assert isinstance(want, complex)
                assert abs(g - want) <= 1e-12 * abs(want), (fn.__name__, r, M, h, k, z)
                count += 1
        for config in checks.THETA_CONFIGS:
            rows = [i for i, p in enumerate(points) if p[:3] == config]
            h, k = (np.array([[points[i][c]] for i in rows]) for c in (3, 4))
            got = fn(*config, h, k, np.array([points[i][5] for i in rows]))
            assert got.shape == (len(rows), 64)
            for g, i in zip(got, rows):
                assert np.array_equal(g, per_rule[i]), (fn.__name__, points[i][:5])
    assert count >= 2 * 4 * 4 * 64


# the criterion-5 configurations and (6, 4, 1), the hexagonal class of the
# CLI's transformed contour
_OFF_J_CONFIGS = checks.THETA_CONFIGS + [(6, 4, 1)]


def _level(N: int):
    """h and k as (A, 1) columns and z as the (A, 32) nodes of the 16-point
    rules on both sides of every order-N arc, as the contour's first rule
    places them."""
    level = arcs(N)
    h, k = (np.array([[getattr(a, c)] for a in level]) for c in ("h", "k"))
    z = np.array([an._arc_z(a.k, N, _arc_rule(np.array(
        [-float(a.theta_left), float(a.theta_right)]), 16)[0]) for a in level])
    return h, k, z


def test_off_j_factor_matches_the_window_expansion():
    # the one Fourier series of _transformed_sum off J against lemma 4.2's
    # nu-sum plus half window (oracles.false_theta_transformed_by_window),
    # relative to each arc's largest value: on whole levels N = 2 and 20 as
    # (A, 1) columns, and on the criterion-5 rule points one rule a call
    worst = 0.0
    cases = [(cfg, *_level(N)) for N in (2, 20) for cfg in _OFF_J_CONFIGS]
    cases += [(p[:3], p[3], p[4], p[5][None]) for p in _rule_points()]
    for (r, M, aj), h, k, zs in cases:
        got = an._transformed_sum(r, M, aj, h, k, zs, False)
        want = oracles.false_theta_transformed_by_window(r, M, aj, h, k, zs)
        assert got.shape == want.shape == np.shape(zs)
        err = np.abs(got - want).max(-1) / np.abs(want).max(-1)
        worst = max(worst, float(err.max()))
    assert worst <= 1e-13, worst


def test_off_j_factor_at_n1_is_no_farther_from_the_direct_walk():
    # at N = 1 the nu-sum and the residue series are large and cancel; the
    # Fourier series alone is at least as close to the direct walk
    h, k, zs = _level(1)
    for r, M, aj in _OFF_J_CONFIGS:
        direct = an.false_theta_eval_direct_arc(r, M, 2 * aj, h, k, zs)
        scale = np.abs(direct).max()
        new = np.abs(an._transformed_sum(r, M, aj, h, k, zs, False) - direct).max()
        old = np.abs(oracles.false_theta_transformed_by_window(r, M, aj, h, k, zs)
                     - direct).max()
        assert new <= old and new <= 1e-10 * scale, (r, M, aj, new / scale, old / scale)


def test_off_j_fourier_coefficients_are_the_direct_phases(monkeypatch):
    # lemma 4.2 off J term by term: (-i/(Mk)) e(alpha_j h r^2/(2Mk)) D(m),
    # D the FFT sine transform of the Gauss-sum table T(l) - T(-l), is the
    # direct walk's coefficient of exp(-pi alpha_j z m^2/(M k)): sgn(nu)
    # e(alpha_j h m^2/(2Mk)) over nu = +-m = r (mod 2M), zero off +-r
    calls = []
    series = an._gaussian_sum

    def spy(coef, x, a, s):
        calls.append((coef, a, s))
        return series(coef, x, a, s)

    monkeypatch.setattr(an, "_gaussian_sum", spy)
    for r, M, aj, h, k in ((1, 2, 1, 1, 3), (5, 4, 1, 3, 7), (3, 4, 2, 2, 5),
                           (5, 6, 1, 4, 9), (6, 4, 1, 5, 11)):
        calls.clear()
        an._transformed_sum(r, M, aj, h, k, arc_z(k, 12, 0.3), False)
        (coef, a, s), = calls
        m = a + s * np.arange(len(coef))
        got = coef[:, 0, 0] * (-1j / (M * k)) * an._unit_phase(aj * h * r * r, 2 * M * k)
        sign = (m % (2 * M) == r % (2 * M)).astype(int) - (m % (2 * M) == -r % (2 * M))
        want = sign * an._unit_phase(aj * h * m * m, 2 * M * k)
        assert len(m) > 2 * M and np.count_nonzero(sign)
        assert np.max(np.abs(got - want)) <= 1e-13, (r, M, aj, h, k)


def test_off_j_transformed_sum_sums_no_window(monkeypatch):
    # off J the factor is the window's Fourier series alone: neither the
    # window nor its residue series is evaluated
    def refuse(*args):
        raise AssertionError("the off-J factor evaluated the window")

    monkeypatch.setattr(an, "_window_entry", refuse)
    monkeypatch.setattr(an, "_window_sum", refuse)
    h, k, zs = _level(2)
    for r, M, aj in _OFF_J_CONFIGS:
        assert np.all(np.isfinite(an._transformed_sum(r, M, aj, h, k, zs, False)))
    assert isinstance(an.false_theta_eval_transformed(5, 4, 1, 3, 7, arc_z(7, 12, 0.3)),
                      complex)
    with pytest.raises(AssertionError):
        an._gauss_factor(5, 4, 1, 3, 7, arc_z(7, 12, 0.3), False, 2)


def test_series_terms_cut_each_row_at_its_own_gaussian_cutoff():
    # each row keeps exactly the terms through _gaussian_cutoff at its own
    # slowest node, whatever the other rows; decays near the boundary where
    # the reach is a perfect square included
    rng = np.random.default_rng(5)
    log = math.log(1 / an._GAUSS_TAIL)
    t = rng.integers(1, 3000, size=40)
    near = log / (t * t + rng.choice([-1e-9, 0.0, 1e-9], size=40) * t * t)
    for floor, start in ((1, 1), (9, 0)):
        for rows in (near[:, None] * [1, 2, 3], np.exp(rng.uniform(-11, 4, (40, 3)))):
            j, keep = an._series_terms(rows * (1 - 0.5j), floor, start)
            cuts = [an._gaussian_cutoff(d, an._GAUSS_TAIL, floor) for d in rows.min(1)]
            assert j[0] == start and j[-1] == max(cuts)
            for a, cut in enumerate(cuts):
                assert np.array_equal(keep[:, a, 0], j <= cut), (floor, a, cut)


def test_transformation_pairs_scale_is_the_sum_of_term_moduli():
    # the scale of both lemmas' errors: the moduli of the direct walk's
    # terms, exp(-pi alpha_j nu^2 Re z/(M k)) over nu = r mod 2M, summed here
    # term by term
    count = 0
    for kind in ("lemma4_1", "lemma4_2"):
        rows = list(checks.transformation_pairs(kind, 4, 8))
        for r, M, aj, h, k, z, scale, *_ in rows[::5]:
            want = math.fsum(math.exp(-math.pi * aj * nu * nu * z.real / (M * k))
                             for nu in range(r - 400 * M, 400 * M, 2 * M))
            assert abs(scale - want) <= 1e-13 * want, (kind, r, M, h, k, z)
            count += 1
    assert count >= 2 * 12


# ---------------------------------------------------------------------------
# principal-value integral
# ---------------------------------------------------------------------------

PV_CASES = [(mu, M, aj, k, arc_z(k, N, frac))
            for mu, M, aj, k, N, frac in checks.PV_GRID]


@pytest.mark.parametrize("mu,M,aj,k,z", PV_CASES)
def test_pv_split_vs_direct_quadrature(mu, M, aj, k, z):
    # the two package routes against each other and against QUADPACK's
    # Cauchy-weight principal value
    p = an.PVIntegralParams(mu=mu, M=M, alpha_j=aj, k=k, z=z)
    split = an.pv_integral(p)
    direct = an.pv_integral_direct(p)
    cauchy = oracles.pv_cauchy_quad(p)
    assert abs(split - direct) / abs(direct) < 1e-9
    assert abs(split - cauchy) / abs(cauchy) < 1e-12
    assert abs(direct - cauchy) / abs(cauchy) < 1e-12


@pytest.mark.parametrize("mu,M,aj,k,z", PV_CASES)
def test_pv_closed_form_matches_split(mu, M, aj, k, z):
    p = an.PVIntegralParams(mu=mu, M=M, alpha_j=aj, k=k, z=z)
    split = an.pv_integral(p)
    closed = oracles.pv_closed_form_batch(np.array([mu]), M, aj, k, z)[0]
    assert abs(split - closed) / abs(split) < 1e-10


def test_pv_closed_form_matches_mpmath_quadrature():
    # 30 digits, independent of the Faddeeva form: the principal value as
    # int_0^inf [g(mu + t) - g(mu - t)]/t dt, g(x) = exp(-pi V x^2), plus
    # the half-residue sgn(mu) pi i g(mu)
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 30
    worst = 0.0
    for mu, M, aj, k, z in PV_CASES:
        w = mp.pi / (4 * M * k * aj * mp.mpc(z.real, z.imag))

        def g(x):
            return mp.exp(-w * x * x)

        m = abs(mu)
        pv = mp.quad(lambda t: (g(mu + t) - g(mu - t)) / t,
                     [0, m / 2, m, 1.5 * m, 2 * m, mp.inf])
        ref = complex(pv + mp.sign(mu) * mp.pi * 1j * g(mu))
        got = oracles.pv_closed_form_batch(np.array([mu]), M, aj, k, z)[0]
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst < 1e-10, worst


def test_pv_odd_in_mu():
    z = arc_z(3, 10, 0.3)
    mus = np.array([1, 2, 6])
    plus = oracles.pv_closed_form_batch(mus, 2, 1, 3, z)
    minus = oracles.pv_closed_form_batch(-mus, 2, 1, 3, z)
    assert np.all(np.abs(plus + minus) < 1e-13)


def test_pv_residue_sign_flip():
    # the half-residue term flips sign with mu while the rest is even-smooth:
    # check via the split pieces at +-mu
    z = arc_z(2, 8, 0.2)
    w = cmath.pi / (4 * 2 * 2 * 1 * z)
    for mu in (1, 4):
        residue = cmath.pi * 1j * cmath.exp(-w * mu * mu)
        p_plus = an.pv_integral(an.PVIntegralParams(mu=mu, M=2, alpha_j=1, k=2, z=z))
        p_minus = an.pv_integral(an.PVIntegralParams(mu=-mu, M=2, alpha_j=1, k=2, z=z))
        # oddness means the residue parts are -(each other)
        assert abs((p_plus + p_minus)) < 1e-12
        assert abs(p_plus.imag - residue.imag) < abs(p_plus) + 1e-12


def test_pv_delta_independence():
    z = arc_z(3, 14, 0.1)
    base = an.pv_integral(an.PVIntegralParams(mu=5, M=2, alpha_j=1, k=3, z=z,
                                              delta=5 / 4))
    other = an.pv_integral(an.PVIntegralParams(mu=5, M=2, alpha_j=1, k=3, z=z,
                                               delta=5 / 3))
    assert abs(base - other) < 1e-10


def test_pv_large_mu_main_term():
    # relative deviation from -2 sqrt(M k a z)/mu decreases over doublings
    z = arc_z(3, 10, 0.4)
    M = aj = 1
    k = 3
    errs = []
    for mu in (4, 8, 16, 32, 64):
        val = an.pv_integral(an.PVIntegralParams(mu=mu, M=M, alpha_j=aj, k=k, z=z))
        main = -2 * cmath.sqrt(M * k * aj * z) / mu
        errs.append(abs(val - main) / abs(main))
    assert all(b < a for a, b in zip(errs, errs[1:])), errs


def test_pv_validation():
    z = arc_z(1, 4, 0.0)
    with pytest.raises(ValueError):
        an.PVIntegralParams(mu=0, M=1, alpha_j=1, k=1, z=z)
    with pytest.raises(ValueError):
        an.PVIntegralParams(mu=3, M=1, alpha_j=1, k=1, z=z, delta=2.0)
    with pytest.raises(ValueError):
        an.PVIntegralParams(mu=3, M=1, alpha_j=1, k=1, z=-1.0 + 0j)


# ---------------------------------------------------------------------------
# the auxiliary integral family
# ---------------------------------------------------------------------------

def test_j_trivial_bound_holds():
    for A in (1.0, 5.0, 25.0):
        for z in (1.0 + 0j, 0.6 + 0.25j, 0.4 - 0.3j):
            for d in (0, 1, 2, 3):
                for sign in (1, -1):
                    val = an.j_integral(d, sign, A, z)
                    assert abs(val) <= an.j_trivial_bound(d, A, z) * (1 + 1e-9)


def test_j_recursion_residual_small():
    assert checks.recursion_residual() < 1e-8


def test_j0_main_term_with_envelope():
    for A in (25.0, 60.0):
        for z in (1.0 + 0j, 0.8 + 0.3j):
            rez = abs(z) * (1 / z).real
            envelope = math.sqrt(math.pi * A) * math.exp(-A * rez / 4) / math.sqrt(rez)
            main = 2 * np.sqrt(np.pi * A * abs(z) / z)
            assert abs(an.j_integral(0, -1, A, z) - main) <= envelope * 1.01
            assert abs(an.j_integral(0, 1, A, z)) <= envelope * 1.01


def test_j1_main_term():
    for A in (25.0, 100.0):
        z = 0.9 + 0.2j
        main = np.sqrt(np.pi * z / (A * abs(z)))
        rem_minus = abs(an.j_integral(1, -1, A, z) - main)
        rem_plus = abs(an.j_integral(1, 1, A, z))
        assert rem_minus <= 2.0 * A ** (-1.5)
        assert rem_plus <= 2.0 * A ** (-1.5)


def test_j_integral_matches_quadpack():
    # the Gauss-Legendre pieces against QUADPACK on the same interval, over
    # the grids of lemmas 5.4 and 5.5, each difference relative to the
    # trivial bound (the d >= 1, sign = +1 members are exponentially small)
    worst = 0.0
    for d in (0, 1, 2, 3):
        for sign in (1, -1):
            for A in (1.0, 5.0, 20.0, 100.0):
                for z in checks.RECURSION_Z + (0.5 - 0.2j,):
                    B = A * abs(z) / z
                    upper = max(2.0, math.sqrt(50.0 / B.real) + (sign == -1))
                    val, _ = oracles.complex_quad(
                        lambda x: x ** (-d) * cmath.exp(-B * (x + sign) ** 2),
                        0.5, upper, points=[1.0], tol=1e-13)
                    ref = an._factorial_c(d) * (z / (2 * A * abs(z))) ** (d - 1) * val
                    got = an.j_integral(d, sign, A, z)
                    worst = max(worst, abs(got - ref) / an.j_trivial_bound(d, A, z))
    assert worst < 1e-11, worst


def test_j_integral_validation():
    with pytest.raises(ValueError):
        an.j_integral(1, 0, 1.0, 1.0 + 0j)
    with pytest.raises(ValueError):
        an.j_integral(1, 1, -1.0, 1.0 + 0j)


# ---------------------------------------------------------------------------
# nu-sums and the cotangent main term
# ---------------------------------------------------------------------------

def test_lattice_window():
    assert an.lattice_window(1) == [1]
    assert an.lattice_window(3) == [-2, -1, 1, 2, 3]
    with pytest.raises(ValueError):
        an.lattice_window(0)


def test_nu_sum_against_pv_sum_oracle():
    # blunt oracle: sum pv_integral pairs far out, then the pure 1/mu tail
    M, aj, k = 2, 1, 3
    z = arc_z(k, 9, 0.35)
    for ell in (1, -2, 5):
        total = an.pv_integral(an.PVIntegralParams(mu=ell, M=M, alpha_j=aj, k=k, z=z))
        V = 600
        shifts = 2 * M * k * np.arange(1, V + 1)
        total += oracles.pv_closed_form_batch(
            np.concatenate([ell + shifts, ell - shifts]), M, aj, k, z).sum()
        # leftover pure-main tail
        from scipy.special import digamma
        x = ell / (2 * M * k)
        total += (-2 * cmath.sqrt(M * k * aj * z)) / (2 * M * k) * (
            digamma(V + 1 - x) - digamma(V + 1 + x))
        fast = an.nu_sum(ell, M, aj, k, z)
        assert abs(total - fast) < 5e-9, ell


def test_nu_sum_rejects_out_of_window():
    z = arc_z(2, 8, 0.1)
    with pytest.raises(ValueError):
        an.nu_sum(0, 2, 1, 2, z)
    with pytest.raises(ValueError):
        an.nu_sum(5, 2, 1, 2, z)  # window is [-3,-1] u [1,4]


def test_cot_main_term_finite_on_window():
    z = arc_z(3, 12, 0.2)
    for ell in an.lattice_window(6):
        val = an.cot_main_term(ell, 2, 1, 3, z)
        assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_partial_fraction_cotangent():
    # pi cot(pi x) as the symmetric limit of the shifted harmonic series
    for x in (0.21, 1 / 12, 0.45):
        acc = 1 / x
        for n in range(1, 200_000):
            acc += 1 / (x + n) + 1 / (x - n)
        assert acc == pytest.approx(math.pi / math.tan(math.pi * x), rel=1e-4)


def test_nu_sum_cot_distance_shrinks():
    assert all(w3 < w1 for _, _, (w1, _, w3) in checks.cotangent_window_means())


def test_nu_sum_batch_matches_scalar():
    # the Faddeeva nu-sums of the whole window against nu_sum index by
    # index; at l = Mk, nu_sum is exactly 0
    M, aj, k = 4, 1, 5
    z = arc_z(k, 11, -0.3)
    window = an.lattice_window(M * k)
    batch = oracles.nu_sum_batch(window, M, aj, k, z)
    for ell, val in zip(window, batch):
        got = an.nu_sum(ell, M, aj, k, z)
        assert abs(val - got) <= 1e-13 * max(1.0, abs(val)), ell
    assert an.nu_sum(M * k, M, aj, k, z) == 0


def _nu_sum_reference(ell, M, aj, k, z, pairs=100):
    """The nu-sum at 30 digits: every pair through nu = pairs from the
    Faddeeva form in mpmath, then the pairs past it from the large-mu series
    of the principal value through its 1/mu^7 term (one more than the
    program keeps) as digamma and Hurwitz-zeta differences."""
    import mpmath
    mp = mpmath.mp
    Vc = 1 / (4 * M * k * aj * mp.mpc(z.real, z.imag))
    sig = mp.sqrt(mp.pi * Vc)

    def pv(mu):
        x = abs(mu) * sig
        return mp.sign(mu) * mp.pi * 1j * mp.exp(-x * x) * mp.erfc(-1j * x)

    step = 2 * M * k
    total = pv(ell) + mp.fsum(pv(ell + step * n) + pv(ell - step * n)
                              for n in range(1, pairs + 1))
    x, v1 = mp.mpf(ell) / step, pairs + 1
    total += -1 / mp.sqrt(Vc) / step * (mp.digamma(v1 - x) - mp.digamma(v1 + x))
    for p, c in ((3, 1 / (2 * mp.pi * Vc)), (5, 3 / (4 * (mp.pi * Vc) ** 2)),
                 (7, 15 / (8 * (mp.pi * Vc) ** 3))):
        total += -c / mp.sqrt(Vc) / step**p * (mp.zeta(p, v1 + x)
                                                - mp.zeta(p, v1 - x))
    return complex(total)


def test_nu_sum_tail_matches_mpmath():
    # the digamma/Hurwitz tail past `terms` pairs against a 30-digit sum,
    # at the documented 5e-9 of the pv-sum oracle above; l = Mk is the
    # symmetric lattice Mk(2Z+1), whose sum is 0
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    M, aj, k = 2, 1, 3
    ells = [1, -2, 5, M * k]
    for frac, N in ((0.35, 9), (-0.8, 7)):
        z = arc_z(k, N, frac)
        refs = [_nu_sum_reference(ell, M, aj, k, z) for ell in ells]
        assert abs(refs[-1]) < 1e-25
        for terms in (8, 24):
            got = oracles.nu_sum_batch(ells, M, aj, k, z, terms=terms)
            assert max(abs(g - w) for g, w in zip(got, refs)) < 5e-9, (frac, terms)


def test_window_entry_uses_oddness_of_the_nu_sum():
    # the half window [1, Mk - 1] with T(l) - T(-l) against the whole window
    # [1 - Mk, -1] u [1, Mk] summed term by term
    for r, M, aj, h, k, N, frac in [(1, 2, 1, 0, 1, 4, 0.3), (5, 4, 1, 1, 3, 10, -0.6),
                                    (3, 4, 2, 2, 5, 12, 0.9), (5, 6, 1, 3, 7, 9, 0.1)]:
        z = arc_z(k, N, frac)
        window = an.lattice_window(M * k)
        sums = oracles.nu_sum_batch(window, M, aj, k, z)
        whole = 2j / np.pi * (an._gauss_terms(r, M, aj, h, k, np.array(window)) * sums).sum()
        half = an._window_entry(r, M, aj, h, k, z)
        assert abs(half - whole) <= 1e-13 * max(1.0, abs(whole)), (r, M, h, k)
        assert abs(sums[-1]) < 1e-12  # l = Mk
        # S_{-l} = -S_l: l = -1, ..., 1 - Mk against l = 1, ..., Mk - 1
        np.testing.assert_allclose(sums[:M * k - 1][::-1], -sums[M * k - 1:-1],
                                   rtol=1e-13, atol=1e-14)


def test_fourier_nu_sum_matches_mpmath():
    # the Fourier/residue S_l against the 30-digit Faddeeva sum, on arcs of
    # orders N = 1, 2, 9 and 31 (N = 1 and 2 are where the amplification
    # exp(2 pi n/N^2) of the contour is largest), at l = 1, Mk/2, Mk - 1
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    worst = 0.0
    for M, aj, k, N, frac in [(2, 1, 1, 1, 0.5), (6, 1, 1, 1, -0.9),
                              (2, 1, 2, 2, 0.3), (3, 2, 1, 2, -0.7),
                              (2, 1, 4, 9, 0.35), (4, 1, 9, 9, -0.6),
                              (2, 1, 31, 31, 0.8), (6, 1, 1, 31, -0.2)]:
        z = arc_z(k, N, frac)
        for ell in sorted({1, max(1, M * k // 2), M * k - 1}):
            ref = _nu_sum_reference(ell, M, aj, k, z)
            got = an.nu_sum(ell, M, aj, k, z)
            worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-12, worst


def _wofz_window(r, M, aj, h, k, zs):
    """The whole window [1 - Mk, -1] u [1, Mk] summed term by term over
    the oracle's ``nu_sum_batch`` (the Faddeeva route), at every node of
    zs."""
    window = an.lattice_window(M * k)
    sums = oracles.nu_sum_batch(window, M, aj, k, zs)
    terms = an._gauss_terms(r, M, aj, h, k, np.array(window))
    return 2j / np.pi * (oracles._by_node(terms, zs) * sums).sum(axis=0)


def test_window_entry_matches_faddeeva_window():
    # the criterion-5 grid (order 20, k <= 10, ends and centre) and every
    # arc of the benchmark's transformed bands (M, n) = (2, 17), (3, 10),
    # (4, 5) at the nodes of their first (16-point) rules
    points = [(r, M, aj, arc.h, arc.k, an._arc_z(arc.k, 20, np.array(
        [-float(arc.theta_left), 0.0, float(arc.theta_right)])))
        for r, M, aj in checks.THETA_CONFIGS for arc in arcs(20)
        if arc.k <= 10]
    for r, M, n in ((1, 2, 17), (1, 3, 10), (3, 4, 5)):
        N = math.isqrt(n)
        for arc in arcs(N):
            phi, _ = _arc_rule(np.array([-float(arc.theta_left),
                                         float(arc.theta_right)]), 16)
            points.append((r, M, 1, arc.h, arc.k, an._arc_z(arc.k, N, phi)))
    assert len(points) == 4 * 32 + 5 + 4 + 3
    wants = [_wofz_window(*p) for p in points]
    worst = 0.0
    for (r, M, aj, h, k, zs), want in zip(points, wants):
        got = an._window_entry(r, M, aj, h, k, zs)
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    # the same points as (A, 1) columns: one call per (r, M, alpha_j) and
    # node count
    groups = {p[:3] + p[5].shape for p in points}
    for key in groups:
        rows = [i for i, p in enumerate(points) if p[:3] + p[5].shape == key]
        h, k = (np.array([[points[i][c]] for i in rows]) for c in (3, 4))
        got = an._window_entry(*key[:3], h, k, np.array([points[i][5] for i in rows]))
        want = np.array([wants[i] for i in rows])
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    assert len(groups) == 4 + 3
    assert worst <= 1e-12, worst


def test_window_sum_matches_exact_angle_sine_table():
    # the FFT sine transform and the recurrence series of _window_sum
    # against the exact-angle sine table and one exponential per term
    # (oracles.window_sum_by_sines), on the odd tables T(l) - T(-l) of arcs
    # up to k = 63, at the nodes of their 16-point rules
    worst = 0.0
    for M, h, k, N in ((2, 1, 3, 4), (6, 10, 63, 63), (4, 13, 40, 45), (12, 2, 5, 7)):
        L = 2 * M * k
        t = an._gauss_terms(1, M, 1, h, k, np.arange(L))
        dT = t - t[-np.arange(L) % L]
        phi, _ = _arc_rule(np.array([-1 / (k * (k + N)), 1 / (k * (k + N))]), 16)
        zs = an._arc_z(k, N, phi)
        got = an._window_sum(dT[None], M, 1, np.array([[k]]), zs[None])[0]
        want = oracles.window_sum_by_sines(dT, M, 1, k, zs)
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    assert worst <= 1e-13, worst


def test_fourier_nu_sum_tends_to_cot_main_term():
    # lemma 5.8: as z -> 0 the m-series of S_l tends to cot_main_term, with
    # a relative distance linear in z; at these z the residue series is
    # below exp(-100) of it
    for M, aj, k in ((2, 1, 3), (4, 2, 5)):
        dist = []
        for eps in (1e-3, 1e-4, 1e-5):
            z = eps * k * (1 - 0.3j)
            dist.append(max(
                abs(an.nu_sum(ell, M, aj, k, z) - main) / abs(main)
                for ell in range(1, M * k)
                for main in [an.cot_main_term(ell, M, aj, k, z)]))
        assert dist[1] < dist[0] / 8 and dist[2] < dist[1] / 8, dist
        assert dist[2] < 2e-3, dist


def test_window_entry_on_many_nodes_equals_each_node():
    # one call over a 2048-node rule and over 8292 nodes: the values equal
    # the calls node by node
    for count in (2048, 8292):
        zs = an._arc_z(5, 11, np.linspace(-0.01, 0.01, count))
        for M in (2, 12):
            got = an._window_entry(1, M, 1, 2, 5, zs)
            for i in (0, count // 2, count - 1):
                one = an._window_entry(1, M, 1, 2, 5, zs[i])
                assert abs(got[i] - one) <= 1e-14 * abs(one), (count, M, i)


def test_nu_and_pv_batches_match_scalar_calls_by_column():
    # one rule's nodes at once against each node alone; (M, k, terms) =
    # (6, 7, 64) puts one node past the chunk size, so it runs node by node
    for M, aj, k, N, terms in ((4, 1, 5, 11, 24), (6, 1, 7, 9, 64)):
        phi, _ = _arc_rule(np.array([-1 / (k * (k + N)), 1 / (k * (k + N))]), 32)
        zs = an._arc_z(k, N, phi)
        window = an.lattice_window(M * k)
        mus = np.array([[1, -3], [2 * M * k + 5, -7 * M * k]])
        pv = oracles.pv_closed_form_batch(mus, M, aj, k, zs)
        sums = oracles.nu_sum_batch(window, M, aj, k, zs, terms=terms)
        assert pv.shape == mus.shape + zs.shape
        assert sums.shape == (len(window),) + zs.shape
        for i, z in enumerate(zs.tolist()):
            assert np.array_equal(pv[..., i], oracles.pv_closed_form_batch(mus, M, aj, k, z))
            one = oracles.nu_sum_batch(window, M, aj, k, z, terms=terms)
            assert np.all(np.abs(sums[:, i] - one) <= 1e-14 * np.maximum(1.0, np.abs(one)))


def test_nu_sum_batch_chunks_the_faddeeva_array(monkeypatch):
    # no call holds more than _PV_CHUNK (window x term x node) entries, or
    # one node's worth where that alone is larger
    sizes = []
    closed = oracles.pv_closed_form_batch

    def counted(mus, *args):
        out = closed(mus, *args)
        sizes.append((out.size, np.size(mus)))
        return out

    monkeypatch.setattr(oracles, "pv_closed_form_batch", counted)
    zs = an._arc_z(5, 11, np.linspace(-0.01, 0.01, 2048))
    for M, k in ((2, 5), (4, 5), (12, 5)):
        sizes.clear()
        oracles.nu_sum_batch(an.lattice_window(M * k), M, 1, k, zs)
        assert sum(size for size, _ in sizes) == (2 * M * k - 1) * 49 * zs.size
        assert all(size <= max(oracles._PV_CHUNK, per_node) for size, per_node in sizes)
