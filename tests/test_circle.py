import itertools
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import oracles
import pytest

import polytheta
from polytheta import analytic, circle
from polytheta.analytic import (_arc_z, _gauss_factor, _lattice_sum,
                                _legendre, _transformed_sum, _unit_phase)
from polytheta.arith import divisor_sigma
from polytheta.circle import (ContourConfig, _arc_rule, _arc_walk,
                              constant_evaluator, coefficient_by_contour,
                              error_exponent_fit, i_nu_contributions,
                              kloosterman_h_sum, nu_norm_cap_for,
                              reconstruct_by_nu, series_evaluator,
                              transformed_evaluator)
from polytheta.farey import arcs
from polytheta.series import FULL_J, f_J_series


def test_constant_series_orthogonality():
    res = coefficient_by_contour(constant_evaluator(), 0)
    assert abs(res.value - 1) < 1e-9
    for n in (1, 2, 5):
        res = coefficient_by_contour(constant_evaluator(), n)
        assert abs(res.value) < 1e-7


def test_skipping_an_arc_breaks_completeness():
    full = coefficient_by_contour(constant_evaluator(), 4)
    for arc in ((0, 1), (1, 2)):
        partial = coefficient_by_contour(constant_evaluator(), 4,
                                         skip_arcs=[arc])
        assert abs(partial.value - full.value) > 1e-6
        assert partial.num_arcs == full.num_arcs - 1


def test_skipping_every_arc_gives_an_empty_sum():
    # n = 0 has the single arc 0/1; without it the sum has no terms
    res = coefficient_by_contour(constant_evaluator(), 0, skip_arcs=[(0, 1)])
    assert (res.value, res.num_arcs, res.quad_error) == (0, 0, 0.0)


def test_direct_contour_full_J():
    # n = 200 (N = 14) needs more nodes per arc than any n <= 30
    r, M, alpha = 1, 2, (1, 1, 1, 1)
    fj = f_J_series(r, M, alpha, FULL_J, 200)
    ev = series_evaluator(r, M, alpha, FULL_J)
    for n in (0, 1, 2, 7, 16, 30, 200):
        exact = float(fj.coeff(n))
        res = coefficient_by_contour(ev, n)
        assert abs(res.value - exact) <= 1e-6, n
        assert abs(res.value.imag) <= 1e-6


def test_direct_contour_mixed_J():
    r, M, alpha = 1, 2, (1, 1, 1, 1)
    J = frozenset({1, 2, 3})
    fj = f_J_series(r, M, alpha, J, 20)
    ev = series_evaluator(r, M, alpha, J)
    for n in (0, 3, 8, 20):
        exact = float(fj.coeff(n))
        res = coefficient_by_contour(ev, n)
        assert abs(res.value - exact) <= 1e-6, n
        rerun = coefficient_by_contour(ev, n)
        assert (rerun.value, rerun.quad_error) == (res.value, res.quad_error)
    # n = 1000 (N = 31): on the arc at 0/1 the rule differences stay near 100
    # until m resolves the ~31 periods of e(-n phi), which must not read as
    # the roundoff floor
    res = coefficient_by_contour(ev, 1000)
    assert abs(res.value - float(f_J_series(r, M, alpha, J, 1000).coeff(1000))) <= 1e-6
    assert res.quad_error <= 1e-6


def test_direct_contour_at_index_3984():
    # the longest direct walks: hexagonal (r, M) = (6, 4) at N = 63, 1228
    # arcs; the full-J coefficient is sigma(2001) = 2880
    r, M, alpha, n = 6, 4, (1, 1, 1, 1), 3984
    J = frozenset({1, 2, 3})
    for J_, exact in ((FULL_J, divisor_sigma(2001)),
                      (J, f_J_series(r, M, alpha, J, n).coeff(n))):
        res = coefficient_by_contour(series_evaluator(r, M, alpha, J_), n)
        assert abs(res.value - float(exact)) <= 1e-6, sorted(J_)
    assert divisor_sigma(2001) == 2880


def test_legendre_rule_matches_scipy_and_mpmath():
    # scipy's roots_legendre is the oracle of the nodes; its own weights
    # are off by up to 1.8e-9 relative at the ends for m >= 512, so there
    # the weights are held to 40-digit Newton roots of the recurrence
    pytest.importorskip("scipy.special")
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def end_weight(m):
        x = mpmath.mpf(-1) + mpmath.mpf(_legendre(m)[0][0]) * 2
        for _ in range(8):
            prev, cur = mpmath.mpf(1), x
            for j in range(2, m + 1):
                prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
            deriv = m * (x * cur - prev) / (x * x - 1)
            x -= cur / deriv
        return 1 / ((1 - x * x) * deriv * deriv)

    # the contour's rule sizes and the nu-decomposition's 24
    for m in (16, 24, 32, 64, 128, 256, 512, 1024):
        x, w = _legendre(m)
        X, W = oracles.legendre_rule(m)
        assert np.max(np.abs(x - X)) <= 3e-16, m
        assert np.max(np.abs(w / W - 1)) <= 1e-8, m
        assert abs(w.sum() - 1) <= 1e-15, m
        if m in (16, 512, 1024):
            assert abs(w[0] / float(end_weight(m)) - 1) <= 1e-11, m


def test_contour_path_loads_no_scipy():
    # the Gauss-Legendre rules are built without scipy, so the direct and
    # transformed contours and the nu-decomposition run without it
    src = str(Path(polytheta.__file__).resolve().parents[1])
    code = textwrap.dedent("""
        import sys
        from polytheta import circle
        alpha, J = (1, 1, 1, 1), {1, 2, 3}
        circle.coefficient_by_contour(
            circle.series_evaluator(1, 2, alpha, J), 100)
        circle.coefficient_by_contour(
            circle.transformed_evaluator(1, 2, alpha, J), 12,
            circle.ContourConfig(n=12, mode="transformed", tol=1e-8))
        circle.reconstruct_by_nu(1, 2, alpha, J, 4)
        sys.exit(any(m.split(".")[0] == "scipy" for m in sys.modules))
        """)
    proc = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr or "scipy was imported"


def test_package_runs_without_scipy():
    # numpy is the only runtime dependency: with scipy made unimportable,
    # every named check passes at its command-line defaults, and the direct
    # and transformed contours and the nu-decomposition reproduce exact
    # coefficients
    src = str(Path(polytheta.__file__).resolve().parents[1])
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        from polytheta import checks, circle, cli
        from polytheta.series import f_J_series
        for name in checks.VERIFIERS:
            assert cli.main(["verify", name, "--format", "json"]) == 0, name
        r, M, alpha, J = 1, 2, (1, 1, 1, 1), frozenset({1, 2, 3})
        fj = f_J_series(r, M, alpha, J, 100)
        for evaluator, mode in ((circle.series_evaluator, "direct"),
                                (circle.transformed_evaluator, "transformed")):
            res = circle.coefficient_by_contour(
                evaluator(r, M, alpha, J), 100,
                circle.ContourConfig(n=100, mode=mode, tol=1e-8))
            assert abs(res.value - float(fj.coeff(100))) <= 1e-6, mode
        val, _ = circle.reconstruct_by_nu(r, M, alpha, J, 4)
        assert abs(val - float(fj.coeff(4))) <= 1e-6
        """)
    proc = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_contour_rule_splits_at_the_cusp_and_stops_at_the_cap():
    # n = 0 has one arc, phi in [-1/2, 1/2], and z.imag = -phi on it; the
    # evaluator gets one (1, 2m) row of nodes per rule
    def counted(f):
        def ev(h, k, z):
            calls.append(z.size)
            assert sum(calls) <= 4064, "the rule ran past 1024 nodes per side"
            return f(abs(z.imag))
        return ev

    # |phi| is linear on each side of the cusp, so the first two rules are
    # exact and agree at once
    calls = []
    res = coefficient_by_contour(counted(lambda x: x), 0)
    assert sum(calls) == 2 * (16 + 32)
    assert abs(res.value - 0.25) <= 1e-14 and res.quad_error <= 1e-14
    # |phi|^(-1/2): each doubling only halves the difference, so neither the
    # tolerance nor the stall stop ends the refinement before m = 1024
    calls = []
    res = coefficient_by_contour(counted(lambda x: x ** -0.5), 0)
    assert sum(calls) == 2 * sum(16 * 2**i for i in range(7))
    assert abs(res.value - 4 * math.sqrt(0.5)) <= 2 * res.quad_error <= 4e-3


def _contour_by_arc(evaluator, n, config=None):
    """The arc-by-arc doubling loop that ``coefficient_by_contour`` runs by
    level: each arc refines alone, with the evaluator called on one-row
    columns."""
    config = config or ContourConfig(n=n)
    N = config.N
    hs, ks, sides = _arc_walk(N)
    total, err = 0j, 0.0
    amp = math.exp(2 * math.pi * n / N**2)
    per_arc_tol = max(config.tol / (len(ks) * amp), 1e-14)
    for h, k, s in zip(hs[:, 0].tolist(), ks[:, 0].tolist(), sides):
        stall_m = 4 * n * float(abs(s).max())
        val, diff, m = None, math.inf, 16
        while True:
            phi, w = _arc_rule(s, m)
            f = evaluator(np.array([[h]]), np.array([[k]]),
                          _arc_z(k, N, phi)[None])[0]
            new = complex((w * np.exp(-2j * np.pi * n * phi) * f).sum())
            if val is not None:
                last, diff = diff, abs(new - val)
                if (diff <= per_arc_tol or (diff >= last and m >= stall_m)
                        or m >= 1024):
                    val = new
                    break
            val, m = new, 2 * m
        total += _unit_phase(-n * h, k) * amp * val
        err += amp * diff
    return total, err


def _rules_recorded(evaluator):
    """The evaluator, and the dict (h, k) -> rule sizes m that it fills with
    every row it is called on."""
    rules = {}

    def ev(h, k, z):
        for arc in zip(h[:, 0].tolist(), k[:, 0].tolist()):
            rules.setdefault(arc, []).append(z.shape[1] // 2)
        return evaluator(h, k, z)
    return ev, rules


def test_contour_by_level_matches_arc_by_arc_loop():
    # the benchmark's direct bands, two wide-N direct cases and one
    # transformed case: the same value and quad_error, and every arc runs
    # the same rule sizes
    cases = [(series_evaluator(r, M, (1, 1, 1, 1), J), n, None)
             for M, r in ((2, 1), (3, 1), (4, 3), (6, 5))
             for J in (frozenset({1}), frozenset({2, 4}), frozenset({1, 2, 3}))
             for n in (37, 102)]
    cases += [(series_evaluator(1, 2, (1, 1, 1, 1), frozenset({1, 2, 3})), n,
               None) for n in (400, 1000)]
    cases.append((transformed_evaluator(1, 2, (1, 1, 1, 1), frozenset({2, 4})),
                  12, ContourConfig(n=12, mode="transformed", tol=1e-8)))
    for ev, n, config in cases:
        by_level, level_rules = _rules_recorded(ev)
        by_arc, arc_rules = _rules_recorded(ev)
        res = coefficient_by_contour(by_level, n, config)
        value, err = _contour_by_arc(by_arc, n, config)
        assert abs(res.value - value) <= 1e-12, n
        assert abs(res.quad_error - err) <= 1e-12, n
        assert level_rules == arc_rules, n


def test_lattice_sum_batched_rows_equal_single_arc_calls():
    # one call over a level's rows gives each node both sums of the call
    # for its arc alone, bit for bit, at the class's modulus M (as the
    # two-sided factor) and 2M (as the sign-weighted one); N = 30 with 64
    # nodes a side is 278 rows of 128 nodes
    for N, m in ((11, 16), (30, 64)):
        h, k, sides = _arc_walk(N)
        phi, _ = _arc_rule(sides, m)
        z = _arc_z(k, N, phi)
        for M, r, scale in ((2, 1, 2), (3, 2, 4), (6, 5, 2)):
            for mod in (M, 2 * M):
                rows = _lattice_sum(r, mod, scale, h, k, z, 1e-16)
                for i, (hi, ki) in enumerate(zip(h[:, 0].tolist(),
                                                 k[:, 0].tolist())):
                    one = _lattice_sum(r, mod, scale, hi, ki, z[i], 1e-16)
                    for s in (0, 1):
                        assert np.array_equal(rows[s][i], one[s]), (
                            N, mod, s, hi, ki)
    assert z.shape == (278, 128)


def test_transformed_factor_batched_rows_equal_single_arc_calls():
    # a level's transformed factor, on J and off J, and its Gauss-factor
    # table give each arc the values of the call for that arc alone, bit for
    # bit; N = 23 with 64 nodes a side is 172 rows of 128 nodes
    for N, m in ((11, 16), (23, 64)):
        h, k, sides = _arc_walk(N)
        phi, _ = _arc_rule(sides, m)
        z = _arc_z(k, N, phi)
        for r, M, a in ((1, 2, 1), (6, 4, 1), (5, 6, 2)):
            for in_J in (True, False):
                rows = _transformed_sum(r, M, a, h, k, z, in_J)
                table = _gauss_factor(r, M, a, h, k, z, in_J, 5)
                for i, (hi, ki) in enumerate(zip(h[:, 0].tolist(),
                                                 k[:, 0].tolist())):
                    one = _transformed_sum(r, M, a, hi, ki, z[i], in_J)
                    assert np.array_equal(rows[i], one), (N, r, M, in_J, hi, ki)
                    if i % 8 == 0:
                        one = _gauss_factor(r, M, a, hi, ki, z[i], in_J, 5)
                        assert np.array_equal(table[:, i], one), (N, in_J, hi, ki)
    assert z.shape == (172, 128)


def test_arc_walk_columns_equal_exact_arcs():
    for N in range(1, 61):
        h, k, sides = _arc_walk(N)
        exact = sorted(arcs(N), key=lambda a: (a.k, a.h))
        assert h.shape == k.shape == (len(exact), 1)
        assert h[:, 0].tolist() == [a.h for a in exact]
        assert k[:, 0].tolist() == [a.k for a in exact]
        assert sides.tolist() == [[-float(a.theta_left), float(a.theta_right)]
                                  for a in exact]


def test_transformed_contour_matches_direct():
    r, M, alpha = 1, 2, (1, 1, 1, 1)
    for J in (FULL_J, frozenset({2, 4})):
        fj = f_J_series(r, M, alpha, J, 12)
        for n in (0, 2, 5, 12):
            ev = transformed_evaluator(r, M, alpha, J)
            exact = float(fj.coeff(n))
            res = coefficient_by_contour(
                ev, n, ContourConfig(n=n, mode="transformed", tol=1e-8))
            assert abs(res.value - exact) <= 1e-4, (sorted(J), n)


def test_transformed_contour_at_n_100_matches_exact_and_direct():
    # N = 10: 33 arcs, up to k = 10 and windows of 2Mk - 1 = 39 indices
    r, M, alpha, J, n = 1, 2, (1, 1, 1, 1), frozenset({1, 2, 3}), 100
    exact = float(f_J_series(r, M, alpha, J, n).coeff(n))
    res = coefficient_by_contour(
        transformed_evaluator(r, M, alpha, J), n,
        ContourConfig(n=n, mode="transformed", tol=1e-8))
    assert abs(res.value - exact) <= 1e-6
    direct = coefficient_by_contour(series_evaluator(r, M, alpha, J), n)
    assert abs(res.value - direct.value) <= 1e-6


def test_contour_path_runs_without_faddeeva():
    # the off-J window is the Fourier/residue form: the package holds no
    # Faddeeva route, and the transformed contour and the nu-decomposition
    # still reproduce exact coefficients
    for name in ("pv_closed_form_batch", "nu_sum_batch"):
        assert not hasattr(analytic, name), name
    r, M, alpha, J = 1, 2, (1, 1, 1, 1), frozenset({1, 2, 3})
    fj = f_J_series(r, M, alpha, J, 100)
    res = coefficient_by_contour(
        transformed_evaluator(r, M, alpha, J), 100,
        ContourConfig(n=100, mode="transformed", tol=1e-8))
    assert abs(res.value - float(fj.coeff(100))) <= 1e-6
    val, _ = reconstruct_by_nu(r, M, alpha, J, 4)
    assert abs(val - float(fj.coeff(4))) <= 1e-6


def test_transformed_contour_mixed_alpha():
    # the same alpha_j both on and off J: the shared factors are keyed by
    # (alpha_j, j in J), not by alpha_j alone
    for r, M, alpha, J, n in [(1, 2, (2, 1, 1, 1), frozenset({1, 3}), 40),
                              (1, 2, (1, 2, 1, 2), frozenset({1, 2}), 30)]:
        exact = float(f_J_series(r, M, alpha, J, n).coeff(n))
        res = coefficient_by_contour(
            transformed_evaluator(r, M, alpha, J), n,
            ContourConfig(n=n, mode="transformed", tol=1e-8))
        assert abs(res.value - exact) <= 1e-6, (alpha, sorted(J))


def test_i_nu_rejects_full_J(monkeypatch):
    # refused before any factor table is built
    def no_table(*args, **kwargs):
        raise AssertionError("a factor table was built")

    monkeypatch.setattr(circle, "_gauss_factor", no_table)
    for call in (lambda: i_nu_contributions(1, 2, (1, 1, 1, 1), FULL_J,
                                            [(0, 0, 0, 0)], 4),
                 lambda: reconstruct_by_nu(1, 2, (1, 1, 1, 1), FULL_J, 4)):
        with pytest.raises(ValueError):
            call()


def test_i_nu_rejects_malformed_nu_vectors():
    # a negative entry would index its table from the end and silently
    # return another nu's value
    args = (1, 2, (1, 1, 1, 1), frozenset({1, 2, 3}))
    for nus in ([(-1, 0, 0, 0)], [(0, 0, 0, 0), (2, 0, -3, 1)], [(1, 0, 0)],
                [(0, 0, 0, 0), (1, 0, 0)], [(1, 0, 0, 0, 0)], [(1.0, 0, 0, 0)]):
        with pytest.raises(ValueError):
            i_nu_contributions(*args, nus, 4)


def _i_nu_by_node(r, M, alpha, J, nus, n):
    """The per-node loop that ``i_nu_contributions`` contracts: at every
    node of every arc, the base times the four table rows indexed by the
    columns of the nu array."""
    N = max(1, math.isqrt(n))
    keys = [tuple(nu) for nu in nus]
    idx = np.array(keys, dtype=np.intp).reshape(-1, 4)
    acc = np.zeros(len(keys), dtype=complex)
    c_shift = r * r * sum(alpha) / (2.0 * M)
    coords = [(a, j in J) for j, a in enumerate(alpha, start=1)]
    nu_max = int(idx.max(initial=0))
    hs, ks, sides = _arc_walk(N)
    for h, k, s in zip(hs[:, 0].tolist(), ks[:, 0].tolist(), sides):
        phi, w = _arc_rule(s, 24)
        z = _arc_z(k, N, phi)
        tables = {c: _gauss_factor(r, M, c[0], h, k, z, c[1], nu_max).T
                  for c in set(coords)}
        base = (_unit_phase(-n * h, k) * w) * np.exp(
            2 * np.pi * (n + c_shift) * z / k) / (k * k * z * z)
        for i, b in enumerate(base.tolist()):
            t1, t2, t3, t4 = (tables[c][i] for c in coords)
            acc += b * (t1[idx[:, 0]] * t2[idx[:, 1]] * t3[idx[:, 2]]
                        * t4[idx[:, 3]])
    return dict(zip(keys, acc.tolist()))


def test_i_nu_contraction_matches_per_node_loop():
    r, M, alpha = 1, 2, (1, 1, 1, 1)
    ball = [nu for nu in itertools.product(range(7), repeat=4)
            if sum(c * c for c in nu) <= 36]
    axis = [(a, 0, 0, 0) for a in range(6)]
    for J in (frozenset({1, 2, 3}), frozenset({1})):
        for n in (4, 10):
            for nus in (ball, axis):
                got = i_nu_contributions(r, M, alpha, J, nus, n)
                want = _i_nu_by_node(r, M, alpha, J, nus, n)
                assert list(got) == list(want)
                # entries where a factor vanishes are exact zeros on both
                bad = [nu for nu in want
                       if abs(got[nu] - want[nu]) > 1e-12 * abs(want[nu])]
                assert not bad, (sorted(J), n, bad[:3])


def test_nu_reconstruction_ball_in_product_order():
    r, M, alpha, J, n = 1, 2, (1, 1, 1, 1), frozenset({1, 2, 3}), 4
    cap = nu_norm_cap_for(n, M, alpha)
    ball = [nu for nu in itertools.product(range(cap + 1), repeat=4)
            if sum(c * c for c in nu) <= cap * cap]
    _, contrib = reconstruct_by_nu(r, M, alpha, J, n)
    assert list(contrib) == ball
    assert all(type(c) is int for nu in contrib for c in nu)


def test_nu_reconstruction_matches_exact_coefficients():
    r, M, alpha, J = 1, 2, (1, 1, 1, 1), frozenset({1, 2, 3})
    fj = f_J_series(r, M, alpha, J, 10)
    for n in (0, 3, 6, 10):
        val, _ = reconstruct_by_nu(r, M, alpha, J, n)
        exact = float(fj.coeff(n))
        assert abs(val - exact) <= 1e-4, n
    # the 1e-6 that nu_norm_cap_for promises, at M = 6 where its cap is 20
    val, _ = reconstruct_by_nu(5, 6, alpha, J, 4)
    assert abs(val - float(f_J_series(5, 6, alpha, J, 4).coeff(4))) <= 1e-6


def test_nu_reconstruction_rule_follows_n():
    # the rules take a few nodes per period of e(-n phi) past n = 36; with 24
    # nodes at every n the first two were off by 5.4e-5 and 160
    alpha = (1, 1, 1, 1)
    for r, M, J, n in [(1, 2, frozenset({1, 2, 3}), 100),
                       (1, 2, frozenset({1, 2, 3}), 400),
                       (5, 6, frozenset({1, 2}), 100)]:
        val, _ = reconstruct_by_nu(r, M, alpha, J, n)
        exact = float(f_J_series(r, M, alpha, J, n).coeff(n))
        assert abs(val - exact) <= 1e-6, (r, M, n, val)


def test_nu_reconstruction_roundoff_at_n1():
    # at N = 1 the contributions cancel from up to 2.8e19 here; the ball
    # summed by partial disk sums at each node leaves 5.6e-4 (2.7e2 when
    # each nu's contribution was summed over the nodes first)
    alpha, J = (1, 1, 1, 1), frozenset({2})
    val, _ = reconstruct_by_nu(3, 4, alpha, J, 3)
    assert abs(val - float(f_J_series(3, 4, alpha, J, 3).coeff(3))) <= 1e-2


def test_nu_breakdown_is_contracted_only_when_read(monkeypatch):
    r, M, alpha, J, n = 1, 2, (1, 1, 1, 1), frozenset({1, 2, 3}), 4
    want, _ = reconstruct_by_nu(r, M, alpha, J, n)

    def refuse(*args, **kwargs):
        raise RuntimeError("contracted")

    monkeypatch.setattr(circle, "_nu_contraction", refuse)
    val, contrib = reconstruct_by_nu(r, M, alpha, J, n)
    assert val == want
    with pytest.raises(RuntimeError):
        contrib[(0, 0, 0, 0)]


def test_nu_breakdown_is_the_contributions_of_its_ball():
    alpha = (1, 1, 1, 1)
    for r, M, J, n in [(1, 2, frozenset({1, 2, 3}), 4),
                       (5, 6, frozenset({1, 2}), 4),
                       (1, 2, frozenset({1}), 10)]:
        val, contrib = reconstruct_by_nu(r, M, alpha, J, n)
        cap = nu_norm_cap_for(n, M, alpha)
        ball = [nu for nu in itertools.product(range(cap + 1), repeat=4)
                if sum(c * c for c in nu) <= cap * cap]
        if n == 4:
            assert (list(contrib.items())
                    == list(i_nu_contributions(r, M, alpha, J, ball, n).items()))
        # the total is the weighted sum of the breakdown, to roundoff
        pref = 1.0 / (16.0 * M * M)
        terms = [0.5 ** nu.count(0) * contrib[nu] for nu in ball]
        assert (abs(val - pref * sum(terms))
                <= 1e-12 * pref * sum(map(abs, terms))), (r, M, n)


def test_i_nu_decay_profile():
    # contributions fall off like a Gaussian in ||nu||; compare shells
    r, M, alpha, J = 1, 2, (1, 1, 1, 1), frozenset({1, 2, 3})
    n = 5
    nus = [(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0),
           (4, 0, 0, 0), (5, 0, 0, 0)]
    contrib = i_nu_contributions(r, M, alpha, J, nus, n)
    mags = [abs(contrib[nu]) for nu in nus]
    assert mags[2] < mags[0]
    assert mags[4] < mags[2]
    assert mags[5] < mags[3]
    # log-magnitudes drop at least quadratically in the nonzero entry
    assert mags[5] / mags[1] < math.exp(-2.0)


def test_i_nu_zero_growth_trend():
    # the nu = 0 magnitude grows sublinearly in n (trend fit; values
    # themselves fluctuate with the arithmetic of n)
    r, M, alpha, J = 1, 2, (1, 1, 1, 1), frozenset({1, 2, 3})
    ns = [4, 9, 16, 36, 64, 100, 144, 196]
    vals = [abs(i_nu_contributions(r, M, alpha, J, [(0, 0, 0, 0)], n)[(0, 0, 0, 0)])
            for n in ns]
    fit = error_exponent_fit(np.array(ns, float), np.array(vals))
    assert fit.slope < 1.0, fit


def test_error_exponent_fit_synthetic():
    ns = np.arange(10, 2000, 7)
    fit = error_exponent_fit(ns, ns.astype(float) ** 0.9)
    assert fit.slope == pytest.approx(0.9, abs=0.01)
    flat = error_exponent_fit(ns, np.full(len(ns), 5.0))
    assert flat.slope == pytest.approx(0.0, abs=0.01)
    zero = error_exponent_fit(ns, np.zeros(len(ns)))
    assert zero.all_zero


def test_error_exponent_fit_matches_polyfit_and_lstsq():
    rng = np.random.default_rng(5)
    for size in (2, 3, 17, 400):
        ns = np.sort(rng.uniform(5, 1e5, size))
        errs = ns ** rng.uniform(-1, 1) * np.exp(rng.normal(0, 0.3, size))
        fit = error_exponent_fit(ns, errs)
        x, y = np.log(ns), np.log(errs)
        slope, intercept = np.polyfit(x, y, 1)
        A = np.vstack([x, np.ones_like(x)]).T
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = y - A @ coef
        stderr = math.sqrt(float(resid @ resid) / max(size - 2, 1)
                           / float(((x - x.mean()) ** 2).sum()))
        pairs = [(fit.slope, slope), (fit.slope, coef[0]),
                 (fit.intercept, intercept), (fit.intercept, coef[1])]
        # two points fit exactly: both residuals are roundoff
        pairs += [(fit.stderr, stderr)] if size > 2 else []
        for got, want in pairs:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), size
        assert fit.n_points == size
    one = error_exponent_fit([10.0, 20.0], [0.0, 3.0])
    assert (one.n_points, one.slope, one.intercept) == (1, 0.0, math.log(3.0))


def test_error_exponent_fit_band_contains_truth():
    rng = np.random.default_rng(11)
    ns = np.arange(20, 5000, 13)
    noisy = ns.astype(float) ** 0.7 * np.exp(rng.normal(0, 0.05, len(ns)))
    fit = error_exponent_fit(ns, noisy)
    lo, hi = fit.band
    assert lo < 0.7 < hi


def test_kloosterman_h_sum_profile():
    # exact h-sums stay below the dissection-shape envelope with a small
    # fitted constant; nothing sharper is asserted
    n, M, alpha = 37, 2, (1, 1, 1, 1)
    d = (1, 1, 1, 1)
    worst = 0.0
    for k in range(1, 26):
        N = 30
        val = abs(kloosterman_h_sum(n, k, M, alpha, d, rho_max=k, N=N))
        shape = k ** (2 + 7 / 8) * math.gcd(n, k) ** 0.25
        worst = max(worst, val / shape)
    assert worst < 10.0


def test_contour_config_validation():
    with pytest.raises(ValueError):
        ContourConfig(n=-1)
    cfg = ContourConfig(n=10)
    assert cfg.N == 3
    with pytest.raises(ValueError):
        coefficient_by_contour(constant_evaluator(), 5, ContourConfig(n=4))
