"""The ledger of named checks: each verification grid, comparison loop and
default tolerance, defined once.

``polytheta verify <name>`` runs ``VERIFIERS[name]``, ``polytheta grid``
exports the rows of ``transformation_pairs`` and ``pv_pairs``, and the
acceptance suite calls the same functions with its own literal bounds.
Functions raise ``ValueError`` on an invalid instance or an empty domain,
where a check would pass vacuously.
"""
from __future__ import annotations

import math

import numpy as np

from . import analytic, arith, counting, farey, modforms, series
from .counting import NON_NEGATIVE, PolygonalInstance

# (r, M, alpha_j) with r not in {0, M} mod 2M, so the sign-weighted sum is
# not identically zero and relative error is meaningful
THETA_CONFIGS = [(1, 2, 1), (5, 4, 1), (3, 4, 2), (5, 6, 1)]

_TRANSFORMS = {  # kind: (direct evaluator, its M multiplier, transformed evaluator)
    "lemma4_1": (analytic.theta_eval_direct_arc, 2, analytic.theta_eval_transformed),
    "lemma4_2": (analytic.false_theta_eval_direct_arc, 1,
                 analytic.false_theta_eval_transformed),
}


def transformation_pairs(kind: str, k_max: int, N: int):
    """Yield (r, M, alpha_j, h, k, z, scale, direct, transformed) of lemma
    4.1 (theta sums) or 4.2 (sign-weighted sums) for each of
    ``THETA_CONFIGS`` on every order-N arc with k <= k_max, at its left end,
    centre and right end z = k (1/N^2 - i phi), each route's three values
    from one array call; scale is the direct walk's sum of |terms| (its
    class at h = 0 and Re z, where every phase is 1).  N is capped at 20."""
    direct_eval, m_factor, transformed_eval = _TRANSFORMS[kind]
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    N = min(N, 20)
    for r, M, aj in THETA_CONFIGS:
        for arc in farey.arcs(N):
            if arc.k > k_max:
                continue
            h, k = arc.h, arc.k
            zs = analytic._arc_z(k, N, np.array(
                [-float(arc.theta_left), 0.0, float(arc.theta_right)]))
            values = (zs, analytic.theta_eval_direct_arc(
                r, 2 * M, 2 * aj, 0, k, zs.real).real,
                direct_eval(r, m_factor * M, 2 * aj, h, k, zs),
                transformed_eval(r, M, aj, h, k, zs))
            for row in zip(*(v.tolist() for v in values)):
                yield (r, M, aj, h, k) + row


PV_GRID = [
    # (mu, M, alpha_j, k, N, phi_frac) ; z = k(1/N^2 - i phi), phi = phi_frac/(k N)
    (1, 1, 1, 1, 6, 0.0),
    (2, 2, 1, 3, 10, 0.5),
    (5, 2, 1, 3, 10, -0.5),
    (-3, 1, 2, 2, 8, 0.25),
    (8, 4, 1, 5, 12, 0.9),
    (-7, 2, 3, 4, 9, -0.8),
]


def pv_pairs():
    """Yield (params, split, direct) of lemma 5.1 for each point of ``PV_GRID``."""
    for mu, M, aj, k, N, frac in PV_GRID:
        z = analytic._arc_z(k, N, frac / (k * N))
        params = analytic.PVIntegralParams(mu=mu, M=M, alpha_j=aj, k=k, z=z)
        yield params, analytic.pv_integral(params), analytic.pv_integral_direct(params)


RECURSION_Z = (0.9 + 0.35j, 1.0 + 0j, 0.8 + 0.3j, 0.6 - 0.25j)


def recursion_residual() -> float:
    """Worst residual of the integration-by-parts recursion (lemma 5.4) over
    d in 1..3, A in {1, 5, 20}, both signs and ``RECURSION_Z``."""
    return max(analytic.j_recursion_residual(d, sign, A, z)
               for d in (1, 2, 3) for A in (1.0, 5.0, 20.0) for sign in (1, -1)
               for z in RECURSION_Z)


def main_term_excess() -> float:
    """Worst remainder of the closed main terms of J_0 and J_1 (lemma 5.5)
    over its allowance, for A in {25, 50, 100} and three z; <= 1 holds.

    The allowance is the exponential envelope sqrt(pi A) e^(-A Re(1/z)|z|/4)
    / sqrt(Re(1/z)|z|) with 1% slack for d = 0, and 2 A^(-3/2) plus the
    envelope for d = 1."""
    worst = 0.0
    for A in (25.0, 50.0, 100.0):
        for z in (1.0 + 0j, 0.8 + 0.3j, 0.5 - 0.2j):
            rez = abs(z) * (1 / z).real
            envelope = math.sqrt(math.pi * A) * math.exp(-A * rez / 4) / math.sqrt(rez)
            main0 = 2 * np.sqrt(np.pi * A * abs(z) / z)
            main1 = np.sqrt(np.pi * z / (A * abs(z)))
            allow0, allow1 = envelope * 1.01, 2.0 * A ** (-1.5) + envelope
            worst = max(worst,
                        abs(analytic.j_integral(0, -1, A, z) - main0) / allow0,
                        abs(analytic.j_integral(0, 1, A, z)) / allow0,
                        abs(analytic.j_integral(1, -1, A, z) - main1) / allow1,
                        abs(analytic.j_integral(1, 1, A, z)) / allow1)
    return worst


def cotangent_window_means() -> list[tuple[int, int, tuple[float, float, float]]]:
    """(M, k, (w1, w2, w3)) for (M, k) in {(2, 3), (4, 5)}: the mean distance
    of the nu-sum from its cotangent main term (lemma 5.8) over each third of
    the window l = 1..Mk, at z = k (1/N^2 - 0.4 i/(kN)) with N = 4k.  The
    approximation improves along the window: w3 < w2 < w1."""
    out = []
    for M, k in ((2, 3), (4, 5)):
        N = 4 * k
        z = analytic._arc_z(k, N, 0.4 / (k * N))
        dists = [abs(analytic.nu_sum(ell, M, 1, k, z)
                     - analytic.cot_main_term(ell, M, 1, k, z))
                 for ell in range(1, M * k + 1)]
        third = max(1, len(dists) // 3)
        out.append((M, k, (float(np.mean(dists[:third])),
                           float(np.mean(dists[third:2 * third])),
                           float(np.mean(dists[-third:])))))
    return out


def _measure(h, k, h1, k1, h2, k2, N):
    # the next arc and its left neighbour, after the last one turn up
    nh, nk, nh1, nk1 = np.roll([h, k, h1, k1], -1, axis=1)
    nh[-1] += nk[-1]
    nh1[-1] += nk1[-1]
    chained = ((k >= 1) & (h2 == nh) & (k2 == nk) & (nh1 == h) & (nk1 == k)
               & (nh * k - h * nk == 1))
    return (np.arange(len(h)) == 0) & ~chained.all()


# Each property maps the int64 columns h, k, h1, k1, h2, k2, N of one
# order's arcs, in sequence order, to the mask of the arcs where it fails;
# rho1 = k + k1 - N and rho2 = k + k2 - N.
FAREY_PROPERTIES = {
    # the adjacency determinants h k1 - h1 k = h2 k - h k2 = 1
    "determinants": lambda h, k, h1, k1, h2, k2, N:
        (h * k1 - h1 * k != 1) | (h2 * k - h * k2 != 1),
    # 1 <= rho1, rho2 <= k, that is N - k < k1, k2 <= N
    "rho_range": lambda h, k, h1, k1, h2, k2, N:
        (np.minimum(k1, k2) <= N - k) | (np.maximum(k1, k2) > N),
    # lemma 6.2: rho1 is the class rho in (0, k] with h (N + rho) = 1
    # (mod k), the one ``farey.rho_congruence`` computes; N + rho1 = k + k1
    "congruence": lambda h, k, h1, k1, h2, k2, N:
        (k1 <= N - k) | (k1 > N) | ((h * (k + k1) - 1) % np.maximum(k, 1) != 0),
    # lemma 3.1: the reflection h/k -> (k-h)/k takes arc i to arc A - i (0/1
    # to itself) and swaps the neighbours: for k > 1, (h, k, rho1) of arc
    # A - i is (k - h, k, rho2) of arc i
    "reflection": lambda h, k, h1, k1, h2, k2, N: (k > 1) & (
        np.array([h, k, k + k1 - N])[:, -np.arange(len(h)) % len(h)]
        != [k - h, k, k + k2 - N]).any(axis=0),
    # the neighbours chain around one turn and every gap has determinant 1,
    # so theta_right(i) + theta_left(i+1) = h_{i+1}/k_{i+1} - h_i/k_i and
    # the measures telescope to exactly 1 (a break is reported at arc 0)
    "measure": _measure,
}


def farey_structure(N_max: int, properties) -> tuple[int, tuple | None]:
    """Check the named ``FAREY_PROPERTIES`` on the arcs of every order
    N <= N_max.  Returns the number of arcs checked and the first failure as
    (N, h, k, property name), or None."""
    if N_max < 1:
        raise ValueError(f"need N >= 1, got {N_max}")
    checked = 0
    for N in range(1, N_max + 1):
        cols = farey._arc_columns(N)
        for name in properties:
            bad = np.flatnonzero(FAREY_PROPERTIES[name](*cols.T))
            if bad.size:
                return checked, (N, *cols[bad[0], :2].tolist(), name)
        checked += len(cols)
    return checked, None


# the families of corollaries 1.2-1.4, counted over non-negative coordinates
FAMILIES = {
    "hexagonal": PolygonalInstance(m=6, alpha=(1, 1, 1, 1)),
    "hexagonal2": PolygonalInstance(m=6, alpha=(2, 1, 1, 1)),
    "pentagonal": PolygonalInstance(m=5, alpha=(1, 1, 1, 1)),
}


def main_term_table(which: str, nmax: int) -> np.ndarray:
    """``modforms.corollary_main_terms(which, n)`` as floats for n <= nmax,
    from one divisor-sum sieve over the odd arguments alone.

    The arguments 2n+1, 6n+1 and 8n+5 are odd, at indices n, 3n and 4n+2 of
    the odd sieve, so no even entry is sieved or lifted."""
    if nmax < 0:
        raise ValueError(f"need nmax >= 0, got {nmax}")
    if which == "hexagonal":
        return arith._sigma_odd(2 * nmax + 1).astype(float) / 16.0
    if which == "pentagonal":
        return arith._sigma_odd(6 * nmax + 1)[::3].astype(float) / 24.0
    if which == "hexagonal2":
        return -arith._twisted8_odd(8 * nmax + 5)[2::4].astype(float) / 64.0
    raise ValueError(f"unknown main-term family: {which!r}")


WINDOW_CHECKPOINTS = (100, 1_000, 10_000, 100_000)


def window_mean_deviations(count: np.ndarray, main: np.ndarray) -> list[float]:
    """|mean(count/main) - 1| over each window [0.8 c, c] of
    ``WINDOW_CHECKPOINTS`` inside the tables; the corollaries' ratio -> 1
    shows as a strictly falling sequence, so two windows are needed."""
    ratio = count / main
    nmax = len(ratio) - 1
    devs = [abs(float(ratio[int(0.8 * c):c + 1].mean()) - 1.0)
            for c in WINDOW_CHECKPOINTS if c <= nmax]
    if len(devs) < 2:
        raise ValueError(f"need nmax >= {WINDOW_CHECKPOINTS[1]} for two windows, "
                         f"got {nmax}")
    return devs


# The named checks.  Each takes the verify options (name, m, r, M, alpha,
# order, N, k_max, tol, nmax) as attributes of ``p`` and returns
# (passed, worst_error, detail); exact checks report 0 or inf.

def _exact(ok: bool, detail: str) -> tuple[bool, float, str]:
    return ok, 0.0 if ok else math.inf, detail


def _verify_lemma2_2(p):
    rep = series.rplus_generating_check(p.m, p.alpha, p.order)
    return _exact(rep.ok, f"m={p.m} alpha={p.alpha} n<={p.order}")


def _verify_lemma2_3(p):
    rep = series.decomposition_check(p.r, p.M, p.alpha, p.order)
    return _exact(rep.ok, f"r={p.r} M={p.M} alpha={p.alpha} n<={p.order}")


def _verify_lemma2_4(p):
    rep = series.index_identity_check(p.m, p.alpha, p.order)
    return _exact(rep.ok, f"m={p.m} alpha={p.alpha} n<={p.order}")


def _verify_farey(p):
    prop = {"lemma3_1": "reflection", "lemma6_2": "congruence"}[p.name]
    _, failure = farey_structure(p.N, (prop,))
    if failure:
        return _exact(False, f"N={failure[0]} h/k={failure[1]}/{failure[2]}")
    return _exact(True, f"N<={p.N}")


def _verify_transformation(p):
    # verify samples k <= 6; the acceptance suite covers k <= 10
    k_max, N = min(p.k_max, 6), min(p.N, 20)
    tol = {"lemma4_1": 1e-8, "lemma4_2": 1e-6}[p.name] if p.tol is None else p.tol
    worst = max(analytic.resolved_relative_error(d, t, s)
                for *_, s, d, t in transformation_pairs(p.name, k_max, N))
    return worst <= tol, worst, f"k<={k_max} N={N} tol={tol}"


def _verify_lemma5_1(p):
    tol = 1e-6 if p.tol is None else p.tol
    worst = max(abs(split - direct) / abs(direct) for _, split, direct in pv_pairs())
    return worst <= tol, worst, f"grid of {len(PV_GRID)} points, tol={tol}"


def _verify_lemma5_4(p):
    tol = 1e-8 if p.tol is None else p.tol
    worst = recursion_residual()
    return (worst <= tol, worst,
            f"d in 1..3, A in {{1,5,20}}, {len(RECURSION_Z)} z, tol={tol}")


def _verify_lemma5_5(p):
    worst = main_term_excess()
    return worst <= 1.0, worst, "J_0 and J_1 remainders over their allowance"


def _verify_lemma5_8(p):
    means = cotangent_window_means()
    return _exact(all(w3 < w2 < w1 for _, _, (w1, w2, w3) in means),
                  "; ".join(f"(M,k)=({M},{k}): {w1:.3e} > {w2:.3e} > {w3:.3e}"
                            for M, k, (w1, w2, w3) in means))


def _verify_theta_split(p):
    rep = modforms.verify_theta_split(p.order)
    return _exact(rep.ok, f"order={p.order} mismatch={rep.first_mismatch}")


def _verify_corollary(p):
    family = {"cor1_2": "hexagonal", "cor1_3": "hexagonal2",
              "cor1_4": "pentagonal"}[p.name]
    count = counting.polygonal_count_table(FAMILIES[family], p.nmax, NON_NEGATIVE)
    devs = window_mean_deviations(count, main_term_table(family, p.nmax))
    return _exact(all(b < a for a, b in zip(devs, devs[1:])),
                  " -> ".join(f"{d:.4f}" for d in devs))


VERIFIERS = {
    "lemma2_2": _verify_lemma2_2,
    "lemma2_3": _verify_lemma2_3,
    "lemma2_4": _verify_lemma2_4,
    "lemma3_1": _verify_farey,
    "lemma4_1": _verify_transformation,
    "lemma4_2": _verify_transformation,
    "lemma5_1": _verify_lemma5_1,
    "lemma5_4": _verify_lemma5_4,
    "lemma5_5": _verify_lemma5_5,
    "lemma5_8": _verify_lemma5_8,
    "lemma6_2": _verify_farey,
    "theta_split": _verify_theta_split,
    "cor1_2": _verify_corollary,
    "cor1_3": _verify_corollary,
    "cor1_4": _verify_corollary,
}
