"""Seeded task lists for the three benchmark workloads.

A workload is a list of tasks.  Each task calls the public functions of the
layer modules through module attributes (``counting.polygonal_count_table``
rather than a name bound at import), so the tracer in ``spans.py`` sees every
call once it has patched those attributes.  Each task checks its own output
against an independent reference and returns one ``Check`` per comparison.

The seed only picks among inputs of equal cost (an alpha permutation, a
residue, an index inside a narrow band), so the work per pass barely depends
on the seed.  See README.md for why each workload exists.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("sweep", "ledger", "contour")


@dataclass(frozen=True)
class Check:
    """One comparison of a program output with its reference."""

    name: str
    ok: bool
    abs_err: float | None = None  # set for floating-point results only
    known_miss: bool = False  # a documented miss: counted, never hidden


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[dict], list[Check]]  # gets a per-pass scratch dict


def build(workload: str, seed: int, smoke: bool = False) -> list[Task]:
    """Import the layers the workload uses and generate its seeded tasks."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return {"sweep": _sweep, "ledger": _ledger, "contour": _contour}[workload](
        rng, smoke)


def _permuted(rng: random.Random, alpha: tuple[int, ...]) -> tuple[int, ...]:
    alpha = list(alpha)
    rng.shuffle(alpha)
    return tuple(alpha)


def _strata(rng: random.Random, hi: int, count: int) -> list[int]:
    """One index from the bottom eighth of each of ``count`` equal strata of
    [0, hi): per-index cost grows like n^1.5, so a narrow window keeps the
    median task latency independent of the seed."""
    edges = [hi * i // count for i in range(count + 1)]
    return [lo + rng.randrange(max(1, (up - lo) // 8))
            for lo, up in zip(edges, edges[1:])]


def _farey_bands(hi: int, count: int) -> list[tuple[int, int]]:
    """Split the orders 1..hi into ``count`` bands of about equal work.

    Checking order N walks its arcs, one per reduced fraction h/k in [0, 1)
    with k <= N, so the work of a band is the sum of those counts over it.
    Bands of equal work put the median task of a ``ledger`` pass among
    alike tasks whose cost the seed does not change.
    """
    phi = list(range(hi + 1))
    for p in range(2, hi + 1):
        if phi[p] == p:  # p is prime
            for q in range(p, hi + 1, p):
                phi[q] -= phi[q] // p
    arcs, work = 1, [0]
    for N in range(1, hi + 1):
        arcs += phi[N] if N > 1 else 0
        work.append(work[-1] + arcs)
    bands, lo = [], 1
    for i in range(1, count + 1):
        # the order whose cumulative work is nearest the i-th share
        up = min(range(lo, hi + 1),
                 key=lambda N: abs(work[N] * count - work[hi] * i))
        bands.append((lo, up))
        lo = up + 1
    return bands


# ---------------------------------------------------------------------------
# sweep: huge exact tables and the sieves behind their main terms
# ---------------------------------------------------------------------------

# family -> (m, alpha, denominator of the main term)
FAMILIES = {
    "hexagonal": (6, (1, 1, 1, 1), 16),
    "hexagonal2": (6, (2, 1, 1, 1), 64),
    "pentagonal": (5, (1, 1, 1, 1), 24),
}


def _sweep(rng: random.Random, smoke: bool) -> list[Task]:
    import numpy as np

    from polytheta import arith, circle, counting, modforms

    nmax = 3_000 if smoke else 60_000
    spot_hi = 300 if smoke else 3_000
    spots_per_family = 16
    alphas = {f: _permuted(rng, alpha) for f, (_, alpha, _) in FAMILIES.items()}
    spots = {f: _strata(rng, spot_hi, spots_per_family) for f in FAMILIES}

    def table_task(f):
        m, alpha = FAMILIES[f][0], alphas[f]

        def run(st):
            tab = counting.polygonal_count_table(
                counting.PolygonalInstance(m=m, alpha=alpha), nmax,
                counting.NON_NEGATIVE)
            st["table", f] = tab
            ref = counting.polygonal_count_table(
                counting.PolygonalInstance(m=m, alpha=FAMILIES[f][1]), nmax,
                counting.NON_NEGATIVE)
            return [Check(f"{f} alpha={alpha} equals canonical order",
                          bool(np.array_equal(tab, ref)))]
        return Task(f"table:{f}", run)

    def main_task(f):
        def run(st):
            # integer main-term numerators, as `polytheta asymptotics` builds them
            if f == "hexagonal":
                sig = arith.sigma_table(2 * nmax + 1)
                st["sigma_2n1"] = sig[1:2 * nmax + 2:2]
                num = st["sigma_2n1"]
            elif f == "pentagonal":
                num = arith.sigma_table(6 * nmax + 1)[1:6 * nmax + 2:6]
            else:
                num = -arith.twisted8_table(8 * nmax + 5)[5:8 * nmax + 6:8]
            st["main", f] = num
            den = FAMILIES[f][2]
            return [Check(f"{f} main term at n={n}",
                          Fraction(int(num[n]), den)
                          == modforms.corollary_main_terms(f, n))
                    for n in spots[f]]
        return Task(f"main:{f}", run)

    def fit_task(f):
        def run(st):
            ns = np.arange(1, nmax + 1)
            resid = (st["table", f][1:].astype(float)
                     - st["main", f][1:].astype(float) / FAMILIES[f][2])
            fit = circle.error_exponent_fit(ns, resid)
            keep = resid != 0
            ref = np.polyfit(np.log(ns[keep]), np.log(np.abs(resid[keep])), 1)[0]
            err = abs(fit.slope - ref)
            return [Check(f"{f} residual exponent vs polyfit", err <= 1e-9, err)]
        return Task(f"fit:{f}", run)

    def spot_task(f, n):
        m, alpha = FAMILIES[f][0], alphas[f]

        def run(st):
            got = counting.count_polygonal(
                counting.PolygonalInstance(m=m, alpha=alpha), n,
                counting.NON_NEGATIVE)
            return [Check(f"{f} per-index count at n={n}",
                          got == int(st["table", f][n]))]
        return Task(f"spot:{f}:{n}", run)

    def guard_hexagonal_all(st):
        # four hexagonal numbers over Z are four triangular numbers: sigma(2n+1)
        tab = counting.polygonal_count_table(
            counting.PolygonalInstance(m=6, alpha=(1, 1, 1, 1)), nmax,
            counting.ALL_INTEGERS)
        return [Check("unrestricted hexagonal equals sigma(2n+1)",
                      bool(np.array_equal(tab, st["sigma_2n1"])))]

    def guard_jacobi(st):
        tab = counting.polygonal_count_table(
            counting.PolygonalInstance(m=4, alpha=(1, 1, 1, 1)), nmax,
            counting.ALL_INTEGERS)
        return [Check("four squares equal Jacobi's table",
                      bool(np.array_equal(tab, arith.jacobi_four_square_table(nmax))))]

    tasks = [table_task(f) for f in FAMILIES]
    tasks += [main_task(f) for f in FAMILIES]
    tasks += [fit_task(f) for f in FAMILIES]
    tasks += [Task("guard:hexagonal_all", guard_hexagonal_all),
              Task("guard:jacobi", guard_jacobi)]
    tasks += [spot_task(f, n) for f in FAMILIES for n in spots[f]]
    return tasks


# ---------------------------------------------------------------------------
# ledger: many small exact identities and the Farey structure
# ---------------------------------------------------------------------------

# (M, alpha, count order): the seed picks a unit r mod 2M and permutes alpha
# (residues sharing a factor with 2M give much sparser, cheaper series)
DECOMP_MENU = [(2, (1, 1, 1, 1), 1500), (3, (1, 1, 1, 2), 2400),
               (4, (1, 1, 2, 2), 3000), (6, (1, 1, 1, 1), 3000)]
INDEX_MS = (5, 6, 7)


def _ledger(rng: random.Random, smoke: bool) -> list[Task]:
    from polytheta import arith, counting, farey, modforms, series

    scale = 10 if smoke else 1
    index_order = 500 // scale
    rplus_order = 300 // scale
    modform_order = 2000 // scale
    eta_order = 3000 // scale
    farey_bands = _farey_bands(30, 2) if smoke else _farey_bands(100, 12)

    def decomp_task(M, alpha, order):
        r = rng.choice([u for u in range(1, 2 * M) if math.gcd(u, 2 * M) == 1])
        alpha = _permuted(rng, alpha)
        order //= scale

        def run(st):
            rep = series.decomposition_check(r, M, alpha, order)
            return [Check(f"sixteen-term split r={r} M={M} alpha={alpha}", rep.ok)]
        return Task(f"decomp:M={M}", run)

    def index_task(m):
        alpha = _permuted(rng, (1, 1, 1, 2))

        def run(st):
            fj = series.f_J_series(m, m - 2, alpha, series.FULL_J, 4 * index_order)
            tab = counting.polygonal_count_table(
                counting.PolygonalInstance(m=m, alpha=alpha), index_order,
                counting.ALL_INTEGERS)
            ok = all(fj.coeff(4 * (n - sum(alpha))) == int(tab[n])
                     for n in range(index_order + 1))
            return [Check(f"index identity m={m} alpha={alpha}", ok)]
        return Task(f"index:m={m}", run)

    def rplus_task(m):
        alpha = _permuted(rng, (1, 1, 1, 2))

        def run(st):
            rep = series.rplus_generating_check(m, alpha, rplus_order)
            return [Check(f"positive-count series m={m} alpha={alpha}", rep.ok)]
        return Task(f"rplus:m={m}", run)

    def eisenstein(st):
        return [Check("Eisenstein progression identity",
                      modforms.e_series_identity_check(modform_order)),
                Check("theta split", modforms.verify_theta_split(modform_order).ok)]

    def eta(st):
        # eta(24 tau) = sum chi_12(n) q^(n^2); eta(8 tau)^3 = sum chi_-4(n) n q^(n^2)
        checks = []
        for a, p, weight in ((24, 1, lambda n: arith.kronecker(12, n)),
                             (8, 3, lambda n: arith.kronecker(-4, n) * n)):
            got = modforms.eta_power(a, p, eta_order)
            ref = {n * n: weight(n) for n in range(1, eta_order)
                   if n * n < eta_order and weight(n)}
            checks.append(Check(f"eta({a} tau)^{p} closed form",
                                {i: int(c) for i, c in got.coeffs.items()} == ref))
        return checks

    def farey_task(lo, hi):
        def run(st):
            det = rho = mirror = measure = True
            for N in range(lo, hi + 1):
                arcs = farey.arcs(N)
                by_frac = {(a.h, a.k): a for a in arcs}
                total = Fraction(0)
                for a in arcs:
                    det &= (a.h * a.k1 - a.h1 * a.k == 1
                            and a.h2 * a.k - a.h * a.k2 == 1)
                    rho &= farey.rho_congruence(a.h, a.k, N) == a.rho1
                    if a.k > 1:
                        mirror &= a.rho2 == by_frac[(a.k - a.h, a.k)].rho1
                    total += a.measure
                measure &= total == 1
            band = f"N={lo}..{hi}"
            return [Check(f"Farey determinants {band}", det),
                    Check(f"rho congruence {band}", rho),
                    Check(f"reflection {band}", mirror),
                    Check(f"arc measures sum to 1 {band}", measure)]
        return Task(f"farey:N={lo}..{hi}", run)

    tasks = [decomp_task(*entry) for entry in DECOMP_MENU]
    tasks += [index_task(m) for m in INDEX_MS]
    tasks += [rplus_task(m) for m in INDEX_MS]
    tasks += [Task("eisenstein", eisenstein), Task("eta", eta)]
    tasks += [farey_task(lo, hi) for lo, hi in farey_bands]
    return tasks


# ---------------------------------------------------------------------------
# contour: circle-method reconstruction against exact coefficients
# ---------------------------------------------------------------------------

# M -> r, all with alpha = (1, 1, 1, 1), so J of one size are alike in cost
CONTOUR_MENU = {2: 1, 3: 1, 4: 3, 6: 5}
ALPHA = (1, 1, 1, 1)
# (M, lowest n, highest n, |J|): each band stays inside one Farey order
# N = isqrt(n), and the seed picks n in the band and J of the given size
# (each factor off J costs a principal-value window sum in transformed mode).
# One long direct task at N = 10, then twelve alike at N = 6 and n = 37: the
# median task of a pass falls among those twelve, and with alpha = (1,1,1,1)
# the seeded J of each does not change its cost.  In transformed mode the
# number of nu terms grows with n, so those bands are one n wide.
DIRECT_BANDS = [(2, 100, 104, 4)] + [(M, 37, 37, size) for M in CONTOUR_MENU
                                     for size in (1, 2, 3)]
TRANSFORMED_BANDS = [(2, 17, 17, 3), (3, 10, 10, 2), (4, 5, 5, 1)]
DIRECT_TOL, TRANSFORMED_TOL, NU_TOL = 1e-6, 1e-4, 1e-6
# Transformed mode at N = 1 misses its tolerance for (r, M) = (5, 6) at n = 3,
# for every J, and raising nu_terms does not help.  The task stays in the list
# and its miss is counted; it is only marked as the documented one.
KNOWN_TRANSFORMED_MISSES = {(5, 6, 3)}


def _contour(rng: random.Random, smoke: bool) -> list[Task]:
    from polytheta import circle, series

    def pick_J(size):
        return frozenset(rng.sample((1, 2, 3, 4), size))

    direct_bands = [(M, 4, 8, 2) for M in CONTOUR_MENU] if smoke else DIRECT_BANDS
    transformed_bands = [] if smoke else TRANSFORMED_BANDS

    def exact(r, M, J, n) -> float:
        return float(series.f_J_series(r, M, ALPHA, J, max(n, 0)).coeff(n))

    def label(kind, M, n, J):
        return f"{kind}:M={M}:n={n}:J={''.join(map(str, sorted(J)))}"

    def direct_task(M, n, J):
        r = CONTOUR_MENU[M]

        def run(st):
            res = circle.coefficient_by_contour(
                circle.series_evaluator(r, M, ALPHA, J), n)
            err = abs(res.value - exact(r, M, J, n))
            return [Check(f"direct r={r} M={M} J={sorted(J)} n={n}",
                          err <= DIRECT_TOL, err)]
        return Task(label("direct", M, n, J), run)

    def transformed_task(M, n, J):
        r = CONTOUR_MENU[M]

        def run(st):
            ev = circle.transformed_evaluator(r, M, ALPHA, J,
                                              nu_terms=circle.nu_terms_for(n))
            res = circle.coefficient_by_contour(
                ev, n, circle.ContourConfig(n=n, mode="transformed", tol=1e-8))
            err = abs(res.value - exact(r, M, J, n))
            return [Check(f"transformed r={r} M={M} J={sorted(J)} n={n}",
                          err <= TRANSFORMED_TOL, err,
                          known_miss=(r, M, n) in KNOWN_TRANSFORMED_MISSES)]
        return Task(label("transformed", M, n, J), run)

    def nu_task(n, J):
        r = CONTOUR_MENU[2]

        def run(st):
            value, _ = circle.reconstruct_by_nu(r, 2, ALPHA, J, n)
            err = abs(value - exact(r, 2, J, n))
            return [Check(f"nu reconstruction r={r} M=2 J={sorted(J)} n={n}",
                          err <= NU_TOL, err)]
        return Task(label("nu", 2, n, J), run)

    tasks = [direct_task(M, rng.randint(lo, hi), pick_J(size))
             for M, lo, hi, size in direct_bands]
    # the N = 1 set of the M = 6 entry, whole, with the documented miss
    tasks += [transformed_task(6, n, series.FULL_J) for n in range(4)]
    tasks += [transformed_task(M, rng.randint(lo, hi), pick_J(size))
              for M, lo, hi, size in transformed_bands]
    # n fixed: the nu ball, and so the cost, grows with n
    tasks.append(nu_task(1 if smoke else 4, pick_J(3)))
    return tasks
