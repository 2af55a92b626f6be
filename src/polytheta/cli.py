"""Command-line surface: counting sweeps, named identity verification,
asymptotics reports, and contour runs.

Every subcommand is deterministic given its arguments (grids are fixed or
seeded), emits a versioned schema, and exits 0 exactly when all requested
verifications pass.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from . import analytic, arith, circle, counting, farey, modforms, series
from .counting import (ALL_INTEGERS, NON_NEGATIVE, POSITIVE,
                       CongruenceInstance, PolygonalInstance)

SCHEMA_VERSION = 1

__all__ = ["main", "build_parser", "VERIFIERS"]


def _parse_alpha(text: str) -> tuple[int, int, int, int]:
    parts = tuple(int(p) for p in text.split(","))
    if len(parts) != 4 or min(parts) < 1:
        raise argparse.ArgumentTypeError(
            f"alpha needs exactly four positive entries, got {text}")
    return parts


def _bounded_int(lower: int):
    """argparse type for an integer that must be at least ``lower``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lower:
            raise argparse.ArgumentTypeError(f"need an integer >= {lower}, got {text}")
        return value
    return integer


def _parse_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..")
        out = range(int(lo), int(hi) + 1)
    else:
        out = range(int(text), int(text) + 1)
    if not out or out.start < 0:
        raise argparse.ArgumentTypeError(
            f"need a non-empty range of non-negative integers, got {text}")
    return out


def _parse_J(text: str) -> frozenset[int]:
    if not text:
        return frozenset()
    J = frozenset(int(p) for p in text.split(","))
    if not J <= {1, 2, 3, 4}:
        raise argparse.ArgumentTypeError(f"J must be a subset of 1,2,3,4, got {text}")
    return J


def _emit(args, rows: list[dict], payload: dict) -> None:
    fmt = args.format
    out = sys.stdout
    if fmt == "json":
        json.dump({"schema_version": SCHEMA_VERSION, **payload, "rows": rows},
                  out, indent=2, default=str)
        out.write("\n")
    elif fmt == "csv":
        if rows:
            writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    else:
        if rows:
            keys = list(rows[0].keys())
            widths = {k: max(len(k), *(len(str(r[k])) for r in rows)) for k in keys}
            out.write("  ".join(k.ljust(widths[k]) for k in keys) + "\n")
            for r in rows:
                out.write("  ".join(str(r[k]).ljust(widths[k]) for k in keys) + "\n")


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def _bad_input(exc: ValueError) -> int:
    sys.stderr.write(f"polytheta: {exc}\n")
    return 2


def cmd_count(args) -> int:
    rows = []
    nmax = max(args.n)
    if args.squares:
        try:
            bounded = CongruenceInstance(
                r=args.r, M=args.M, alpha=args.alpha,
                lower_bound=1 if args.lower is None else args.lower)
        except ValueError as exc:
            return _bad_input(exc)
        free = CongruenceInstance(r=args.r, M=args.M, alpha=args.alpha)
        t_s = counting.squares_count_table(bounded, nmax)
        t_star = counting.squares_count_table(free, nmax)
        for n in args.n:
            rows.append({"n": n, "s": int(t_s[n]), "s_star": int(t_star[n])})
        payload = {"kind": "squares", "r": args.r, "M": args.M,
                   "alpha": list(args.alpha)}
    else:
        try:
            inst = PolygonalInstance(m=args.m, alpha=args.alpha)
        except ValueError as exc:
            return _bad_input(exc)
        t_r = counting.polygonal_count_table(inst, nmax, NON_NEGATIVE)
        t_rp = counting.polygonal_count_table(inst, nmax, POSITIVE)
        t_rs = counting.polygonal_count_table(inst, nmax, ALL_INTEGERS)
        with_squares = inst.m >= 5
        if with_squares:
            cong, shift0 = counting.polygonal_to_squares(inst, 0)
            stride = 8 * (inst.m - 2)
            t_s = counting.squares_count_table(cong, shift0 + stride * nmax)
            free = CongruenceInstance(r=cong.r, M=cong.M, alpha=cong.alpha)
            t_ss = counting.squares_count_table(free, shift0 + stride * nmax)
        for n in args.n:
            row = {"n": n, "r": int(t_r[n]), "r_plus": int(t_rp[n]),
                   "r_star": int(t_rs[n])}
            if with_squares:
                arg = shift0 + stride * n
                row["s"] = int(t_s[arg])
                row["s_star"] = int(t_ss[arg])
            rows.append(row)
        payload = {"kind": "polygonal", "m": args.m, "alpha": list(args.alpha)}
    if args.domain != "all-columns":
        col = {"nonneg": "r", "positive": "r_plus", "all": "r_star"}.get(args.domain)
        if col and rows and col in rows[0]:
            rows = [{"n": r["n"], col: r[col]} for r in rows]
    _emit(args, rows, payload)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@dataclass
class VerifyOutcome:
    name: str
    passed: bool
    worst_error: float
    detail: str = ""


def _verify_lemma2_2(args) -> VerifyOutcome:
    rep = series.rplus_generating_check(args.m, args.alpha, args.order)
    return VerifyOutcome("lemma2_2", rep.ok, 0.0 if rep.ok else math.inf,
                         f"m={args.m} alpha={args.alpha} n<={args.order}")


def _verify_lemma2_3(args) -> VerifyOutcome:
    rep = series.decomposition_check(args.r, args.M, args.alpha, args.order)
    return VerifyOutcome("lemma2_3", rep.ok, 0.0 if rep.ok else math.inf,
                         f"r={args.r} M={args.M} alpha={args.alpha} n<={args.order}")


def _verify_lemma2_4(args) -> VerifyOutcome:
    m = args.m
    alpha = args.alpha
    n_max = args.order
    fj = series.f_J_series(m, m - 2, alpha, series.FULL_J,
                           4 * n_max)
    inst = PolygonalInstance(m=m, alpha=alpha)
    tab = counting.polygonal_count_table(inst, n_max, ALL_INTEGERS)
    ok = all(fj.coeff(4 * (n - sum(alpha))) == int(tab[n])
             for n in range(n_max + 1))
    return VerifyOutcome("lemma2_4", ok, 0.0 if ok else math.inf,
                         f"m={m} alpha={alpha} n<={n_max}")


def _verify_lemma3_1(args) -> VerifyOutcome:
    # reflection h/k -> (k-h)/k swaps the neighbor roles: rho2(h) = rho1(k-h)
    for N in range(1, args.N + 1):
        by_frac = {(a.h, a.k): a for a in farey.arcs(N)}
        for arc in by_frac.values():
            if arc.k == 1:
                continue
            mirror = by_frac[(arc.k - arc.h, arc.k)]
            if arc.rho2 != mirror.rho1:
                return VerifyOutcome("lemma3_1", False, math.inf,
                                     f"N={N} h/k={arc.h}/{arc.k}")
    return VerifyOutcome("lemma3_1", True, 0.0, f"N<={args.N}")


def _verify_lemma6_2(args) -> VerifyOutcome:
    for N in range(1, args.N + 1):
        for arc in farey.arcs(N):
            if farey.rho_congruence(arc.h, arc.k, N) != arc.rho1:
                return VerifyOutcome("lemma6_2", False, math.inf,
                                     f"N={N} h/k={arc.h}/{arc.k}")
    return VerifyOutcome("lemma6_2", True, 0.0, f"N<={args.N}")


def _transformation_grid(k_max: int, N: int):
    for arc in farey.arcs(N):
        if arc.k > k_max:
            continue
        for phi in (-float(arc.theta_left), 0.0, float(arc.theta_right)):
            yield arc.h, arc.k, arc.k * (1.0 / N**2 - 1j * phi)


# (r, M, alpha_j) with r not in {0, M} mod 2M, so the sign-weighted sum is
# not identically zero and relative error is meaningful
DEFAULT_THETA_CONFIGS = [(1, 2, 1), (5, 4, 1), (3, 4, 2), (5, 6, 1)]


def _verify_lemma4_1(args) -> VerifyOutcome:
    worst = 0.0
    for (r, M, aj) in DEFAULT_THETA_CONFIGS:
        for h, k, z in _transformation_grid(args.k_max, args.N):
            direct = analytic.theta_eval_direct_arc(r, 2 * M, 2 * aj, h, k, z)
            trans = analytic.theta_eval_transformed(r, M, aj, h, k, z)
            worst = max(worst, analytic.resolved_relative_error(direct, trans))
    return VerifyOutcome("lemma4_1", worst <= args.tol, worst,
                         f"k<={args.k_max} N={args.N} tol={args.tol}")


def _verify_lemma4_2(args) -> VerifyOutcome:
    worst = 0.0
    for (r, M, aj) in DEFAULT_THETA_CONFIGS:
        for h, k, z in _transformation_grid(args.k_max, args.N):
            direct = analytic.false_theta_eval_direct_arc(r, M, 2 * aj, h, k, z)
            trans = analytic.false_theta_eval_transformed(r, M, aj, h, k, z)
            worst = max(worst, analytic.resolved_relative_error(direct, trans))
    return VerifyOutcome("lemma4_2", worst <= args.tol, worst,
                         f"k<={args.k_max} N={args.N} tol={args.tol}")


PV_GRID = [
    # (mu, M, alpha_j, k, N, phi_frac) ; z = k(1/N^2 - i phi), phi = phi_frac/(k N)
    (1, 1, 1, 1, 6, 0.0),
    (2, 2, 1, 3, 10, 0.5),
    (5, 2, 1, 3, 10, -0.5),
    (-3, 1, 2, 2, 8, 0.25),
    (8, 4, 1, 5, 12, 0.9),
    (-7, 2, 3, 4, 9, -0.8),
]


def _pv_grid_points():
    for mu, M, aj, k, N, frac in PV_GRID:
        z = k * (1.0 / N**2 - 1j * frac / (k * N))
        yield analytic.PVIntegralParams(mu=mu, M=M, alpha_j=aj, k=k, z=z)


def _verify_lemma5_1(args) -> VerifyOutcome:
    worst = 0.0
    for params in _pv_grid_points():
        split = analytic.pv_integral(params)
        direct = analytic.pv_integral_direct(params)
        rel = abs(split - direct) / max(abs(direct), 1e-300)
        worst = max(worst, rel)
    return VerifyOutcome("lemma5_1", worst <= args.tol, worst,
                         f"grid of {len(PV_GRID)} points, tol={args.tol}")


def _verify_lemma5_4(args) -> VerifyOutcome:
    worst = 0.0
    z = 0.9 + 0.35j
    for d in (1, 2, 3):
        for A in (1.0, 5.0, 20.0):
            for sign in (1, -1):
                worst = max(worst, analytic.j_recursion_residual(d, sign, A, z))
    return VerifyOutcome("lemma5_4", worst <= args.tol, worst,
                         f"d in 1..3, A in {{1,5,20}}, tol={args.tol}")


def _verify_lemma5_5(args) -> VerifyOutcome:
    worst_ratio = 0.0
    for A in (25.0, 50.0, 100.0):
        for z in (1.0 + 0.0j, 0.8 + 0.3j, 0.5 - 0.2j):
            rez = abs(z) * (1 / z).real
            envelope = math.sqrt(math.pi * A) * math.exp(-A * rez / 4) / math.sqrt(rez)
            main = 2 * np.sqrt(np.pi * A * abs(z) / z)
            rem_minus = abs(analytic.j_integral(0, -1, A, z) - main)
            rem_plus = abs(analytic.j_integral(0, 1, A, z))
            worst_ratio = max(worst_ratio, rem_minus / envelope, rem_plus / envelope)
    return VerifyOutcome("lemma5_5", worst_ratio <= 1.01, worst_ratio,
                         "remainder within the exponential envelope")


def _verify_lemma5_8(args) -> VerifyOutcome:
    ok = True
    detail = []
    for (M, k) in ((2, 3), (4, 5)):
        N = 4 * k
        z = k * (1.0 / N**2 - 1j * 0.4 / (k * N))
        dists = []
        for ell in range(1, M * k + 1):
            s = analytic.nu_sum(ell, M, 1, k, z)
            dists.append(abs(s - analytic.cot_main_term(ell, M, 1, k, z)))
        thirds = max(1, len(dists) // 3)
        w1 = float(np.mean(dists[:thirds]))
        w3 = float(np.mean(dists[-thirds:]))
        ok = ok and (w3 < w1)
        detail.append(f"(M,k)=({M},{k}): {w1:.3e} -> {w3:.3e}")
    return VerifyOutcome("lemma5_8", ok, 0.0 if ok else math.inf,
                         "; ".join(detail))


def _verify_theta_split(args) -> VerifyOutcome:
    rep = modforms.verify_theta_split(args.order)
    return VerifyOutcome("theta_split", rep.ok,
                         0.0 if rep.ok else math.inf,
                         f"order={args.order} mismatch={rep.first_mismatch}")


def _corollary_ratio_trend(which: str, m: int,
                           alpha: tuple[int, int, int, int],
                           nmax: int) -> tuple[bool, str]:
    inst = PolygonalInstance(m=m, alpha=alpha)
    table = counting.polygonal_count_table(inst, nmax, NON_NEGATIVE)
    checkpoints = [c for c in (100, 1000, 10000, 100000) if c <= nmax]
    devs = []
    for c in checkpoints:
        lo, hi = int(0.8 * c), c
        ratio = [float(table[n]) / float(modforms.corollary_main_terms(which, n))
                 for n in range(lo, hi + 1, max(1, (hi - lo) // 400))]
        devs.append(abs(float(np.mean(ratio)) - 1.0))
    ok = all(b < a for a, b in zip(devs, devs[1:]))
    return ok, " -> ".join(f"{d:.4f}" for d in devs)


def _verify_corollary(which: str, args) -> VerifyOutcome:
    m, alpha = {"cor1_2": (6, (1, 1, 1, 1)),
                "cor1_3": (6, (2, 1, 1, 1)),
                "cor1_4": (5, (1, 1, 1, 1))}[which]
    family = {"cor1_2": "hexagonal", "cor1_3": "hexagonal2",
              "cor1_4": "pentagonal"}[which]
    ok, detail = _corollary_ratio_trend(family, m, alpha, args.nmax)
    return VerifyOutcome(which, ok, 0.0 if ok else math.inf, detail)


VERIFIERS = {
    "lemma2_2": _verify_lemma2_2,
    "lemma2_3": _verify_lemma2_3,
    "lemma2_4": _verify_lemma2_4,
    "lemma3_1": _verify_lemma3_1,
    "lemma4_1": _verify_lemma4_1,
    "lemma4_2": _verify_lemma4_2,
    "lemma5_1": _verify_lemma5_1,
    "lemma5_4": _verify_lemma5_4,
    "lemma5_5": _verify_lemma5_5,
    "lemma5_8": _verify_lemma5_8,
    "lemma6_2": _verify_lemma6_2,
    "theta_split": _verify_theta_split,
    "cor1_2": lambda a: _verify_corollary("cor1_2", a),
    "cor1_3": lambda a: _verify_corollary("cor1_3", a),
    "cor1_4": lambda a: _verify_corollary("cor1_4", a),
}


def cmd_verify(args) -> int:
    if args.name not in VERIFIERS:
        sys.stderr.write(f"unknown identity name: {args.name}\n"
                         f"known: {', '.join(sorted(VERIFIERS))}\n")
        return 2
    outcome = VERIFIERS[args.name](args)
    row = {"name": outcome.name, "passed": bool(outcome.passed),
           "worst_error": float(outcome.worst_error), "detail": outcome.detail}
    _emit(args, [row], {"kind": "verify"})
    return 0 if outcome.passed else 1


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def _spot_check_one(task) -> tuple[int, int]:
    which, n = task
    if which == "squares":
        inst = CongruenceInstance(r=1, M=2, alpha=(1, 1, 1, 1), lower_bound=1)
        return n, counting.count_squares(inst, n)
    m, alpha = _FAMILIES[which]
    inst = PolygonalInstance(m=m, alpha=alpha)
    return n, counting.count_polygonal(inst, n, NON_NEGATIVE)


_FAMILIES = {"hexagonal": (6, (1, 1, 1, 1)),
             "hexagonal2": (6, (2, 1, 1, 1)),
             "pentagonal": (5, (1, 1, 1, 1))}


def _worker_cap(requested: int) -> int:
    env = os.environ.get("POLYTHETA_WORKERS")
    cap = int(env) if env else requested
    return max(1, min(requested, cap))


def _run_spot_checks(which: str, table, nmax: int, count: int, seed: int,
                     workers: int, checkpoint: str | None) -> dict:
    """Re-derive a deterministic sample of table entries with the per-index
    counter, optionally in parallel, with an append-only resume file."""
    rng = np.random.default_rng(seed)
    upper = min(nmax, 4000)  # per-index counting stays cheap up to here
    ns = sorted(int(n) for n in rng.integers(0, upper + 1, size=count))
    done: dict[int, int] = {}
    if checkpoint and os.path.exists(checkpoint):
        with open(checkpoint, newline="") as fh:
            for row in csv.DictReader(fh):
                done[int(row["n"])] = int(row["count"])
    todo = [n for n in ns if n not in done]
    results: dict[int, int] = dict(done)
    workers = _worker_cap(workers)
    if workers > 1 and len(todo) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            for n, val in ex.map(_spot_check_one, [(which, n) for n in todo]):
                results[n] = val
    else:
        for task in [(which, n) for n in todo]:
            n, val = _spot_check_one(task)
            results[n] = val
    if checkpoint:
        new = [n for n in todo if n in results]
        mode = "a" if os.path.exists(checkpoint) else "w"
        with open(checkpoint, mode, newline="") as fh:
            writer = csv.writer(fh)
            if mode == "w":
                writer.writerow(["n", "count"])
            for n in sorted(new):
                writer.writerow([n, results[n]])
    mismatches = [n for n in ns if results[n] != int(table[n])]
    return {"samples": len(ns), "mismatches": mismatches}


def cmd_asymptotics(args) -> int:
    if args.which == "squares":
        # one-sided vs one-sixteenth of the unrestricted count on the all-odd
        # four-square family
        bounded = CongruenceInstance(r=1, M=2, alpha=(1, 1, 1, 1),
                                     lower_bound=1)
        free = CongruenceInstance(r=1, M=2, alpha=(1, 1, 1, 1))
        table = counting.squares_count_table(bounded, args.nmax)
        main = counting.squares_count_table(free, args.nmax).astype(float) / 16.0
    else:
        m, alpha = _FAMILIES[args.which]
        inst = PolygonalInstance(m=m, alpha=alpha)
        table = counting.polygonal_count_table(inst, args.nmax, NON_NEGATIVE)
        if args.which == "hexagonal":
            sig = arith.sigma_table(2 * args.nmax + 1)
            main = sig[1:2 * args.nmax + 2:2].astype(float) / 16.0
        elif args.which == "pentagonal":
            sig = arith.sigma_table(6 * args.nmax + 1)
            main = sig[1:6 * args.nmax + 2:6].astype(float) / 24.0
        else:
            tw = arith.twisted8_table(8 * args.nmax + 5)
            main = -tw[5:8 * args.nmax + 6:8].astype(float) / 64.0
    ns = np.arange(args.nmax + 1)
    exact = table.astype(float)
    residual = exact - main
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(main != 0, residual / main, np.nan)
    out_path = args.out
    step = max(1, args.nmax // args.max_rows) if args.max_rows else 1
    sel = ns[1::step]
    mask = main[1:] != 0
    fit = circle.error_exponent_fit(ns[1:][mask], residual[1:][mask])
    if out_path:
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "exact_count", "main_term", "residual",
                             "normalized_residual"])
            for n in sel:
                writer.writerow([int(n), int(table[n]), main[n], residual[n],
                                 normalized[n]])
    payload = {
        "kind": "asymptotics", "which": args.which, "nmax": args.nmax,
        "fitted_exponent": fit.slope, "fit_stderr": fit.stderr,
        "rows_written": int(len(sel)) if out_path else 0,
        "out": out_path or "", "seed": args.seed,
    }
    if args.spot_check:
        payload["spot_check"] = _run_spot_checks(
            args.which, table, args.nmax, args.spot_check, args.seed,
            args.workers, args.checkpoint)
        if payload["spot_check"]["mismatches"]:
            _emit(args, [], payload)
            return 1
    _emit(args, [] if out_path else [
        {"n": int(n), "exact_count": int(table[n]), "main_term": main[n],
         "residual": residual[n], "normalized_residual": normalized[n]}
        for n in sel], payload)
    return 0


# ---------------------------------------------------------------------------
# farey / grid dumps
# ---------------------------------------------------------------------------

def cmd_farey(args) -> int:
    rows = [{"h": a.h, "k": a.k, "k1": a.k1, "k2": a.k2,
             "theta_left": str(a.theta_left), "theta_right": str(a.theta_right),
             "rho1": a.rho1, "rho2": a.rho2}
            for a in farey.arcs(args.N)]
    _emit(args, rows, {"kind": "farey", "N": args.N})
    return 0


def cmd_series(args) -> int:
    """Dump an exact series as {D, order, entries: [[index, num, den]]}."""
    from fractions import Fraction as F

    kind = args.kind
    if kind == "theta":
        f = series.theta_series(args.r, args.M, F(args.order), scale=args.scale)
    elif kind == "false-theta":
        f = series.false_theta_series(args.r, args.M, F(args.order),
                                      scale=args.scale)
    elif kind == "partial":
        f = series.partial_theta_series(args.r, args.M, args.alpha,
                                        F(args.order))
    elif kind == "star":
        f = series.star_theta_series(args.r, args.M, args.alpha, F(args.order))
    else:  # fJ
        f = series.f_J_series(args.r, args.M, args.alpha, args.J, args.order)
    obj = {"schema_version": SCHEMA_VERSION, "kind": f"series/{kind}",
           **f.to_json_obj()}
    json.dump(obj, sys.stdout)
    sys.stdout.write("\n")
    return 0


def cmd_grid(args) -> int:
    """Per-point CSV of a transformation or principal-value sweep."""
    rows = []
    if args.name in ("lemma4_1", "lemma4_2"):
        for (r, M, aj) in DEFAULT_THETA_CONFIGS:
            for h, k, z in _transformation_grid(args.k_max, min(args.N, 20)):
                if args.name == "lemma4_1":
                    lhs = analytic.theta_eval_direct_arc(r, 2 * M, 2 * aj, h, k, z)
                    rhs = analytic.theta_eval_transformed(r, M, aj, h, k, z)
                else:
                    lhs = analytic.false_theta_eval_direct_arc(r, M, 2 * aj,
                                                               h, k, z)
                    rhs = analytic.false_theta_eval_transformed(r, M, aj,
                                                                h, k, z)
                rows.append({
                    "r": r, "M": M, "alpha_j": aj, "h": h, "k": k,
                    "z_re": z.real, "z_im": z.imag,
                    "lhs_re": lhs.real, "lhs_im": lhs.imag,
                    "rhs_re": rhs.real, "rhs_im": rhs.imag,
                    "abs_err": abs(lhs - rhs),
                    "rel_err": analytic.resolved_relative_error(lhs, rhs),
                })
    elif args.name == "lemma5_1":
        for params in _pv_grid_points():
            lhs = analytic.pv_integral(params)
            rhs = analytic.pv_integral_direct(params)
            rows.append({
                "mu": params.mu, "M": params.M, "alpha_j": params.alpha_j,
                "k": params.k, "z_re": params.z.real, "z_im": params.z.imag,
                "lhs_re": lhs.real, "lhs_im": lhs.imag,
                "rhs_re": rhs.real, "rhs_im": rhs.imag,
                "abs_err": abs(lhs - rhs),
                "rel_err": abs(lhs - rhs) / abs(rhs),
            })
    else:
        sys.stderr.write(f"unknown grid name: {args.name}\n")
        return 2
    _emit(args, rows, {"kind": "grid", "name": args.name})
    return 0


# ---------------------------------------------------------------------------
# contour
# ---------------------------------------------------------------------------

def cmd_contour(args) -> int:
    if args.series == "const":
        evaluator = circle.constant_evaluator()
        exact = 1.0 if args.n == 0 else 0.0
    else:
        J = args.J if args.J else frozenset({1, 2, 3, 4})
        if args.mode == "transformed":
            evaluator = circle.transformed_evaluator(args.r, args.M, args.alpha, J)
        else:
            evaluator = circle.series_evaluator(args.r, args.M, args.alpha, J)
        fj = series.f_J_series(args.r, args.M, args.alpha, J, args.n)
        exact = float(fj.coeff(args.n))
    config = circle.ContourConfig(n=args.n, mode=args.mode, tol=args.tol)
    res = circle.coefficient_by_contour(evaluator, args.n, config)
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "contour",
        "n": args.n,
        "mode": args.mode,
        "num_arcs": res.num_arcs,
        "value_re": res.value.real,
        "value_im": res.value.imag,
        "exact": exact,
        "abs_err": abs(res.value - exact),
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if abs(res.value - exact) <= args.tol_report else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="polytheta",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="exact representation counts over a range")
    c.add_argument("--m", type=int, default=6)
    c.add_argument("--alpha", type=_parse_alpha, default=(1, 1, 1, 1))
    c.add_argument("--n", type=_parse_range, required=True,
                   help="single value or lo..hi")
    c.add_argument("--squares", action="store_true",
                   help="count congruence-constrained squares instead")
    c.add_argument("--r", type=int, default=1)
    c.add_argument("--M", type=int, default=2)
    c.add_argument("--lower", type=int, default=None)
    c.add_argument("--domain", default="all-columns",
                   choices=["all-columns", "nonneg", "positive", "all"])
    c.add_argument("--format", default="table", choices=["table", "csv", "json"])
    c.set_defaults(func=cmd_count)

    v = sub.add_parser("verify", help="run a named identity check")
    v.add_argument("name")
    v.add_argument("--m", type=int, default=6)
    v.add_argument("--r", type=int, default=1)
    v.add_argument("--M", type=int, default=2)
    v.add_argument("--alpha", type=_parse_alpha, default=(1, 1, 1, 1))
    v.add_argument("--order", type=int, default=200)
    v.add_argument("--N", type=_bounded_int(1), default=200)
    v.add_argument("--k-max", type=int, default=6, dest="k_max")
    v.add_argument("--tol", type=float, default=None)
    v.add_argument("--nmax", type=_bounded_int(0), default=20000)
    v.add_argument("--format", default="table", choices=["table", "csv", "json"])
    v.set_defaults(func=_dispatch_verify)

    a = sub.add_parser("asymptotics", help="exact counts vs divisor-sum main terms")
    a.add_argument("--which", required=True,
                   choices=["hexagonal", "hexagonal2", "pentagonal", "squares"])
    a.add_argument("--nmax", type=_bounded_int(0), default=10000)
    a.add_argument("--out", default=None, help="write full CSV here")
    a.add_argument("--max-rows", type=int, default=200, dest="max_rows")
    a.add_argument("--spot-check", type=int, default=0, dest="spot_check",
                   help="re-derive this many sampled entries per index")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--workers", type=int, default=1,
                   help="process pool size for spot checks "
                        "(capped by POLYTHETA_WORKERS)")
    a.add_argument("--checkpoint", default=None,
                   help="append-only CSV of finished spot checks; reruns resume")
    a.add_argument("--format", default="json", choices=["table", "csv", "json"])
    a.set_defaults(func=cmd_asymptotics)

    f = sub.add_parser("farey", help="dump the order-N arcs")
    f.add_argument("--N", type=_bounded_int(1), required=True)
    f.add_argument("--format", default="csv", choices=["table", "csv", "json"])
    f.set_defaults(func=cmd_farey)

    g = sub.add_parser("grid", help="per-point sweep export for a named check")
    g.add_argument("name", choices=["lemma4_1", "lemma4_2", "lemma5_1"])
    g.add_argument("--N", type=_bounded_int(1), default=12)
    g.add_argument("--k-max", type=int, default=5, dest="k_max")
    g.add_argument("--format", default="csv", choices=["table", "csv", "json"])
    g.set_defaults(func=cmd_grid)

    s = sub.add_parser("series", help="dump an exact q-expansion as JSON")
    s.add_argument("--kind", default="theta",
                   choices=["theta", "false-theta", "partial", "star", "fJ"])
    s.add_argument("--r", type=int, default=1)
    s.add_argument("--M", type=_bounded_int(1), default=2)
    s.add_argument("--alpha", type=_parse_alpha, default=(1, 1, 1, 1))
    s.add_argument("--J", type=_parse_J, default=frozenset({1, 2, 3, 4}))
    s.add_argument("--scale", type=int, default=1)
    s.add_argument("--order", type=int, default=20,
                   help="exponent truncation (integer count bound for fJ)")
    s.set_defaults(func=cmd_series)

    k = sub.add_parser("contour", help="reconstruct a coefficient from arc integrals")
    k.add_argument("--r", type=int, default=1)
    k.add_argument("--M", type=_bounded_int(1), default=2)
    k.add_argument("--alpha", type=_parse_alpha, default=(1, 1, 1, 1))
    k.add_argument("--J", type=_parse_J, default=frozenset({1, 2, 3, 4}))
    k.add_argument("--n", type=_bounded_int(0), required=True)
    k.add_argument("--mode", default="direct", choices=["direct", "transformed"])
    k.add_argument("--series", default="product", choices=["product", "const"])
    k.add_argument("--tol", type=float, default=1e-9)
    k.add_argument("--tol-report", type=float, default=1e-4, dest="tol_report")
    k.set_defaults(func=cmd_contour)

    return p


def _dispatch_verify(args) -> int:
    if args.tol is None:
        args.tol = {"lemma4_1": 1e-8, "lemma4_2": 1e-6, "lemma5_1": 1e-6,
                    "lemma5_4": 1e-8}.get(args.name, 1e-8)
    if args.name in ("lemma4_1", "lemma4_2"):
        args.N = min(args.N, 20)
        args.k_max = min(args.k_max, 6)
    return cmd_verify(args)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
