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
import os
import sys
import numpy as np

from . import circle, counting, farey, series
from .analytic import resolved_relative_error
from .checks import (FAMILIES, VERIFIERS, main_term_table, pv_pairs,
                     transformation_pairs)
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


def _tolerance(text: str) -> float:
    """argparse type for a tolerance: a finite float > 0 (nan fails too)."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"need a positive finite tolerance, got {text}")
    return value


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
        # build only the tables of the printed columns
        col = {"nonneg": "r", "positive": "r_plus", "all": "r_star"}.get(args.domain)
        domains = {"r": NON_NEGATIVE, "r_plus": POSITIVE, "r_star": ALL_INTEGERS}
        tables = {name: counting.polygonal_count_table(inst, nmax, domain)
                  for name, domain in domains.items() if col in (None, name)}
        # s and s_star count the completed-square image at 8(m-2) n +
        # sum(alpha) (m-4)^2, which the map makes equal to r and r_star
        with_squares = inst.m >= 5 and col is None
        for n in args.n:
            row = {"n": n, **{name: int(t[n]) for name, t in tables.items()}}
            if with_squares:
                row["s"], row["s_star"] = row["r"], row["r_star"]
            rows.append(row)
        payload = {"kind": "polygonal", "m": args.m, "alpha": list(args.alpha)}
    _emit(args, rows, payload)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.name not in VERIFIERS:
        sys.stderr.write(f"unknown identity name: {args.name}\n"
                         f"known: {', '.join(sorted(VERIFIERS))}\n")
        return 2
    try:
        passed, worst, detail = VERIFIERS[args.name](args)
    except ValueError as exc:
        return _bad_input(exc)
    row = {"name": args.name, "passed": bool(passed),
           "worst_error": float(worst), "detail": detail}
    _emit(args, [row], {"kind": "verify"})
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def _spot_check_one(which: str, n: int) -> int:
    if which == "squares":
        inst = CongruenceInstance(r=1, M=2, alpha=(1, 1, 1, 1), lower_bound=1)
        return counting.count_squares(inst, n)
    return counting.count_polygonal(FAMILIES[which], n, NON_NEGATIVE)


def _run_spot_checks(which: str, table, nmax: int, count: int, seed: int) -> dict:
    """Re-derive a deterministic sample of table entries with the per-index
    counter."""
    rng = np.random.default_rng(seed)
    ns = sorted(int(n) for n in rng.integers(0, nmax + 1, size=count))
    mismatches = [n for n in ns if _spot_check_one(which, n) != int(table[n])]
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
        table = counting.polygonal_count_table(FAMILIES[args.which], args.nmax,
                                               NON_NEGATIVE)
        main = main_term_table(args.which, args.nmax)
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
        "all_zero": fit.all_zero,
        "rows_written": int(len(sel)) if out_path else 0,
        "out": out_path or "", "seed": args.seed,
    }
    if args.spot_check:
        payload["spot_check"] = _run_spot_checks(
            args.which, table, args.nmax, args.spot_check, args.seed)
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


def _comparison(lhs: complex, rhs: complex, rel_err: float) -> dict:
    return {"lhs_re": lhs.real, "lhs_im": lhs.imag, "rhs_re": rhs.real,
            "rhs_im": rhs.imag, "abs_err": abs(lhs - rhs), "rel_err": rel_err}


def cmd_grid(args) -> int:
    """Per-point CSV of a transformation or principal-value sweep."""
    if args.name == "lemma5_1":
        rows = [{"mu": params.mu, "M": params.M, "alpha_j": params.alpha_j,
                 "k": params.k, "z_re": params.z.real, "z_im": params.z.imag,
                 **_comparison(lhs, rhs, abs(lhs - rhs) / abs(rhs))}
                for params, lhs, rhs in pv_pairs()]
    else:
        try:
            rows = [{"r": r, "M": M, "alpha_j": aj, "h": h, "k": k,
                     "z_re": z.real, "z_im": z.imag,
                     **_comparison(lhs, rhs, resolved_relative_error(lhs, rhs, scale))}
                    for r, M, aj, h, k, z, scale, lhs, rhs
                    in transformation_pairs(args.name, args.k_max, args.N)]
        except ValueError as exc:
            return _bad_input(exc)
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
        if args.mode == "transformed":
            evaluator = circle.transformed_evaluator(
                args.r, args.M, args.alpha, args.J)
        else:
            evaluator = circle.series_evaluator(args.r, args.M, args.alpha, args.J)
        fj = series.f_J_series(args.r, args.M, args.alpha, args.J, args.n)
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
    v.add_argument("--tol", type=_tolerance, default=None)
    v.add_argument("--nmax", type=_bounded_int(0), default=20000)
    v.add_argument("--format", default="table", choices=["table", "csv", "json"])
    v.set_defaults(func=cmd_verify)

    a = sub.add_parser("asymptotics", help="exact counts vs divisor-sum main terms")
    a.add_argument("--which", required=True,
                   choices=["hexagonal", "hexagonal2", "pentagonal", "squares"])
    a.add_argument("--nmax", type=_bounded_int(0), default=10000)
    a.add_argument("--out", default=None, help="write full CSV here")
    a.add_argument("--max-rows", type=_bounded_int(0), default=200, dest="max_rows")
    a.add_argument("--spot-check", type=_bounded_int(0), default=0,
                   dest="spot_check",
                   help="re-derive this many sampled entries per index")
    a.add_argument("--seed", type=_bounded_int(0), default=0)
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
    s.add_argument("--scale", type=_bounded_int(1), default=1)
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
    k.add_argument("--tol", type=_tolerance, default=1e-9)
    k.add_argument("--tol-report", type=_tolerance, default=1e-4, dest="tol_report")
    k.set_defaults(func=cmd_contour)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of standard output closed early: point the descriptor
        # at devnull so that the flush at exit cannot fail again, and exit
        # with 1 without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
