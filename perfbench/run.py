"""Benchmark of polytheta: one seeded workload, every output checked.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 40 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` as the
median over fresh processes, and the pass metrics from each task's mean
latency over the timed passes that follow one untimed warm-up pass.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the fastest traced pass; the spans go to
``.perfbench/`` in the checkout.  Either way the run ends ``--seconds``
after the process started, set-up and warm-up included, at the end of the
pass then under way.
``--smoke`` shrinks every input for a quick self-test.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and what each metric means.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()  # the setup probe times from here

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (stdlib only; the layers load in build)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
MIN_PASSES = 3  # untraced passes with --trace 0; pairs with --trace 1 need 2
PROBE_TIMEOUT_S = 60
COUNT_METRICS = (
    "arith.calls", "arith.sieve_entries", "arith.gauss_tables_built",
    "counting.table_calls", "counting.table_entries", "counting.per_index_calls",
    "qseries.mul_calls", "qseries.mul_term_pairs", "series.calls",
    "series.coeffs_checked", "modforms.calls", "farey.calls", "farey.arcs_built",
    "analytic.direct_evals", "analytic.transformed_evals", "analytic.quad_calls",
    "analytic.pv_points", "circle.arcs", "circle.evaluator_calls",
    "circle.nu_vectors")


def _import_program():
    """Put the checkout's own sources first on the path, or fail."""
    src = ROOT / "src"
    if not (src / "polytheta" / "__init__.py").is_file():
        sys.exit(f"error: no polytheta sources under {src}")
    sys.path.insert(0, str(src))
    import polytheta

    if Path(polytheta.__file__).resolve().parent != src / "polytheta":
        sys.exit(f"error: imported polytheta from {polytheta.__file__}, not {src}")


def run_pass(tasks, gauss_cache) -> dict:
    """One pass over the task list; the Gauss-sum cache starts empty, as in a
    fresh process."""
    gauss_cache.cache_clear()
    state: dict = {}
    latencies, checks = [], []
    start = time.perf_counter()
    for task in tasks:
        t0 = time.perf_counter()
        try:
            got = task.run(state)
        except Exception as exc:  # a raised task is one failed check
            got = [workloads.Check(f"{task.name} raised {exc!r}", False)]
        latencies.append(time.perf_counter() - t0)
        checks.extend(got)
    wall = time.perf_counter() - start
    return {"wall": wall, "latencies": latencies, "checks": checks,
            "gauss": gauss_cache.cache_info()}


def setup_time(args) -> float:
    """Import and input generation in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    return float(proc.stdout.split()[-1])


def end_to_end(args, tasks, gauss_cache) -> tuple[dict, list, list]:
    run_pass(tasks, gauss_cache)  # warm-up
    # one setup probe before each pass, so that the probes, like the passes,
    # spread over the run; the probe processes run one at a time, between passes
    setups, passes = [], []
    while len(passes) < MIN_PASSES or time.perf_counter() - T_START < args.seconds:
        if len(setups) < SETUP_PROBES:
            setups.append(setup_time(args))
        passes.append(run_pass(tasks, gauss_cache))
    while len(setups) < SETUP_PROBES:
        setups.append(setup_time(args))
    # On a shared host the same code runs up to 1.7x slower while a neighbour
    # loads the core, flipping within milliseconds and drifting over minutes.
    # A task's latency is its mean over the passes, which averages the flips
    # over the whole run; the lowest or the median latency follows how lucky
    # a few passes were, and spread more from run to run (see README.md).
    typical = [(statistics.fmean(p["latencies"][i] for p in passes), task.name)
               for i, task in enumerate(tasks)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(t for t, _ in typical), "s"),
        "task_p50_s": (statistics.median(t for t, _ in typical), "s"),
        "max_task_s": (max(typical)[0], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    report = [
        f"passes {len(passes)} (after 1 warm-up), tasks per pass {len(tasks)}, "
        f"setup probes {len(setups)}",
        "pass walls (s): " + " ".join(f"{p['wall']:.3f}" for p in passes),
        "setup probes (s): " + " ".join(f"{t:.3f}" for t in setups),
        f"slowest task: {max(typical)[1]}",
    ]
    return metrics, passes, report


def per_layer(args, tasks, gauss_cache) -> tuple[dict, list, list]:
    from spans import LAYERS, Tracer

    modules = {layer: importlib.import_module(f"polytheta.{layer}")
               for layer in LAYERS}
    tracer = Tracer()
    run_pass(tasks, gauss_cache)  # warm-up
    plain, traced = [], []
    best = None  # (pass, layer self times, counters, spans) of the fastest traced pass
    repeat = True
    while len(traced) < 2 or time.perf_counter() - T_START < args.seconds:
        plain.append(run_pass(tasks, gauss_cache))
        tracer.install(modules)
        try:
            p = run_pass(tasks, gauss_cache)
        finally:
            tracer.uninstall()
        traced.append(p)
        snap = tracer.snapshot()
        g = p["gauss"]
        snap["arith.gauss_tables_built"] = g.misses
        snap["arith.gauss_hit_ratio"] = g.hits / (g.hits + g.misses) if g.misses else 0.0
        repeat &= best is None or snap == best[2]
        # the per-layer numbers and the span file come from the fastest traced
        # pass, so its layer self times and bench.self_s add up to its wall time
        if best is None or p["wall"] < best[0]["wall"]:
            best = (p, tracer.layer_self_times(), snap, tracer.spans)
    p, selfs, counters, spans = best
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write(span_file, spans, T_START)

    m = {f"{layer}.self_s": (selfs[layer], "s") for layer in LAYERS}
    m.update({name: (counters[name], "count") for name in COUNT_METRICS})
    m["arith.gauss_hit_ratio"] = (counters["arith.gauss_hit_ratio"], "1")
    m["counting.guard_headroom_bits"] = (counters["counting.guard_headroom_bits"], "bits")
    m["circle.quad_error"] = (counters["circle.quad_error"], "1")
    m["bench.self_s"] = (p["wall"] - sum(selfs.values()), "s")
    m["trace.wall_s"] = (p["wall"], "s")
    m["trace.overhead_ratio"] = (p["wall"] / min(q["wall"] for q in plain), "1")
    report = [
        f"pairs of untraced and traced passes {len(traced)} (after 1 warm-up)",
        f"spans of the fastest traced pass: {len(spans)}, written to "
        f"{span_file.relative_to(ROOT)}",
        f"work counters identical in every traced pass: {repeat}",
    ]
    return m, traced + plain, report


def main(argv=None) -> int:
    from_here = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    from_here.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    from_here.add_argument("--seed", type=int, required=True)
    from_here.add_argument("--seconds", type=float, default=40.0)
    from_here.add_argument("--trace", type=int, choices=(0, 1), default=0)
    from_here.add_argument("--smoke", action="store_true",
                           help="tiny inputs, for the benchmark's own test")
    from_here.add_argument("--setup-probe", action="store_true",
                           help=argparse.SUPPRESS)
    args = from_here.parse_args(argv)

    _import_program()
    tasks = workloads.build(args.workload, args.seed, args.smoke)
    if args.setup_probe:
        print(f"{time.perf_counter() - T_START:.9f}")
        return 0

    from polytheta import arith

    gauss_cache = arith.gauss_sum_table  # the lru_cache object itself
    if args.trace:
        metrics, passes, report = per_layer(args, tasks, gauss_cache)
    else:
        metrics, passes, report = end_to_end(args, tasks, gauss_cache)

    checks = [c for p in passes for c in p["checks"]]
    failed = sum(not c.ok for c in checks)
    report.append(f"fail_ratio {failed / len(checks):.6g} 1 "
                  f"({failed} of {len(checks)} checks)")
    report.append("max_abs_err {:.6g} 1".format(
        max((c.abs_err for c in checks if c.abs_err is not None), default=0.0)))
    misses = sorted({c.name for c in checks if not c.ok})
    unexpected = sorted({c.name for c in checks if not c.ok and not c.known_miss})
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"python {sys.version.split()[0]}, cpus {os.cpu_count()}")
    for line in report:
        print(line)
    for name in misses:
        tag = "UNEXPECTED MISS" if name in unexpected else "documented miss"
        print(f"{tag}: {name}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
