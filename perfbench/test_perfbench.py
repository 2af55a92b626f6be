"""Self-test of the benchmark on its reduced-size inputs.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def check_shape(res: dict, spec: list[dict]) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_checks(workload):
    res, text = result(bench(workload, trace=0))
    check_shape(res, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert res["correct"]
    assert "fail_ratio" in text and "max_abs_err" in text
    if workload == "contour":
        # the documented transformed-mode miss at N = 1 is counted each pass
        assert res["failed"] >= 1
        assert "documented miss: transformed r=5 M=6" in text
        assert "UNEXPECTED" not in text
    else:
        assert res["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_and_self_times_add_up(workload):
    first, _ = result(bench(workload, trace=1))
    second, _ = result(bench(workload, trace=1))
    for res in (first, second):
        check_shape(res, SPEC["per_layer"])
        m = {name: v["value"] for name, v in res["metrics"].items()}
        layers = sum(v for name, v in m.items() if name.endswith(".self_s"))
        assert layers == pytest.approx(m["trace.wall_s"], rel=1e-9)
        assert all(v >= -1e-3 for name, v in m.items() if name.endswith(".self_s"))
    counts = [name for name, v in first["metrics"].items() if v["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_seed_fixes_the_inputs():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads
        names = [[t.name for t in workloads.build("contour", seed)]
                 for seed in (3, 3, 4)]
    finally:
        del sys.path[:2]
    assert names[0] == names[1] != names[2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sweep", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
