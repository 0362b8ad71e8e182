"""Tests for the benchmark itself, on tiny instances.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("factored", "bivalued", "small-exact")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


@functools.lru_cache(maxsize=None)
def tiny_run(workload, seed, trace, repeat=0):
    proc = _run(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((line.split()[1] for line in lines if line.startswith("result_digest:")), None)
    return lines[:-1], result, digest


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    lines, result, _ = tiny_run(workload, 1, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = set(expected)
    if workload == "small-exact":
        printed |= {"verify_p50_ms", "verify_p90_ms"}
    for name in printed:
        unit = expected.get(name, "ms")
        assert any(line.startswith(f"{name}: ") and f" {unit} (samples=" in line
                   for line in lines), name
    assert any(line.startswith("failed_frac: 0.0000") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_digest_follows_the_seed(workload):
    _, _, first = tiny_run(workload, 1, 0)
    _, _, second = tiny_run(workload, 1, 0, repeat=1)
    _, _, other_seed = tiny_run(workload, 2, 0)
    assert first == second
    assert other_seed != first


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    lines, first, _ = tiny_run(workload, 1, 1)
    _, second, _ = tiny_run(workload, 1, 1, repeat=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    counts = [k for k, unit in expected.items() if unit == "count"]
    assert [first["metrics"][k] for k in counts] == [second["metrics"][k] for k in counts]
    assert first["metrics"]["packing.ffd.calls"]["value"] > 0
    # every per-layer metric the JSON leaves out is still printed
    for fn in ("mms.mms_brute", "mms.min_success_threshold", "io.parse_instance", "cli.main"):
        assert any(line.startswith(f"{fn}.self_s: ") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "factored", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
