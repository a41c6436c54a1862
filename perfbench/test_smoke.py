"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced with `--size smoke`; the test
asserts that every metric BENCHMARK.json names is printed with its unit and
that no request failed. It also checks the determinism self-check, the
exhaustive oracle against the package's, and that the benchmark refuses to
run without the package sources.
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

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def run_smoke(workload: str, trace: int) -> tuple[dict, str]:
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "2",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_and_nothing_fails(workload, trace):
    result, stdout = run_smoke(workload, trace)
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['name']} = " in stdout
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    details = json.loads(next(line for line in stdout.splitlines()
                              if line.startswith("details: "))[len("details: "):])
    assert details["failed_fraction"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_one_seed(workload):
    import determinism
    runs = [determinism.traced_counts(workload, 7, 2, "smoke") for _ in range(2)]
    compared, mismatches = determinism.compare(*runs)
    assert compared >= 1
    assert mismatches == []


def test_exhaustive_oracle_matches_brute_force():
    import numpy as np
    from cycleclust.heuristics import brute_force
    from cycleclust.markov import flow_matrix, stationary_distribution, validate_stochastic
    from workloads import ALPHA, exhaustive_optimum

    for n, m, seed in ((6, 3, 1), (7, 3, 2), (6, 4, 3)):
        raw = np.random.default_rng(seed).random((n, n)) + 0.05
        tm = validate_stochastic(raw / raw.sum(axis=1, keepdims=True))
        W = flow_matrix(tm, stationary_distribution(tm))
        _, value = brute_force(W, m, ALPHA)
        assert exhaustive_optimum(W, m) == pytest.approx(value.total, abs=1e-12)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
