"""Smoke test of the benchmark at tiny sizes.

Checks the result schema against BENCHMARK.json in both modes, that a wrong
cost reported by the package is counted as a failed trial, and that the
benchmark refuses to run where the package is absent.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from harness import measure  # noqa: E402
from workloads import MaxCut, RosenModes, Tsp  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "tsp": lambda: Tsp(n=12, iters=5, min_batches=2),
    "maxcut": lambda: MaxCut(n=8, iters=5, min_batches=2),
    "rosen-modes": lambda: RosenModes(n=6, iters=5, min_batches=2),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_result_schema(workload, trace, tmp_path):
    result, details = measure(TINY[workload](), seed=3, seconds=0, trace=bool(trace), out_dir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert {"python", "numpy", "blas", "blas_threads", "nproc", "loadavg_start"} <= set(details["env"])
    json.dumps([result, details])


class OffByOneRosen(RosenModes):
    """Its Problem's evaluate_many reports every cost one too high."""

    def setup(self, inputs):
        problem, inst = super().setup(inputs)
        many = problem.evaluate_many
        return dataclasses.replace(problem, evaluate_many=lambda states: many(states) + 1), inst


def test_wrong_cost_is_counted(tmp_path):
    result, details = measure(OffByOneRosen(n=6, iters=20, min_batches=3), 3, 0, True, tmp_path)
    assert not result["correct"]
    assert result["failed"] > 0
    frac = result["failed"] / result["attempted"]
    assert result["metrics"]["failed_frac"]["value"] == details["failed_frac"] == frac
    assert any("re-evaluation" in e for e in details["errors"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "rosen-200-modes", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
