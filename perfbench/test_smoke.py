"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that the reported metric names and units are the ones BENCHMARK.json
declares, that failed checks and raising passes count toward fail_frac, and
that the benchmark refuses to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from signorini_lab import solvers  # noqa: E402

TINY = {
    "sweep-cube3": {"divisions": 2, "h_list": (0.2, 0.1)},
    "limit-scan-cube3": {"divisions": 2},
    "recovery-cube2": {"h_list": (1e-7,), "steps_per_h": 4},
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def tiny(name, tmp_path):
    return workloads.WORKLOADS[name](1, str(tmp_path), **TINY[name])


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workload_names_match_benchmark_json():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_metric_names_and_units_match_benchmark_json(name, trace, tmp_path):
    result, lines = run.run_workload(tiny(name, tmp_path), 1, 0.1, trace, setup_s=0.5)
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= (2 if trace else 1)
    units = {metric: m["unit"] for metric, m in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert set(json.loads(json.dumps(result))) == {"correct", "attempted", "failed", "metrics"}


class FailingCheck(workloads.LimitScanCube3):
    def check(self, result):
        return super().check(result) + ["forced check failure"]


class RaisingPass(workloads.LimitScanCube3):
    def run_pass(self):
        raise solvers.SolveFailure("forced solver failure")


@pytest.mark.parametrize("cls, message", [(FailingCheck, "forced check failure"),
                                          (RaisingPass, "forced solver failure")])
def test_failures_count_toward_fail_frac(cls, message):
    workload = cls(1, **TINY["limit-scan-cube3"])
    result, lines = run.run_workload(workload, 1, 0.1, 0, setup_s=0.5)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any(message in line for line in lines)
    assert any(f"fail_frac {result['failed']}/{result['attempted']}" in line for line in lines)


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-cube3",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert "correct" not in out.stdout
