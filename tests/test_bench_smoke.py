"""Benchmark workloads run once each as the benchmark runs them.  The
simulator workloads' own checks (``bench/checks.py``) recompute every trace
of the pass independently, and the summed emergency response pins every
trace; the ``search`` workload's quality metrics pin its GA, PSO, greedy and
proposed plans."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the sum of the response times of every trace of one pass, seed 1
EMERGENCY_S = {"surge": 255691.2773052456, "drill": 485.8118580463803}


@pytest.mark.parametrize("workload", sorted(EMERGENCY_S))
def test_simulator_workload_passes_its_checks(workload):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] > 0
    assert repr(result["metrics"]["emergency_s"]["value"]) == repr(EMERGENCY_S[workload])


# the search workload's quality metrics over one pass, seed 1
SEARCH = {"fleet_uavs": 55.0, "energy_wh": 4364.824856019158,
          "response_s": 1458.550033570418, "emergency_s": 361.306711913193}


def test_search_workload_keeps_its_plans():
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["correct"] is True and result["failed"] == 0, result
    assert {k: repr(result["metrics"][k]["value"]) for k in SEARCH} == {
        k: repr(v) for k, v in SEARCH.items()}


def test_traced_search_workload_covers_every_layer():
    """Traced, the benchmark raises when a layer records no span; on
    ``search`` the cells run on threads and the GA/PSO searches on worker
    processes, and the run still passes with GA and PSO timed."""
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["metrics"]["baselines.ga_s"]["value"] > 0
    assert result["metrics"]["baselines.pso_s"]["value"] > 0
