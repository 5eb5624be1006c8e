import os
import subprocess
import sys
from pathlib import Path

import pytest

import firewatch

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *argv, cwd=None):
    src = str(Path(firewatch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_run_emergency_script_smoke():
    """The drill script runs end to end on one small seed: planning, event
    generation, simulate, the analytic bound and the response table."""
    done = _run_script("run_emergency.py", "--seeds", "1", "--sensors", "40")
    assert done.returncode == 0, done.stderr
    assert "seed  0 fleet" in done.stdout
    assert "events, policy nearest" in done.stdout


@pytest.mark.parametrize("script", ["run_emergency.py", "run_ablation.py"])
@pytest.mark.parametrize("flag", ["--seeds", "--sensors"])
def test_direct_script_rejects_a_count_below_one(script, flag):
    """A count below 1 is a usage error naming the flag, not a traceback."""
    done = _run_script(script, flag, "0")
    assert done.returncode == 2, done.stderr
    assert f"{flag} must be >= 1" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv, message", [
    (["--events", "0"], "--events must be >= 1, got 0"),
    (["--horizon", "-5"], "--horizon must be a finite number > 0, got -5.0"),
    (["--horizon", "nan"], "--horizon must be a finite number > 0, got nan"),
    (["--sensors", "3"], "--events 5 with --sensors 3 (seed 0): only 2 UAV-served sensors"),
])
def test_run_emergency_rejects_inputs_it_cannot_drill(argv, message):
    """No events, a horizon that is not a positive number, or fewer hot
    UAV-served sensors than events is a usage error naming the flags, not a
    traceback."""
    done = _run_script("run_emergency.py", "--seeds", "1", *argv)
    assert done.returncode == 2, done.stderr
    assert message in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("script", ["reproduce_headline.py", "run_scalability.py"])
@pytest.mark.parametrize("stale", [False, True], ids=["fresh", "stale"])
def test_compare_wrapper_returns_a_failed_compare_without_a_table(tmp_path, script, stale):
    """When compare fails with a bad spec the wrapper exits with its code and
    prints no table: neither a traceback on a fresh directory nor the table
    of a summary.json an earlier run left there."""
    if stale:
        (tmp_path / "summary.json").write_text(
            '{"means": {"n=1,method=old": {"seeds_ok": 1, "mean_response_s": 1.0, '
            '"total_energy_wh": 1.0, "fleet": 1.0}}, "failures": [], '
            '"fleet_growth_factor": {}}\n')
    done = _run_script(script, "--seeds", "0", "-o", str(tmp_path))
    assert done.returncode == 4, done.stderr
    assert "--seeds must be >= 1" in done.stderr
    assert "Traceback" not in done.stderr
    assert "old" not in done.stdout and "response s" not in done.stdout
