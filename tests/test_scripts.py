import csv
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import firewatch

ROOT = Path(__file__).resolve().parents[1]
METHODS = ["proposed", "ga", "pso", "greedy"]

# each command of the README's Experiments block, with the flags that cut it
# to a smoke run; "{out}" is a fresh output directory
SMOKE = {
    "firewatch compare --config scripts/headline.cfg":
        ["--seeds", "2", "--sensors", "40", "--ga-pop", "4", "--ga-gens", "2",
         "--pso-swarm", "4", "--pso-iters", "2", "-o", "{out}"],
    "python scripts/run_ablation.py": ["--seeds", "1", "--sensors", "40", "-o", "{out}"],
    "python scripts/run_emergency.py": ["--seeds", "1", "--sensors", "40"],
    "firewatch compare --config scripts/scalability.cfg":
        ["--seeds", "1", "--sweep-sensors", "30:40:10", "--ga-pop", "4", "--ga-gens", "2",
         "--pso-swarm", "4", "--pso-iters", "2", "-o", "{out}"],
}


def _env():
    return dict(os.environ, PYTHONPATH=str(Path(firewatch.__file__).resolve().parents[1]))


def _run_script(name, *argv, cwd=None):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          env=_env(), cwd=cwd, capture_output=True, text=True, timeout=120)


def _readme_experiments():
    """The commands of the README's Experiments block, comments dropped."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Experiments", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].strip() for line in block.splitlines() if line.strip()]


def _smoke(command, out):
    """Run a README Experiments command from the repository root at its
    smoke budget; ``firewatch`` runs as ``python -m firewatch.cli``."""
    argv = shlex.split(command)
    head = ({"firewatch": [sys.executable, "-m", "firewatch.cli"],
             "python": [sys.executable]}[argv[0]])
    extra = [str(out) if a == "{out}" else a for a in SMOKE[command]]
    return subprocess.run(head + argv[1:] + extra, env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_every_readme_experiment_has_a_smoke_run():
    """The README advertises exactly the commands the smoke runs execute."""
    assert _readme_experiments() == list(SMOKE)


def test_run_emergency_script_smoke(tmp_path):
    """The drill script runs end to end on one small seed: planning, event
    generation, simulate, the analytic bound and the response table."""
    done = _smoke("python scripts/run_emergency.py", tmp_path)
    assert done.returncode == 0, done.stderr
    assert "seed  0 fleet" in done.stdout
    assert "events, policy nearest" in done.stdout


def test_run_ablation_script_smoke(tmp_path):
    """The ablation script plans one small seed in all four arms and writes
    their mean responses to ablation.csv."""
    done = _smoke("python scripts/run_ablation.py", tmp_path)
    assert done.returncode == 0, done.stderr
    assert "seed  0 fleet" in done.stdout
    assert "monotone chain on" in done.stdout
    with open(tmp_path / "ablation.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["seed"] for r in rows] == ["0"]
    assert set(rows[0]) == {"seed", "fleet", "full", "no-2opt", "no-kmeans", "no-both"}


@pytest.mark.parametrize("config", ["headline", "scalability"])
def test_compare_config_prints_the_means_it_writes(tmp_path, config):
    """Each shipped config runs compare with the command-line flags over its
    keys, and compare prints one table row per (n, method) of means.csv, in
    its order, with the mean response, energy and fleet rounded as printed,
    then, for a sweep, the fleet growth factors, then its closing line."""
    done = _smoke(f"firewatch compare --config scripts/{config}.cfg", tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["n", "method", "seeds", "response", "s", "energy", "Wh",
                                "fleet"]
    with open(tmp_path / "means.csv", newline="") as f:
        means = list(csv.DictReader(f))
    # the budget flags over the file's seeds and sensors, every cell planned
    ns, seeds = {"headline": (["40"], "2"), "scalability": (["30", "40"], "1")}[config]
    assert [(r["n_sensors"], r["method"], r["seeds_ok"]) for r in means] == [
        (n, m, seeds) for n in ns for m in METHODS]
    want = [[r["n_sensors"], r["method"], r["seeds_ok"],
             f"{float(r['mean_response_s']):.1f}", f"{float(r['total_energy_wh']):.1f}",
             f"{float(r['fleet']):.2f}"] for r in means]
    assert [line.split() for line in lines[1:1 + len(want)]] == want
    fleet = {(r["n_sensors"], r["method"]): float(r["fleet"]) for r in means}
    growth = [] if config == "headline" else ["fleet growth factors: " + ", ".join(
        f"{m} {fleet['40', m] / fleet['30', m]:.2f}" for m in METHODS)]
    assert lines[1 + len(want):-1] == growth
    assert lines[-1].startswith("compare: ")


# ids keep the names of the wrapper scripts the two configs replace
@pytest.mark.parametrize("config", ["headline", "scalability"],
                         ids=["fresh-reproduce_headline.py", "fresh-run_scalability.py"])
def test_compare_wrapper_returns_a_failed_compare_without_a_table(tmp_path, config):
    """When compare run from a shipped config fails with a bad spec it exits
    with its code and prints no table, and no traceback."""
    done = subprocess.run([sys.executable, "-m", "firewatch.cli", "compare", "--config",
                           f"scripts/{config}.cfg", "--seeds", "0", "-o", str(tmp_path)],
                          env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 4, done.stderr
    assert "--seeds must be >= 1" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


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
    (["--horizon", "1e308"], "--horizon must be at most 1e+12, got 1e+308"),
])
def test_run_emergency_rejects_inputs_it_cannot_drill(argv, message):
    """No events, a horizon that is not a positive number, or fewer hot
    UAV-served sensors than events is a usage error naming the flags, not a
    traceback."""
    done = _run_script("run_emergency.py", "--seeds", "1", *argv)
    assert done.returncode == 2, done.stderr
    assert message in done.stderr
    assert "Traceback" not in done.stderr
