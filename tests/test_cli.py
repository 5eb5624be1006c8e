import csv
import json

import pytest

from firewatch.cli import main
from firewatch.model import PhysicalParams
from firewatch.scenario import load_scenario, save_scenario
from firewatch.emergency import save_events
from testutil import build_scenario


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    """A 40-sensor scenario plus its plan artifacts, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    scen = root / "scenario.json"
    rc = main(["generate", "--sensors", "40", "--edges", "3", "--seed", "7",
               "-o", str(scen)])
    assert rc == 0
    out = root / "plan"
    rc = main(["plan", "-s", str(scen), "-o", str(out)])
    assert rc == 0
    return scen, out


def test_generate_deterministic(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert main(["generate", "--sensors", "30", "-o", str(a)]) == 0
    assert main(["generate", "--sensors", "30", "-o", str(b)]) == 0
    assert main(["generate", "--sensors", "30", "--seed", "1", "-o", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_generate_rejects_zero_sensors(tmp_path, capsys):
    rc = main(["generate", "--sensors", "0", "-o", str(tmp_path / "x.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_plan_artifacts(small_files):
    _, out = small_files
    for name in ("plan.json", "routes.csv", "metrics.csv"):
        assert (out / name).exists()
    with open(out / "metrics.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    row = rows[0]
    assert row["method"] == "proposed"
    assert row["variant"] == "full"
    assert row["n_sensors"] == "40"
    assert int(row["fleet"]) >= 1
    assert float(row["mean_response_s"]) > 0.0


def test_plan_deterministic_outputs(small_files, tmp_path):
    scen, out = small_files
    again = tmp_path / "again"
    assert main(["plan", "-s", str(scen), "-o", str(again)]) == 0
    assert (out / "plan.json").read_bytes() == (again / "plan.json").read_bytes()
    assert (out / "routes.csv").read_bytes() == (again / "routes.csv").read_bytes()
    with open(out / "metrics.csv") as f:
        first = list(csv.DictReader(f))[0]
    with open(again / "metrics.csv") as f:
        second = list(csv.DictReader(f))[0]
    first.pop("planning_time_s")
    second.pop("planning_time_s")
    assert first == second


def test_plan_variant_requires_proposed(small_files, tmp_path, capsys):
    scen, _ = small_files
    rc = main(["plan", "-s", str(scen), "--method", "ga",
               "--variant", "no-2opt", "-o", str(tmp_path)])
    assert rc == 2
    assert "variant" in capsys.readouterr().err


def test_plan_infeasible_exit_code(tmp_path, capsys):
    sc = build_scenario(
        [(3000.0, 0.0, 0, 1.0, 1e6), (3200.0, 0.0, 0, 1.0, 1e6),
         (3400.0, 0.0, 0, 1.0, 1e6)],
        [(0.0, 0.0, 10.0)], PhysicalParams(m_max=3))
    path = tmp_path / "wall.json"
    save_scenario(sc, str(path))
    rc = main(["plan", "-s", str(path), "-o", str(tmp_path / "out")])
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err


def test_plan_missing_scenario_exit_io(tmp_path):
    rc = main(["plan", "-s", str(tmp_path / "nope.json"),
               "-o", str(tmp_path)])
    assert rc == 1


def test_simulate_artifacts(small_files, tmp_path):
    scen, plandir = small_files
    out = tmp_path / "sim"
    rc = main(["simulate", "-s", str(scen), "-p", str(plandir / "plan.json"),
               "--n-events", "3", "--horizon", "7200", "-o", str(out)])
    assert rc == 0
    for name in ("events.json", "trace.csv", "impact.json"):
        assert (out / name).exists()
    impact = json.loads((out / "impact.json").read_text())
    assert impact["horizon_s"] == 7200.0
    assert impact["n_events"] == 3
    assert impact["deadline_s"] == 300.0
    assert 0.0 <= impact["deadline_hit_rate"] <= 1.0
    with open(out / "trace.csv") as f:
        assert len(list(csv.DictReader(f))) == 3


def test_simulate_accepts_events_file(small_files, tmp_path):
    scen, plandir = small_files
    events_path = tmp_path / "events.json"
    save_events([], str(events_path))
    out = tmp_path / "sim"
    rc = main(["simulate", "-s", str(scen), "-p", str(plandir / "plan.json"),
               "--events", str(events_path), "-o", str(out)])
    assert rc == 0
    impact = json.loads((out / "impact.json").read_text())
    assert impact["n_events"] == 0
    assert impact["normal_delta_s"] == 0.0
    assert impact["deadline_hit_rate"] == 1.0


def test_simulate_no_high_risk_exit_code(tmp_path, capsys):
    scen = tmp_path / "cool.json"
    assert main(["generate", "--sensors", "40", "--edges", "3",
                 "--fire-history-max", "40", "-o", str(scen)]) == 0
    out = tmp_path / "plan"
    assert main(["plan", "-s", str(scen), "-o", str(out)]) == 0
    rc = main(["simulate", "-s", str(scen), "-p", str(out / "plan.json"),
               "-o", str(tmp_path / "sim")])
    assert rc == 4
    assert "fire_history" in capsys.readouterr().err


def test_simulate_too_many_events_exit_code(small_files, tmp_path, capsys):
    scen, plandir = small_files
    scenario = load_scenario(str(scen))
    with open(plandir / "plan.json") as f:
        uav_ids = json.load(f)["clustering"]["assignment"]
    eligible = sum(scenario.sensor_by_id(int(i)).fire_history > 50 for i in uav_ids)
    out = tmp_path / "sim"
    rc = main(["simulate", "-s", str(scen), "-p", str(plandir / "plan.json"),
               "--n-events", str(eligible + 1), "-o", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "--n-events" in err and f" {eligible} " in err
    assert not out.exists()


def test_simulate_bad_horizon(small_files, tmp_path, capsys):
    scen, plandir = small_files
    rc = main(["simulate", "-s", str(scen), "-p", str(plandir / "plan.json"),
               "--horizon", "-5", "-o", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("horizon", ["inf", "nan"])
def test_simulate_non_finite_horizon(small_files, tmp_path, capsys, horizon):
    scen, plandir = small_files
    out = tmp_path / "sim"
    rc = main(["simulate", "-s", str(scen), "-p", str(plandir / "plan.json"),
               "--horizon", horizon, "-o", str(out)])
    assert rc == 2
    assert "--horizon" in capsys.readouterr().err
    assert not out.exists()


def _run_compare(out, extra=()):
    return main(["compare", "--methods", "proposed,greedy", "--seeds", "2",
                 "--sensors", "60", "--edges", "3", "-o", str(out), *extra])


def test_compare_artifacts(tmp_path):
    out = tmp_path / "cmp"
    assert _run_compare(out) == 0
    with open(out / "means.csv") as f:
        means = list(csv.DictReader(f))
    assert {r["method"] for r in means} == {"proposed", "greedy"}
    assert all(r["seeds_ok"] == "2" for r in means)

    with open(out / "cdf.csv") as f:
        cdf = list(csv.DictReader(f))
    last = {}
    for r in cdf:
        last[r["method"]] = float(r["cum_fraction"])
    assert last == {"proposed": 1.0, "greedy": 1.0}

    with open(out / "pairwise.csv") as f:
        pairs = list(csv.DictReader(f))
    assert {r["metric"] for r in pairs} == {"mean_response_s", "total_energy_wh",
                                            "fleet"}
    assert all(r["n_pairs"] == "2" and r["baseline"] == "greedy" for r in pairs)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] == 2
    assert summary["failures"] == []
    # aggregates carry no wall-clock timing
    assert "planning_time" not in (out / "summary.json").read_text()


def test_compare_summary_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run_compare(a) == 0
    assert _run_compare(b) == 0
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "cdf.csv").read_bytes() == (b / "cdf.csv").read_bytes()


def test_compare_single_seed_warns(tmp_path, capsys):
    rc = main(["compare", "--methods", "greedy", "--seeds", "1",
               "--sensors", "60", "--edges", "3", "-o", str(tmp_path / "c")])
    assert rc == 0
    assert "CIs omitted" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", ["100:50:10", "abc", "100", "0:100:10",
                                   "100:200:0"])
def test_compare_bad_sweep(tmp_path, capsys, sweep):
    rc = main(["compare", "--methods", "greedy", "--seeds", "1",
               "--sweep-sensors", sweep, "-o", str(tmp_path)])
    assert rc == 4


def test_compare_bad_method(tmp_path, capsys):
    rc = main(["compare", "--methods", "proposed,bogus", "-o", str(tmp_path)])
    assert rc == 4
    assert "bogus" in capsys.readouterr().err


def test_compare_zero_seeds(tmp_path):
    rc = main(["compare", "--methods", "greedy", "--seeds", "0",
               "-o", str(tmp_path)])
    assert rc == 4


def test_config_file_defaults_and_precedence(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("sensors = 25\nseed = 3\n")
    a = tmp_path / "a.json"
    assert main(["generate", "--config", str(cfg), "-o", str(a)]) == 0
    assert len(load_scenario(str(a)).sensors) == 25
    # explicit flag beats the config file
    b = tmp_path / "b.json"
    assert main(["generate", "--config", str(cfg), "--sensors", "30",
                 "-o", str(b)]) == 0
    assert len(load_scenario(str(b)).sensors) == 30


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("bogus = 1\n")
    rc = main(["generate", "--config", str(cfg),
               "-o", str(tmp_path / "x.json")])
    assert rc == 2


def test_config_file_missing(tmp_path):
    rc = main(["generate", "--config", str(tmp_path / "nope.cfg"),
               "-o", str(tmp_path / "x.json")])
    assert rc == 1
