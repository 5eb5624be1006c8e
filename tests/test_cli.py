import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import firewatch
from firewatch.cli import main
from firewatch.model import PhysicalParams
from firewatch.scenario import load_scenario, save_scenario
from firewatch.emergency import EmergencyEvent, save_events
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
    eligible = sum(scenario.sensors[int(i)].fire_history > 50 for i in uav_ids)
    out = tmp_path / "sim"
    rc = main(["simulate", "-s", str(scen), "-p", str(plandir / "plan.json"),
               "--n-events", str(eligible + 1), "-o", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "--n-events" in err and f" {eligible} " in err
    assert not out.exists()


def test_simulate_negative_event_count_exit_code(small_files, tmp_path, capsys):
    scen, plandir = small_files
    out = tmp_path / "sim"
    rc = main(["simulate", "-s", str(scen), "-p", str(plandir / "plan.json"),
               "--n-events", "-2", "-o", str(out)])
    assert rc == 4
    assert capsys.readouterr().err == "error: --n-events -2: n_events must be >= 0, got -2\n"
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


def test_compare_rejects_a_repeated_method(tmp_path, capsys):
    rc = main(["compare", "--methods", "greedy,proposed,greedy", "--seeds", "2",
               "--sensors", "30", "-o", str(tmp_path / "c")])
    assert rc == 4
    assert capsys.readouterr().err == "error: --methods names greedy more than once\n"
    assert not (tmp_path / "c").exists()


def test_compare_rejects_a_scenario_file_with_a_sweep(small_files, tmp_path, capsys):
    scen, _ = small_files
    rc = main(["compare", "-s", str(scen), "--sweep-sensors", "20:40:20", "--methods",
               "greedy", "--seeds", "1", "-o", str(tmp_path / "c")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "-s/--scenario" in err and "--sweep-sensors" in err
    assert not (tmp_path / "c").exists()


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


@pytest.mark.parametrize("override", [
    pytest.param(lambda scen: ["-s", str(scen), "--se", "1"], id="abbreviated-long-option"),
    pytest.param(lambda scen: [f"-s{scen}", "--seed", "1"], id="attached-short-option"),
])
def test_any_flag_spelling_beats_the_config_file(small_files, tmp_path, override):
    scen, _ = small_files
    other = tmp_path / "other.json"
    assert main(["generate", "--sensors", "30", "--edges", "3", "-o", str(other)]) == 0
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(f"seed = 3\nscenario = {other}\n")
    out = tmp_path / "out"
    assert main(["plan", "--config", str(cfg), *override(scen), "-o", str(out)]) == 0
    assert json.loads((out / "plan.json").read_text())["seed"] == 1
    with open(out / "metrics.csv") as f:
        assert [r["n_sensors"] for r in csv.DictReader(f)] == ["40"]


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


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(firewatch.__file__).resolve().parents[1])
    code = "import sys, firewatch.cli; sys.exit(int('scipy.stats' in sys.modules))"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr or "firewatch.cli imported scipy.stats"


@pytest.mark.parametrize("rows,index,key,value", [
    ("physical", None, "v_g", float("nan")),
    ("physical", None, "t_max_s", float("inf")),
    ("physical", None, "per_hop_latency_s", float("nan")),
    ("sensors", 3, "data_size_mb", float("nan")),
    ("sensors", 3, "compute_mi", float("inf")),
    ("edges", 0, "capacity_mips", float("inf")),
])
def test_plan_rejects_non_finite_scenario_numbers(tmp_path, capsys, rows, index, key, value):
    scen = tmp_path / "scenario.json"
    assert main(["generate", "--sensors", "30", "-o", str(scen)]) == 0
    doc = json.loads(scen.read_text())
    (doc[rows] if index is None else doc[rows][index])[key] = value
    scen.write_text(json.dumps(doc))     # json writes NaN and Infinity literals
    assert main(["plan", "-s", str(scen), "-o", str(tmp_path / "out")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag,field", [("--lam", "lam"), ("--epsilon-m", "epsilon_m"),
                                        ("--omega-h", "omega_h")])
@pytest.mark.parametrize("command", [["plan", "-s", "x.json"],
                                     ["simulate", "-s", "x.json", "-p", "p.json"],
                                     ["compare", "--methods", "proposed", "--seeds", "1",
                                      "--sensors", "20"]])
def test_non_finite_algorithm_flag_is_a_usage_error(tmp_path, capsys, command, flag,
                                                    field, value):
    rc = main(command + [flag, value, "-o", str(tmp_path / "out")])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sensor_id", [9999, 40, -1])
def test_simulate_rejects_an_event_at_an_unknown_sensor(small_files, tmp_path, capsys,
                                                        sensor_id):
    scen, out = small_files
    events = tmp_path / "events.json"
    save_events([EmergencyEvent(sensor_id, 10.0, 80)], str(events))
    rc = main(["simulate", "-s", str(scen), "-p", str(out / "plan.json"),
               "--events", str(events), "-o", str(tmp_path / "sim")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "events[0].sensor_id" in err and str(sensor_id) in err
    assert "Traceback" not in err


_EVENT = {"sensor_id": 0, "alert_time_s": 10.0, "priority": 80}


@pytest.mark.parametrize("field,entries", [
    ("events", {}),
    ("events[1]", [_EVENT, 3]),
    ("events[0].sensor_id", [{**_EVENT, "sensor_id": "5"}]),
    ("events[0].sensor_id", [{**_EVENT, "sensor_id": True}]),
    ("events[0].sensor_id", [{**_EVENT, "sensor_id": 1.5}]),
    ("events[0].priority", [{**_EVENT, "priority": None}]),
    ("events[0].priority", [{k: v for k, v in _EVENT.items() if k != "priority"}]),
    ("events[0].alert_time_s", [{**_EVENT, "alert_time_s": "abc"}]),
    ("events[0].alert_time_s", [{**_EVENT, "alert_time_s": float("nan")}]),
    ("events[0].alert_time_s", [{**_EVENT, "alert_time_s": float("inf")}]),
    ("events[0].alert_time_s", [{**_EVENT, "alert_time_s": -1.0}]),
    ("events[0].alert_time_s", [{**_EVENT, "alert_time_s": False}]),
])
def test_simulate_rejects_a_malformed_events_file(small_files, tmp_path, capsys, field,
                                                  entries):
    scen, out = small_files
    events = tmp_path / "events.json"
    # json writes NaN and Infinity literals, which json.load reads back
    events.write_text(json.dumps({"schema_version": 1, "events": entries}))
    rc = main(["simulate", "-s", str(scen), "-p", str(out / "plan.json"),
               "--events", str(events), "-o", str(tmp_path / "sim")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {field}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field,mutate", [
    ("routes[0].waypoints", lambda d: d["routes"][0]["waypoints"].__setitem__(0, -1)),
    ("routes[0].waypoints", lambda d: d["routes"][0]["waypoints"].append(40)),
    ("routes[0].depot_edge_id", lambda d: d["routes"][0].__setitem__("depot_edge_id", 3)),
    ("assignment.direct_map", lambda d: d["assignment"]["direct_map"].__setitem__("-2", 0)),
    ("assignment.direct_map", lambda d: d["assignment"]["direct_map"].__setitem__("0", -1)),
    ("assignment.cluster_map", lambda d: d["assignment"]["cluster_map"].__setitem__("0", 5)),
    ("clustering.assignment", lambda d: d["clustering"]["assignment"].__setitem__("40", 0)),
])
def test_simulate_rejects_a_plan_id_outside_the_scenario(small_files, tmp_path, capsys,
                                                         field, mutate):
    _assert_mutated_plan_rejected(small_files, tmp_path, capsys, field, mutate)


def _assert_mutated_plan_rejected(small_files, tmp_path, capsys, field, mutate):
    scen, out = small_files
    doc = json.loads((out / "plan.json").read_text())
    mutate(doc)
    bad = tmp_path / "plan.json"
    bad.write_text(json.dumps(doc))
    rc = main(["simulate", "-s", str(scen), "-p", str(bad), "-o", str(tmp_path / "sim")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"plan {field}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "sim").exists()


def _scale(field, factor):
    return lambda d: d["routes"][0].__setitem__(field, d["routes"][0][field] * factor)


# the 40-sensor plan has one cluster and no direct sensors
@pytest.mark.parametrize("field,mutate", [
    ("routes", lambda d: d.__setitem__("routes", {})),
    ("routes", lambda d: d["routes"].append(d["routes"][0])),
    ("routes[0]", lambda d: d["routes"].__setitem__(0, 3)),
    ("routes[0].waypoints", lambda d: d["routes"][0]["waypoints"].pop(0)),
    ("routes[0].waypoints", lambda d: d["routes"][0]["waypoints"].__setitem__(
        -1, d["routes"][0]["waypoints"][0])),
    ("assignment.cluster_map", lambda d: d["assignment"]["cluster_map"].clear()),
    ("assignment.direct_map", lambda d: d["assignment"]["direct_map"].__setitem__("0", 0)),
    ("clustering.assignment", lambda d: d["clustering"]["assignment"].pop("5")),
    ("routes[0].length_m", _scale("length_m", 1 + 1e-6)),
    ("routes[0].revisit_s", _scale("revisit_s", 1 - 1e-6)),
    ("routes[0].energy_wh", _scale("energy_wh", 1 + 1e-6)),
    # fields of the wrong JSON type, ids named so the cases above keep theirs
    pytest.param("routes[0].waypoints",
                 lambda d: d["routes"][0].__setitem__("waypoints", 5), id="waypoints-int"),
    pytest.param("clustering.assignment",
                 lambda d: d["clustering"].__setitem__("assignment", []),
                 id="clustering.assignment-list"),
    pytest.param("assignment.direct_map",
                 lambda d: d["assignment"].__setitem__("direct_map", []), id="direct_map-list"),
    pytest.param("assignment.cluster_map",
                 lambda d: d["assignment"].__setitem__("cluster_map", []),
                 id="cluster_map-list"),
    pytest.param("clustering.centers[0]",
                 lambda d: d["clustering"]["centers"].__setitem__(0, [1.0]), id="center-x-only"),
    pytest.param("clustering.centers", lambda d: d["clustering"]["centers"].pop(),
                 id="centers-short"),
    pytest.param("clustering", lambda d: d.__setitem__("clustering", []), id="clustering-list"),
    pytest.param("assignment", lambda d: d.__setitem__("assignment", []), id="assignment-list"),
    pytest.param("assignment.loads_mips",
                 lambda d: d["assignment"].__setitem__("loads_mips", 5), id="loads-int"),
    pytest.param("assignment.loads_mips",
                 lambda d: d["assignment"]["loads_mips"].__setitem__(0, "a"), id="load-string"),
    # loads must equal those recomputed from the direct and cluster maps
    pytest.param("assignment.loads_mips[0]",
                 lambda d: d["assignment"].__setitem__(
                     "loads_mips", [1e12] * len(d["assignment"]["loads_mips"])),
                 id="loads-1e12"),
    pytest.param("assignment.loads_mips[0]",
                 lambda d: d["assignment"]["loads_mips"].__setitem__(
                     0, d["assignment"]["loads_mips"][0] + 1.0), id="load-plus-one"),
    pytest.param("routes[0].uav_id", lambda d: d["routes"][0].__setitem__("uav_id", 7),
                 id="uav_id-7"),
    pytest.param("routes[0].uav_id", lambda d: d["routes"][0].__setitem__("uav_id", "x"),
                 id="uav_id-string"),
    pytest.param("routes[0].uav_id", lambda d: d["routes"][0].__setitem__("uav_id", False),
                 id="uav_id-bool"),
    pytest.param("routes[0].uav_id", lambda d: d["routes"][0].__setitem__("uav_id", 0.0),
                 id="uav_id-float"),
    # another edge of the scenario's 3, so only the cluster map disagrees
    pytest.param("routes[0].depot_edge_id",
                 lambda d: d["routes"][0].__setitem__(
                     "depot_edge_id", (d["assignment"]["cluster_map"]["0"] + 1) % 3),
                 id="depot-not-cluster-edge"),
    pytest.param("clustering.iterations_run",
                 lambda d: d["clustering"].__setitem__("iterations_run", "abc"),
                 id="iterations-string"),
    pytest.param("clustering.iterations_run",
                 lambda d: d["clustering"].__setitem__("iterations_run", -1),
                 id="iterations-negative"),
    pytest.param("clustering.iterations_run",
                 lambda d: d["clustering"].__setitem__("iterations_run", 2.5),
                 id="iterations-float"),
    # waypoint_xy must hold the waypoints' scenario positions exactly
    pytest.param("routes[0].waypoint_xy[1]",
                 lambda d: d["routes"][0]["waypoint_xy"].__setitem__(
                     1, d["routes"][0]["waypoint_xy"][0]), id="waypoint_xy-another-point"),
    pytest.param("routes[0].waypoint_xy[0]",
                 lambda d: d["routes"][0]["waypoint_xy"][0].__setitem__(
                     0, d["routes"][0]["waypoint_xy"][0][0] + 1e-9), id="waypoint_xy-moved"),
    pytest.param("routes[0].waypoint_xy[0][1]",
                 lambda d: d["routes"][0]["waypoint_xy"][0].__setitem__(1, float("nan")),
                 id="waypoint_xy-nan"),
    pytest.param("routes[0].waypoint_xy[2]",
                 lambda d: d["routes"][0]["waypoint_xy"].__setitem__(2, "x"),
                 id="waypoint_xy-string"),
    pytest.param("routes[0].waypoint_xy",
                 lambda d: d["routes"][0]["waypoint_xy"].pop(), id="waypoint_xy-short"),
    pytest.param("routes[0].waypoint_xy",
                 lambda d: d["routes"][0].pop("waypoint_xy"), id="waypoint_xy-missing"),
])
def test_simulate_rejects_an_inconsistent_plan(small_files, tmp_path, capsys, field, mutate):
    _assert_mutated_plan_rejected(small_files, tmp_path, capsys, field, mutate)


def test_simulate_rejects_a_plan_that_is_not_an_object(small_files, tmp_path, capsys):
    scen, out = small_files
    bad = tmp_path / "plan.json"
    bad.write_text(json.dumps([json.loads((out / "plan.json").read_text())]))
    rc = main(["simulate", "-s", str(scen), "-p", str(bad), "-o", str(tmp_path / "sim")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "plan document: expected a JSON object" in err
    assert "Traceback" not in err


def test_simulate_rejects_a_plan_made_for_another_scenario(small_files, tmp_path, capsys):
    _, out = small_files
    other = tmp_path / "other.json"
    assert main(["generate", "--sensors", "20", "--edges", "3", "-o", str(other)]) == 0
    rc = main(["simulate", "-s", str(other), "-p", str(out / "plan.json"),
               "-o", str(tmp_path / "sim")])
    assert rc == 1
    assert "is not an id in [0, 20)" in capsys.readouterr().err


# defects of the file readers once reachable through the CLI: each now exits 1
# naming the plan field
@pytest.mark.parametrize("field,mutate", [
    pytest.param("m", lambda d: d.__setitem__("m", True), id="m-bool"),
    pytest.param("m", lambda d: d.__setitem__("m", 1.0), id="m-float"),
    pytest.param("seed", lambda d: d.__setitem__("seed", "x"), id="seed-string"),
    pytest.param("method", lambda d: d.__setitem__("method", 5), id="method-int"),
    pytest.param('assignment.direct_map["abc"]',
                 lambda d: d["assignment"]["direct_map"].__setitem__("abc", 0),
                 id="direct_map-key-abc"),
    pytest.param("routes", lambda d: d.pop("routes"), id="no-routes"),
    pytest.param("routes[0].depot_edge_id", lambda d: d["routes"][0].pop("depot_edge_id"),
                 id="no-depot_edge_id"),
])
def test_simulate_rejects_a_mistyped_or_missing_plan_field(small_files, tmp_path, capsys,
                                                           field, mutate):
    _assert_mutated_plan_rejected(small_files, tmp_path, capsys, field, mutate)


@pytest.mark.parametrize("field,mutate", [
    ("meta.seed", lambda d: d["meta"].__setitem__("seed", 1.5)),
    ("physical.v_g", lambda d: d["physical"].__setitem__("v_g", True)),
    ("sensors[0].id", lambda d: d["sensors"][0].__setitem__("id", 0.0)),
])
def test_plan_rejects_a_mistyped_scenario_field(small_files, tmp_path, capsys, field,
                                                mutate):
    scen, _ = small_files
    doc = json.loads(scen.read_text())
    mutate(doc)
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps(doc))
    rc = main(["plan", "-s", str(bad), "-o", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {field}:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_an_event_past_the_horizon(small_files, tmp_path, capsys):
    scen, out = small_files
    events = tmp_path / "events.json"
    save_events([EmergencyEvent(0, 7200.5, 80)], str(events))
    rc = main(["simulate", "-s", str(scen), "-p", str(out / "plan.json"), "--events",
               str(events), "--horizon", "7200", "-o", str(tmp_path / "sim")])
    assert rc == 1
    assert "error: events[0].alert_time_s:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code,named", [
    (["plan", "-s", "x.json", "--method", "ga", "--ga-pop", "1"], 2, "population"),
    (["plan", "-s", "x.json", "--method", "pso", "--pso-iters", "-1"], 2, "iterations"),
    (["compare", "--methods", "greedy", "--seeds", "1", "--sensors", "20", "--ga-pop", "1"],
     2, "population"),
    (["compare", "--methods", "greedy", "--seeds", "1", "--edges", "0"], 4, "n_edges"),
    (["compare", "--methods", "greedy", "--seeds", "1", "--sensors", "0"], 4, "n_sensors"),
])
def test_bad_search_or_compare_flag_fails_before_any_work(tmp_path, capsys, argv, code,
                                                          named):
    rc = main(argv + ["-o", str(tmp_path / "out")])
    assert rc == code
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_GA = ["plan", "-s", "x.json", "--method", "ga"]
_PSO = ["plan", "-s", "x.json", "--method", "pso"]
_COMPARE = ["compare", "--methods", "greedy", "--seeds", "1"]


@pytest.mark.parametrize("argv,code,message", [
    pytest.param(_GA + ["--ga-pop", "1"], 2, "--ga-pop 1: population must be >= 2",
                 id="plan-ga-pop"),
    pytest.param(_GA + ["--ga-gens", "-3"], 2, "--ga-gens -3: generations must be >= 0",
                 id="plan-ga-gens"),
    pytest.param(_PSO + ["--pso-swarm", "0"], 2, "--pso-swarm 0: swarm must be >= 2",
                 id="plan-pso-swarm"),
    pytest.param(_PSO + ["--pso-iters", "-1"], 2, "--pso-iters -1: iterations must be >= 0",
                 id="plan-pso-iters"),
    pytest.param(_COMPARE + ["--ga-pop", "1"], 2, "--ga-pop 1: population must be >= 2",
                 id="compare-ga-pop"),
    pytest.param(_COMPARE + ["--edges", "0"], 4, "--edges 0: n_edges must be >= 1, got 0",
                 id="compare-edges"),
    pytest.param(_COMPARE + ["--sensors", "0"], 4,
                 "--sensors 0: n_sensors must be >= 1, got 0", id="compare-sensors"),
    pytest.param(_COMPARE + ["--sweep-sensors", "20:40:20", "--edges", "-1"], 4,
                 "--edges -1: n_edges must be >= 1, got -1", id="compare-sweep-edges"),
    pytest.param(["generate", "--sensors", "0"], 2,
                 "--sensors 0: n_sensors must be >= 1, got 0", id="generate-sensors"),
    pytest.param(["generate", "--edges", "0"], 2, "--edges 0: n_edges must be >= 1, got 0",
                 id="generate-edges"),
    pytest.param(["generate", "--sensors", "40", "--hotspot-sigma", "nan"], 2,
                 "--hotspot-sigma nan: hotspot_sigma_m must be finite and > 0, got nan",
                 id="generate-hotspot-sigma-nan"),
    pytest.param(["generate", "--sensors", "40", "--hotspot-sigma", "inf"], 2,
                 "--hotspot-sigma inf: hotspot_sigma_m must be finite and > 0, got inf",
                 id="generate-hotspot-sigma-inf"),
])
def test_bad_config_flag_is_named_with_its_value(tmp_path, capsys, argv, code, message):
    rc = main(argv + ["-o", str(tmp_path / "out")])
    assert rc == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line,code,named", [
    ("seed = abc", 2, "config key 'seed': invalid value 'abc'"),
    ("omega_h = x", 2, "config key 'omega_h': invalid value 'x'"),
    ("fleet_init = most", 2, "config key 'fleet_init': invalid choice 'most'"),
    ("seed 3", 1, "gen.cfg:1: expected key=value"),
])
def test_config_file_bad_value_names_the_key(small_files, tmp_path, capsys, line, code,
                                             named):
    scen, _ = small_files
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(line + "\n")
    rc = main(["plan", "-s", str(scen), "--config", str(cfg), "-o", str(tmp_path / "out")])
    assert rc == code
    assert named in capsys.readouterr().err
