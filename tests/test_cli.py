import csv
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import firewatch
from firewatch import baselines, cli, clustering, planner
from firewatch.baselines import ga_plan, search_workers
from firewatch.cli import main
from firewatch.model import AlgoParams, PhysicalParams
from firewatch.planner import load_plan
from firewatch.routing import ordered_route
from firewatch.scenario import load_scenario, save_scenario
from firewatch.emergency import EmergencyEvent, save_events, simulate
from testutil import build_scenario, processes_where, without_column


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


def test_generate_rejects_an_area_that_overflows_in_m2(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["generate", "--area-km2", "1e303", "-o", str(out)]) == 2
    assert capsys.readouterr().err == ("error: --area-km2 1e+303: area_km2 must be finite "
                                       "in m^2 (area_km2 * 1e6), got 1e+303\n")
    assert not out.exists()


def test_plan_rejects_a_scenario_area_that_overflows_in_m2(tmp_path, capsys):
    scen = tmp_path / "scenario.json"
    assert main(["generate", "--sensors", "30", "-o", str(scen)]) == 0
    doc = json.loads(scen.read_text())
    doc["physical"]["area_km2"] = 1e303
    scen.write_text(json.dumps(doc))
    assert main(["plan", "-s", str(scen), "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: physical: area_km2 must be finite")
    assert not (tmp_path / "out").exists()


def test_a_scenario_cruise_speed_past_the_ceiling_exits_1(tmp_path, capsys):
    """At v_g = 1e305 a patrol position, v_g * t metres along its tour,
    overflows within a day: ``plan`` and ``simulate`` reject the scenario
    file, naming the field."""
    scen, moved = tmp_path / "scenario.json", tmp_path / "fast.json"
    assert main(["generate", "--sensors", "60", "--seed", "0", "-o", str(scen)]) == 0
    assert main(["plan", "-s", str(scen), "-o", str(tmp_path / "plan")]) == 0
    doc = json.loads(scen.read_text())
    doc["physical"]["v_g"] = 1e305
    moved.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv in (["plan", "-s", str(moved), "-o", str(tmp_path / "out")],
                 ["simulate", "-s", str(moved), "-p", str(tmp_path / "plan" / "plan.json"),
                  "-o", str(tmp_path / "out")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == ("error: physical: v_g must be at most 1e+290, "
                                           "got 1e+305\n")
        assert not (tmp_path / "out").exists()


def test_plan_writes_no_non_finite_number(tmp_path, capsys, monkeypatch):
    """Past the omega_h check (patched out here), at omega_h = 1e308 the
    sensor weights overflow and the plan's response times are NaN, which
    JSON cannot hold: ``plan`` exits 1 with one line naming plan.json, and
    writes no plan.json."""
    scen, out = tmp_path / "scenario.json", tmp_path / "out"
    assert main(["generate", "--sensors", "60", "--seed", "0", "-o", str(scen)]) == 0
    capsys.readouterr()
    for module in (planner, clustering):
        monkeypatch.setattr(module, "check_omega_h", lambda scenario, omega_h: None)
    with np.errstate(all="ignore"):
        assert main(["plan", "-s", str(scen), "--omega-h", "1e308", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'plan.json'}: Out of range float values are not "
                          "JSON compliant")
    assert err.count("\n") == 1
    assert not (out / "plan.json").exists()


@pytest.mark.parametrize("edges", [3, 5])
def test_an_omega_h_that_overflows_is_a_usage_error(tmp_path, capsys, edges):
    """On the 60-sensor seed-0 scenario omega_h = 1e308 overflows the
    sensor weights: with 3 edges ``plan`` used to exit 3 after numpy
    warnings, with 5 to exit 1 at plan.json.  Now ``plan`` and ``compare``
    exit 2 with one line naming --omega-h, and write nothing; 1e300 still
    plans."""
    scen = tmp_path / "scenario.json"
    assert main(["generate", "--sensors", "60", "--seed", "0", "--edges", str(edges),
                 "-o", str(scen)]) == 0
    capsys.readouterr()
    for argv in (["plan", "-s", str(scen)],
                 ["compare", "-s", str(scen), "--methods", "greedy,ga", "--seeds", "2"]):
        out = tmp_path / argv[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--omega-h", "1e308", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --omega-h 1e+308: omega_h 1e+308 makes a sensor weight")
        assert err.count("\n") == 1
        assert not out.exists()
    assert main(["plan", "-s", str(scen), "--omega-h", "1e300",
                 "-o", str(tmp_path / "plan")]) == 0


@pytest.mark.parametrize("cpus", [1, 2])
def test_compare_with_an_omega_h_that_overflows_on_a_later_seed(tmp_path, capsys,
                                                                 monkeypatch, cpus):
    """At 40 sensors omega_h = 1.5e301 passes the check on seed 0 (its
    threshold is about 1.73e301) and overflows on seed 1 (about 1.24e301):
    the first cell of seed 1 raises, in this thread with one usable CPU and
    on compare's threads with two, and compare exits 2 with one line naming
    --omega-h and writes nothing."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    out = tmp_path / "out"
    assert main(["compare", "--sensors", "40", "--methods", "greedy,ga", "--seeds", "2",
                 "--ga-pop", "4", "--ga-gens", "2", "--omega-h", "1.5e301",
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --omega-h 1.5e+301: omega_h 1.5e+301 makes a sensor weight")
    assert err.count("\n") == 1
    assert not out.exists()


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


def _capacity_wall(tmp_path) -> Path:
    """A scenario file of three sensors whose compute no fleet up to
    m_max = 3 fits on the one edge."""
    sc = build_scenario(
        [(3000.0, 0.0, 0, 1.0, 1e6), (3200.0, 0.0, 0, 1.0, 1e6),
         (3400.0, 0.0, 0, 1.0, 1e6)],
        [(0.0, 0.0, 10.0)], PhysicalParams(m_max=3))
    path = tmp_path / "wall.json"
    save_scenario(sc, str(path))
    return path


def test_plan_infeasible_exit_code(tmp_path, capsys):
    rc = main(["plan", "-s", str(_capacity_wall(tmp_path)), "-o", str(tmp_path / "out")])
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
    for name in ("events.json", "trace.csv", "impact.json", "queue.json"):
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


def _bench_checks(monkeypatch):
    """The benchmark's output checks, the oracles of the queue profile."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import checks
    return checks


def _simulate_queue(tmp_path, scen, plan_path, events, horizon, seed=0):
    """queue.json of `firewatch simulate` on the events, and the simulate
    result of the same inputs in process."""
    save_events(events, str(tmp_path / "events.json"))
    out = tmp_path / "sim"
    assert main(["simulate", "-s", str(scen), "-p", str(plan_path), "--horizon", str(horizon),
                 "--events", str(tmp_path / "events.json"), "--seed", str(seed),
                 "-o", str(out)]) == 0
    sc = load_scenario(str(scen))
    pl = load_plan(str(plan_path), sc)
    return json.loads((out / "queue.json").read_text()), simulate(
        pl, sc, events, horizon, AlgoParams(seed=seed)), pl, sc


def test_simulate_writes_the_queue_profile(tmp_path, monkeypatch):
    """queue.json holds the peak pending depth and longest wait of the
    benchmark's queue_profile, the mean wait, and each UAV's time from launch
    to service_end, cut at the horizon, over the horizon; a burst of alerts
    on whole seconds shares instants, and some are at direct sensors."""
    checks = _bench_checks(monkeypatch)
    scen, plan_path = tmp_path / "scenario.json", tmp_path / "plan" / "plan.json"
    assert main(["generate", "--sensors", "200", "--seed", "0", "-o", str(scen)]) == 0
    assert main(["plan", "-s", str(scen), "-o", str(plan_path.parent)]) == 0
    sc = load_scenario(str(scen))
    pl = load_plan(str(plan_path), sc)
    rng = np.random.default_rng(3)
    ids = rng.choice(sorted(pl.clustering.assignment), size=60).tolist()
    ids += sorted(pl.assignment.direct_map)[:2]
    times = np.floor(rng.uniform(0.0, 600.0, size=len(ids))).tolist()
    events = [EmergencyEvent(i, t, sc.sensors[i].fire_history) for i, t in zip(ids, times)]
    horizon = 3600.0      # the backlog runs past it, so the busy time is cut
    queue, res, pl, sc = _simulate_queue(tmp_path, scen, plan_path, events, horizon)
    peak, longest = checks.queue_profile(res.traces)
    assert pl.m == 3 and peak > 1 and longest > horizon
    assert (queue["peak_pending"], queue["max_queue_wait_s"]) == (peak, longest)
    assert queue["mean_queue_wait_s"] == pytest.approx(
        np.mean([t.t_queue_s for t in res.traces]), rel=1e-12)
    busy = [0.0] * pl.m
    for t in res.traces:
        if t.uav_id is not None:
            launch = t.alert_time_s + t.t_queue_s
            end = checks.service_end(t, pl, sc)
            busy[t.uav_id] += min(end, horizon) - min(launch, horizon)
    assert max(busy) > 0.9 * horizon
    assert queue["uav_busy_fraction"] == pytest.approx([b / horizon for b in busy], rel=1e-9)


def test_queue_profile_shows_the_surge_backlog(tmp_path):
    """The benchmark's surge at seed 1, 2000 alerts within an hour at the hot
    UAV-served sensors of the 300-sensor plan over a week: its alerts wait
    71 hours on the mean, the longest twice that, nearly all at once, and
    every UAV is away on alerts most of the week."""
    scen = tmp_path / "scenario.json"
    assert main(["generate", "--sensors", "300", "--seed", "0", "-o", str(scen)]) == 0
    assert main(["plan", "-s", str(scen), "-o", str(tmp_path / "plan")]) == 0
    sc = load_scenario(str(scen))
    pl = load_plan(str(tmp_path / "plan" / "plan.json"), sc)
    hot = [i for i in sorted(pl.clustering.assignment) if sc.sensors[i].fire_history > 50]
    rng = np.random.default_rng([1, 1])
    ids = rng.choice(hot, size=2000).tolist()
    times = np.sort(rng.uniform(0.0, 3600.0, size=2000)).tolist()
    events = [EmergencyEvent(i, t, sc.sensors[i].fire_history) for i, t in zip(ids, times)]
    queue, _, _, _ = _simulate_queue(tmp_path, scen, tmp_path / "plan" / "plan.json", events,
                                     7 * 86400.0, seed=1)
    assert round(queue["mean_queue_wait_s"] / 3600.0) == 71
    assert round(queue["max_queue_wait_s"] / 3600.0) == 142
    assert queue["peak_pending"] > 1900
    assert len(queue["uav_busy_fraction"]) == 3
    assert all(0.8 < b < 1.0 for b in queue["uav_busy_fraction"])


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


@pytest.mark.parametrize("horizon", ["1.0000000000000002e12", "5e307", "1e308", "1.7e308"])
def test_simulate_horizon_past_the_ceiling(small_files, tmp_path, capsys, horizon):
    scen, plandir = small_files
    out = tmp_path / "sim"
    rc = main(["simulate", "-s", str(scen), "-p", str(plandir / "plan.json"),
               "--horizon", horizon, "-o", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: --horizon must be at most 1e+12, "
                                       f"got {float(horizon)}\n")
    assert not out.exists()


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


def test_compare_writes_null_for_a_pairwise_ci_below_two_pairs(tmp_path):
    """With one seed each pairwise CI is undefined: summary.json writes it
    null, as it does a mean's CI, and pairwise.csv an empty field."""
    out = tmp_path / "c"
    assert main(["compare", "--methods", "proposed,greedy", "--sensors", "60", "--seeds", "1",
                 "-o", str(out)]) == 0
    pairs = json.loads((out / "summary.json").read_text())["pairwise_proposed_minus_baseline"]
    assert len(pairs) == 3
    assert all(p["n_pairs"] == 1 and p["ci_lo"] is None and p["ci_hi"] is None for p in pairs)
    with open(out / "pairwise.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["ci_lo"], r["ci_hi"]) for r in rows] == [("", "")] * 3


def _cell(fleet: float, response: float = 100.0, responses=(100.0,)) -> dict:
    """A hand-made compare cell: a plan's metrics row and response times."""
    return {"mean_response_s": response, "total_energy_wh": 10.0, "fleet": fleet,
            "total_route_length_m": 1000.0, "planning_time_s": 0.5, "responses": list(responses)}


# the 97.5% quantile of Student's t with one degree of freedom, a Cauchy quantile
T_1DF = math.tan(0.475 * math.pi)


def test_aggregate_gives_the_mean_and_t_interval_of_two_seeds():
    """Fleets 1 and 3 have mean 2 and standard error 1, so the 95% CI is
    2 -+ t(1 df); equal values give a CI of zero width, and the two cells'
    response times pool into one sorted CDF."""
    cells = {(60, 0, "greedy"): _cell(1, responses=(3.0, 1.0)),
             (60, 1, "greedy"): _cell(3, responses=(2.0,))}
    means, means_rows, cdf_rows, pair_rows, growth = cli._aggregate(
        cells, [60], [0, 1], ["greedy"])
    assert T_1DF == pytest.approx(12.7062047, rel=1e-8)
    agg = means[60, "greedy"]
    assert agg["seeds_ok"] == 2 and agg["fleet"] == 2.0
    assert agg["fleet_ci"] == pytest.approx([2.0 - T_1DF, 2.0 + T_1DF], rel=1e-12)
    assert agg["response_ci"] == [100.0, 100.0]
    (row,) = means_rows
    assert (row["n_sensors"], row["method"], row["seeds_ok"]) == (60, "greedy", 2)
    assert [row["fleet_ci_lo"], row["fleet_ci_hi"]] == agg["fleet_ci"]
    assert row["planning_time_s_mean"] == 0.5
    assert [(r["response_s"], r["cum_fraction"]) for r in cdf_rows] == [
        (1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]
    assert pair_rows == [] and growth == {}


@pytest.mark.parametrize("n", [*range(2, 201), 1000, 10_000])
def test_mean_ci_uses_the_exact_t_quantile(n):
    """`_mean_ci`'s bounds are m -+ t(0.975, n - 1) sd / sqrt(n) to the last
    bit, with the quantile taken from scipy.stats, for every n it meets in
    practice and two large ones."""
    from scipy import stats

    xs = list(np.random.default_rng(n).normal(50.0, 7.0, n))
    m, sd = float(np.mean(xs)), float(np.std(xs, ddof=1))
    half = float(stats.t.ppf(0.975, n - 1)) * sd / math.sqrt(n)
    assert cli._mean_ci(xs) == (m, m - half, m + half)


def test_aggregate_pairs_only_the_seeds_both_methods_planned():
    """Greedy has no plan on seed 0, so its pairs with proposed are seeds 1
    and 2 (differences 1 and 2: mean 1.5, standard error 0.5); with seed 2
    gone as well, the one pair left has no CI."""
    cells = {(60, 0, "proposed"): _cell(2, 90.0), (60, 1, "proposed"): _cell(4, 90.0),
             (60, 2, "proposed"): _cell(7, 90.0),
             (60, 1, "greedy"): _cell(3, 100.0), (60, 2, "greedy"): _cell(5, 100.0)}
    _, means_rows, _, pair_rows, _ = cli._aggregate(cells, [60], [0, 1, 2],
                                                    ["proposed", "greedy"])
    assert [r["seeds_ok"] for r in means_rows] == [3, 2]
    pairs = {r["metric"]: r for r in pair_rows}
    assert list(pairs) == ["mean_response_s", "total_energy_wh", "fleet"]
    assert all(r["baseline"] == "greedy" and r["n_pairs"] == 2 for r in pair_rows)
    assert pairs["fleet"]["mean_diff"] == 1.5
    assert [pairs["fleet"]["ci_lo"], pairs["fleet"]["ci_hi"]] == pytest.approx(
        [1.5 - T_1DF / 2, 1.5 + T_1DF / 2], rel=1e-12)
    assert (pairs["mean_response_s"]["mean_diff"], pairs["mean_response_s"]["ci_lo"]) == (
        -10.0, -10.0)

    del cells[60, 2, "greedy"]
    _, _, _, pair_rows, _ = cli._aggregate(cells, [60], [0, 1, 2], ["proposed", "greedy"])
    assert [(r["n_pairs"], r["mean_diff"], r["ci_lo"], r["ci_hi"]) for r in pair_rows] == [
        (1, -10.0, None, None), (1, 0.0, None, None), (1, 1.0, None, None)]


def test_aggregate_has_no_pairs_without_proposed():
    cells = {(60, s, meth): _cell(s + 1) for s in (0, 1) for meth in ("ga", "greedy")}
    means, _, _, pair_rows, _ = cli._aggregate(cells, [60], [0, 1], ["ga", "greedy"])
    assert list(means) == [(60, "ga"), (60, "greedy")]
    assert pair_rows == []


def test_aggregate_has_fleet_growth_only_over_two_or_more_sensor_counts():
    """Growth is the mean fleet at the last sensor count over the first, for
    each method planned at both; a single count gives none."""
    cells = {(60, 0, "proposed"): _cell(2), (120, 0, "proposed"): _cell(3),
             (60, 0, "greedy"): _cell(2)}
    assert cli._aggregate(cells, [60], [0], ["proposed", "greedy"])[4] == {}
    growth = cli._aggregate(cells, [60, 120], [0], ["proposed", "greedy"])[4]
    assert growth == {"proposed": 1.5}


def test_compare_calls_every_layer_through_the_cli_names(tmp_path, monkeypatch):
    """The benchmark's tracer wraps these seven names on ``firewatch.cli``
    to time compare's layers, so a cell must look each one up there when it
    runs: a call that bypassed one would read 0 seconds for its layer
    without failing anything."""
    names = ("generate", "plan_scenario", "greedy_plan", "ga_plan", "pso_plan",
             "all_responses", "mean_response")
    calls = dict.fromkeys(names, 0)

    def spy(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    for name in names:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    assert main(["compare", "--methods", "proposed,ga,pso,greedy", "--sensors", "30",
                 "--seeds", "1", "--ga-pop", "4", "--ga-gens", "2", "--pso-swarm", "4",
                 "--pso-iters", "2", "-o", str(tmp_path)]) == 0
    assert [name for name, count in calls.items() if count == 0] == []


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


@pytest.mark.parametrize("flags,named", [
    (["--sensors", "100"], "--sensors"),
    (["--edges", "9"], "--edges"),
    (["--sensors", "100", "--edges", "9"], "--sensors, --edges"),
])
def test_compare_rejects_a_scenario_file_with_generator_flags(small_files, tmp_path, capsys,
                                                              flags, named):
    scen, _ = small_files
    rc = main(["compare", "-s", str(scen), *flags, "--methods", "greedy", "--seeds", "1",
               "-o", str(tmp_path / "c")])
    assert rc == 4
    assert capsys.readouterr().err == (
        "error: -s/--scenario fixes the sensors and edges; it cannot be combined with "
        f"{named}\n")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("config", ["headline", "scalability"])
def test_config_generator_keys_yield_to_a_scenario_file(small_files, tmp_path, capsys,
                                                        config):
    """A shipped config's sensors or sweep key is not a flag the user typed:
    with -s it yields to the fixed scenario, whose 40 sensors are planned."""
    scen, _ = small_files
    cfg = Path(__file__).resolve().parents[1] / "scripts" / f"{config}.cfg"
    out = tmp_path / "c"
    rc = main(["compare", "--config", str(cfg), "-s", str(scen), "--seeds", "1",
               "--ga-pop", "4", "--ga-gens", "1", "--pso-swarm", "2", "--pso-iters", "1",
               "-o", str(out)])
    assert rc == 0, capsys.readouterr().err
    with open(out / "means.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["n_sensors"], r["method"]) for r in rows] == [
        ("40", m) for m in ("proposed", "ga", "pso", "greedy")]


def test_typed_generator_flag_with_a_config_and_scenario_file(small_files, tmp_path, capsys):
    """--sensors typed on the command line is still an error with -s, and the
    message names it alone, not the config file's keys."""
    scen, _ = small_files
    cfg = Path(__file__).resolve().parents[1] / "scripts" / "headline.cfg"
    rc = main(["compare", "--config", str(cfg), "--sensors", "100", "-s", str(scen),
               "--seeds", "1", "-o", str(tmp_path / "c")])
    assert rc == 4
    assert capsys.readouterr().err == (
        "error: -s/--scenario fixes the sensors and edges; it cannot be combined with "
        "--sensors\n")
    assert not (tmp_path / "c").exists()


def test_compare_exits_3_when_a_cell_has_no_plan(tmp_path, capsys):
    """No method plans the capacity wall, so its one cell has no plan."""
    rc = main(["compare", "-s", str(_capacity_wall(tmp_path)), "--methods", "proposed,greedy",
               "--seeds", "1", "-o", str(tmp_path / "out")])
    assert rc == 3
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert [f["method"] for f in summary["failures"]] == ["proposed", "greedy"]
    assert "compare: 0/2 cells ok, 2 failures" in capsys.readouterr().out


def test_compare_records_a_method_failure_where_another_plans(tmp_path, capsys):
    """A GA with no generations finds no feasible plan, but the proposed
    planner plans the cell, so compare exits 0 and records GA's failure."""
    rc = main(["compare", "--methods", "proposed,ga", "--seeds", "1", "--ga-pop", "2",
               "--ga-gens", "0", "-o", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [(f["method"], f["seed"]) for f in summary["failures"]] == [("ga", 0)]
    assert list(summary["means"]) == ["n=200,method=proposed"]
    assert "compare: 1/2 cells ok, 1 failures" in capsys.readouterr().out


def test_compare_zero_seeds(tmp_path, capsys):
    rc = main(["compare", "--methods", "greedy", "--seeds", "0",
               "-o", str(tmp_path)])
    assert rc == 4
    assert capsys.readouterr().out == ""    # no table


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


def test_config_file_repeated_key(tmp_path, capsys):
    """A key given twice is a usage error naming it and both lines, not a
    silent last-one-wins."""
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("seed = 1\n# comment\nsensors = 30\nseed = 2\n")
    rc = main(["generate", "--config", str(cfg), "-o", str(tmp_path / "x.json")])
    assert rc == 2
    assert f"config key 'seed' given twice in {cfg}, lines 1 and 4" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_config_file_not_utf8(tmp_path, capsys):
    """A config file that is not UTF-8 is a bad file: exit 1 naming it."""
    cfg = tmp_path / "gen.cfg"
    cfg.write_bytes(b"seed = 1\n\xff\n")
    rc = main(["generate", "--config", str(cfg), "-o", str(tmp_path / "x.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_config_file_missing(tmp_path):
    rc = main(["generate", "--config", str(tmp_path / "nope.cfg"),
               "-o", str(tmp_path / "x.json")])
    assert rc == 1


def _run_in_fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    src = str(Path(firewatch.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_scipy_stats_unloaded():
    """Importing the CLI loads no scipy module at all: only compare's CIs use
    scipy, and they import it when they first need it."""
    done = _run_in_fresh_interpreter(
        "import sys, firewatch.cli; "
        "sys.exit(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')) or None)")
    assert done.returncode == 0, done.stderr


def test_compare_computes_its_cis_without_loading_scipy_stats(tmp_path):
    """A compare over two seeds computes t intervals, and takes the quantile
    from scipy.special: scipy.stats, three times its memory, stays unloaded."""
    out = tmp_path / "c"
    done = _run_in_fresh_interpreter(
        "import sys; from firewatch.cli import main; "
        "rc = main(['compare', '--methods', 'greedy', '--sensors', '40', '--seeds', '2', "
        f"'-o', {str(out)!r}]); "
        "sys.exit(rc or ('scipy.stats' in sys.modules and 'scipy.stats loaded') "
        "or ('scipy.special' not in sys.modules and 'scipy.special not loaded') or None)")
    assert done.returncode == 0, done.stderr
    agg = json.loads((out / "summary.json").read_text())["means"]["n=40,method=greedy"]
    assert agg["seeds_ok"] == 2 and len(agg["response_ci"]) == 2


def test_cli_import_leaves_multiprocessing_unloaded():
    """The GA/PSO worker pool is imported at its first use, not with the
    CLI."""
    src = str(Path(firewatch.__file__).resolve().parents[1])
    code = ("import sys, firewatch, firewatch.cli; sys.exit(' '.join({'multiprocessing', "
            "'concurrent.futures.process'} & set(sys.modules)) or None)")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def _compare_in_own_session(out_dir, *flags):
    """``firewatch compare --methods ga,pso`` on 100 sensors as the leader
    of a new session, so the session id finds every process it starts."""
    src = str(Path(firewatch.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, "-m", "firewatch.cli", "compare", "--methods", "ga,pso",
         "--sensors", "100", *flags, "-o", str(out_dir)],
        env=dict(os.environ, PYTHONPATH=src), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def test_compare_leaves_no_process_running(tmp_path):
    run = _compare_in_own_session(tmp_path, "--seeds", "2", "--ga-pop", "16",
                                  "--ga-gens", "12", "--pso-swarm", "10", "--pso-iters", "15")
    _, err = run.communicate(timeout=300)
    assert run.returncode == 0, err
    assert not processes_where("session", run.pid)
    assert "Exception ignored" not in err and "Traceback" not in err, err


@pytest.mark.skipif(search_workers() == 1, reason="one usable CPU searches in process")
def test_compare_interrupted_mid_search_ends_promptly(tmp_path):
    run = _compare_in_own_session(tmp_path, "--seeds", "3")
    # the GA search is under way once the workers are up
    deadline = time.monotonic() + 120
    while len(processes_where("session", run.pid)) < 2 and run.poll() is None:
        assert time.monotonic() < deadline, "no worker process started"
        time.sleep(0.02)
    time.sleep(0.3)     # past the workers' start, into the search
    assert run.poll() is None, "compare ended before it could be interrupted"
    os.killpg(run.pid, signal.SIGINT)      # as ctrl-C does
    sent = time.monotonic()
    _, err = run.communicate(timeout=60)
    assert time.monotonic() - sent < 10
    assert run.returncode == 130, err
    assert "Traceback" not in err, err
    assert not processes_where("session", run.pid)


def test_compare_writes_the_same_files_on_two_cpus_as_on_one(tmp_path, monkeypatch):
    """compare runs its cells on threads over two workers, or with one
    usable CPU in order in the calling thread, which starts no thread and no
    process; every file is the same byte for byte but the planning times,
    the GA failures in the same order."""
    argv = ["compare", "--methods", "proposed,ga,pso,greedy", "--seeds", "3",
            "--sweep-sensors", "120:150:30", "--ga-pop", "6", "--ga-gens", "2",
            "--pso-swarm", "6", "--pso-iters", "4"]
    seen = []      # (threads, child processes) at each GA call

    def ga_plan_seen(*args, **kwargs):
        seen.append((threading.active_count(), tuple(processes_where("ppid", os.getpid()))))
        return ga_plan(*args, **kwargs)

    def run(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        out = tmp_path / f"cpus{cpus}"
        assert main(argv + ["-o", str(out)]) == 0
        files = {name: (out / name).read_bytes()
                 for name in ("means.csv", "cdf.csv", "pairwise.csv", "summary.json")}
        files["means.csv"] = without_column(files["means.csv"], "planning_time_s_mean")
        return files

    monkeypatch.setattr(cli, "ga_plan", ga_plan_seen)
    two = run(2)
    assert max(threads for threads, _ in seen) > 2     # compare's, the pool's and this one
    baselines._shutdown_pool()
    threads = threading.active_count()
    seen.clear()
    assert run(1) == two
    assert seen and set(seen) == {(threads, ())}
    failures = json.loads(two["summary.json"])["failures"]
    assert [(f["n_sensors"], f["seed"], f["method"]) for f in failures] == [
        (120, 0, "ga"), (150, 0, "ga"), (150, 1, "ga")]


def test_an_error_in_one_cell_stops_the_running_cells_and_cancels_the_queued():
    """On two threads: once a cell's error reaches compare, the stop event
    is set for the cells running, the queued ones never start, and the
    error propagates."""
    ran = []

    def cell(stop):
        ran.append(stop.wait(10))

    def failing(stop):
        raise RuntimeError("cell failed")

    with pytest.raises(RuntimeError, match="cell failed"):
        cli._run_cells([cell, failing] + [cell] * 8, 2)
    # the first cell, and the next one if the failed cell's thread took it
    # before the queue was cancelled
    assert ran[:1] == [True] and set(ran) == {True} and len(ran) <= 2


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
                                     ["compare", "--methods", "proposed", "--seeds", "1",
                                      "--sweep-sensors", "20:40:20"],
                                     ["compare", "--methods", "proposed", "--seeds", "1",
                                      "--sensors", "20"]])
def test_non_finite_algorithm_flag_is_a_usage_error(tmp_path, capsys, command, flag,
                                                    field, value):
    rc = main(command + [flag, value, "-o", str(tmp_path / "out")])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_SIMULATE = ["simulate", "-s", "x.json", "-p", "p.json"]


@pytest.mark.parametrize("flag,value", [("--omega-h", "9"), ("--omega-l", "0.5"),
                                        ("--lam", "5"), ("--epsilon-m", "1"),
                                        ("--fleet-init", "coverage")])
def test_simulate_takes_no_planning_flag(tmp_path, capsys, flag, value):
    """simulate reads only --seed and --theta-max of the algorithm flags; the
    five that only planning reads are unrecognized arguments."""
    rc = main(_SIMULATE + [flag, value, "-o", str(tmp_path / "out")])
    assert rc == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    pytest.param(["plan", "-s", "x.json"], id="plan"),
    pytest.param(["compare", "--methods", "greedy", "--seeds", "1"], id="compare"),
    pytest.param(_SIMULATE, id="simulate")])
def test_the_distance_weight_is_no_setting(tmp_path, capsys, command):
    """The distance weight is 1 - --omega-l, worked out, not asked for:
    --omega-d is an unrecognized argument and omega_d an unknown config key
    on every subcommand."""
    rc = main(command + ["--omega-d", "0.7", "-o", str(tmp_path / "out")])
    assert rc == 2
    assert "unrecognized arguments: --omega-d 0.7" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega_d = 0.7\n")
    rc = main(command + ["--config", str(cfg), "-o", str(tmp_path / "out")])
    assert rc == 2
    assert f"unknown config key 'omega_d' in {cfg}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["plan", "-s", "x.json"],
                                     ["compare", "--methods", "greedy", "--seeds", "1"]])
def test_planning_takes_no_theta_max(tmp_path, capsys, command):
    """plan and compare never read the delivery cap: --theta-max is an
    unrecognized argument there, and theta_max an unknown config key."""
    rc = main(command + ["--theta-max", "0.5", "-o", str(tmp_path / "out")])
    assert rc == 2
    assert "unrecognized arguments: --theta-max 0.5" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta_max = 0.5\n")
    rc = main(command + ["--config", str(cfg), "-o", str(tmp_path / "out")])
    assert rc == 2
    assert f"unknown config key 'theta_max' in {cfg}" in capsys.readouterr().err
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


def test_simulate_rejects_a_direct_sensor_out_of_its_edges_range(tmp_path, capsys):
    """Sensor 35, first on route 0, moved to edge 0's direct sensors, 1598 m
    away with r_se = 500 m, and route 0, its waypoint positions and the two
    edge loads recomputed to match: every other check passes, and
    ``simulate`` exits 1 naming the direct-map entry."""
    scen, out = tmp_path / "scenario.json", tmp_path / "plan"
    assert main(["generate", "--sensors", "40", "--edges", "3", "--seed", "2",
                 "-o", str(scen)]) == 0
    assert main(["plan", "-s", str(scen), "--method", "ga", "--ga-pop", "3", "--ga-gens", "2",
                 "-o", str(out)]) == 0
    capsys.readouterr()
    sc, doc = load_scenario(str(scen)), json.loads((out / "plan.json").read_text())
    route, loads = doc["routes"][0], doc["assignment"]["loads_mips"]
    sid, edge = route["waypoints"].pop(0), route["depot_edge_id"]
    assert sid == 35 and edge != 0
    route["waypoint_xy"].pop(0)
    again = ordered_route(0, edge, route["waypoints"], sc)
    route.update(length_m=again.length_m, revisit_s=again.revisit_s,
                 energy_wh=again.energy_wh)
    del doc["clustering"]["assignment"][str(sid)]
    doc["assignment"]["direct_map"][str(sid)] = 0
    demand = float(sc.beta_mi[sid]) / sc.physical.t_period_s
    loads[edge] -= demand
    loads[0] += demand
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["simulate", "-s", str(scen), "-p", str(bad), "-o", str(tmp_path / "sim")])
    assert rc == 1
    assert capsys.readouterr().err == ('error: plan assignment.direct_map["35"]: sensor 35 is '
                                       '1598 m from edge 0, beyond r_se = 500 m\n')
    assert not (tmp_path / "sim").exists()


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


# input files the JSON decoder cannot read: not UTF-8 (a UTF-16 byte-order
# mark), nested past the recursion limit, an integer literal past the
# int-from-string digit limit, and cut off mid-object
UNREADABLE = {
    "utf16-bom": b"\xff\xfe{\x00}\x00",
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
    "long-integer": b'{"schema_version": ' + b"1" * 5000 + b"}",
    "truncated": b'{"schema_version": 1, ',
}


@pytest.mark.parametrize("text", list(UNREADABLE.values()), ids=list(UNREADABLE))
@pytest.mark.parametrize("kind", ["scenario", "plan", "events"])
def test_unreadable_input_file_exits_1_naming_it(small_files, tmp_path, capsys, kind, text):
    """A scenario, plan or events file the decoder cannot read exits 1 with
    one line naming that file, not a traceback."""
    scen, plan_dir = small_files
    bad = tmp_path / f"{kind}.json"
    bad.write_bytes(text)
    argv = {"scenario": ["plan", "-s", str(bad)],
            "plan": ["simulate", "-s", str(scen), "-p", str(bad)],
            "events": ["simulate", "-s", str(scen), "-p", str(plan_dir / "plan.json"),
                       "--events", str(bad)]}[kind]
    rc = main(argv + ["-o", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err[:500]
    assert "Traceback" not in err


# a schema_version no reader accepts, whose repr would fill a screen
LONG_VALUES = {
    "long-string": "x" * 100_000,
    "deep-array": json.loads("[" * 900 + "]" * 900),
}


@pytest.mark.parametrize("value", list(LONG_VALUES.values()), ids=list(LONG_VALUES))
def test_a_long_bad_value_is_cut_in_the_message(tmp_path, capsys, value):
    """The value echoed in an error message is cut to about a line: one
    stderr line under 200 characters that still names the field."""
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps({"schema_version": value}))
    rc = main(["plan", "-s", str(bad), "-o", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200, err[:500]
    assert err.startswith("error: schema_version: ") and err.rstrip().endswith("...")
    assert "Traceback" not in err


def test_a_long_center_row_is_cut_in_the_message(small_files, tmp_path, capsys):
    """A plan center of 100,000 numbers, not an [x, y] pair, is named in one
    short line."""
    scen, plan_dir = small_files
    doc = json.loads((plan_dir / "plan.json").read_text())
    doc["clustering"]["centers"][0] = [1.0] * 100_000
    bad = tmp_path / "plan.json"
    bad.write_text(json.dumps(doc))
    rc = main(["simulate", "-s", str(scen), "-p", str(bad), "-o", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: plan clustering.centers[0]: expected an [x, y] pair, got ")
    assert err.count("\n") == 1 and len(err) < 200, err[:500]


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
    pytest.param(_SIMULATE + ["--theta-max", "1.5"], 2,
                 "--theta-max 1.5: theta_max must be in (0, 1], got 1.5", id="simulate-theta-max"),
    pytest.param(["plan", "-s", "x.json", "--omega-l", "1.5"], 2,
                 "--omega-l 1.5: omega_l must be in [0, 1], got 1.5", id="plan-omega-l"),
    pytest.param(_COMPARE + ["--omega-l", "-0.5"], 2,
                 "--omega-l -0.5: omega_l must be in [0, 1], got -0.5", id="compare-omega-l"),
    pytest.param(["generate", "--seed", "-1"], 2,
                 "--seed -1: seed must be in [0, 2^63), got -1", id="generate-seed-negative"),
    pytest.param(["generate", "--seed", str(2 ** 63)], 2,
                 f"--seed {2 ** 63}: seed must be in [0, 2^63), got {2 ** 63}",
                 id="generate-seed-past-int64"),
    pytest.param(["generate", "--fire-history-max", str(2 ** 63)], 2,
                 f"--fire-history-max {2 ** 63}: fire_history_max must be in [1, 2^63), "
                 f"got {2 ** 63}", id="generate-fire-history-max-past-int64"),
    pytest.param(["plan", "-s", "x.json", "--seed", str(2 ** 63)], 2,
                 f"--seed {2 ** 63}: seed must be in [-2^63, 2^63), got {2 ** 63}",
                 id="plan-seed-past-int64"),
    pytest.param(_COMPARE + ["--seed", str(-2 ** 63 - 1)], 2,
                 f"--seed {-2 ** 63 - 1}: seed must be in [-2^63, 2^63), got {-2 ** 63 - 1}",
                 id="compare-seed-past-int64"),
    pytest.param(_SIMULATE + ["--seed", str(2 ** 63)], 2,
                 f"--seed {2 ** 63}: seed must be in [-2^63, 2^63), got {2 ** 63}",
                 id="simulate-seed-past-int64"),
    pytest.param(_COMPARE + ["--sweep-sensors", "a:b:c"], 4,
                 "--sweep-sensors a:b:c: must be START:STOP:STEP, three integers",
                 id="compare-sweep-not-integers"),
    pytest.param(_COMPARE + ["--sweep-sensors", "5:10"], 4,
                 "--sweep-sensors 5:10: must be START:STOP:STEP, three integers",
                 id="compare-sweep-two-parts"),
    pytest.param(_COMPARE + ["--sweep-sensors", "10:5:1"], 4,
                 "--sweep-sensors 10:5:1: need 1 <= START <= STOP and STEP >= 1",
                 id="compare-sweep-descending"),
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


def test_the_extreme_accepted_seeds_round_trip(tmp_path, capsys):
    """A seed at either end of the int64 range that generate and plan take
    gives files the next command reads: generate at 2^63 - 1 and plan at
    -2^63, then simulate, each exit 0; one past each end exits 2 naming the
    flag, with nothing written."""
    top, bottom = str(2 ** 63 - 1), str(-2 ** 63)
    scen, out, sim = tmp_path / "s.json", tmp_path / "plan", tmp_path / "sim"
    assert main(["generate", "--sensors", "30", "--edges", "3", "--seed", top,
                 "-o", str(scen)]) == 0
    assert json.loads(scen.read_text())["meta"]["seed"] == 2 ** 63 - 1
    assert main(["plan", "-s", str(scen), "--seed", bottom, "-o", str(out)]) == 0
    assert json.loads((out / "plan.json").read_text())["seed"] == -2 ** 63
    assert main(["simulate", "-s", str(scen), "-p", str(out / "plan.json"), "--seed", bottom,
                 "-o", str(sim)]) == 0
    capsys.readouterr()
    past = tmp_path / "past"
    for argv, value in ((["generate", "-o", str(past / "s.json")], 2 ** 63),
                        (["plan", "-s", str(scen), "-o", str(past)], -2 ** 63 - 1)):
        assert main(argv + ["--seed", str(value)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --seed {value}: seed must be in ")
    assert not past.exists()


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
