"""The benchmark's output checkers on hand-made cases whose answer is known,
and on real program output, which they must accept."""

from __future__ import annotations

import csv
import json
import math
from types import SimpleNamespace

import pytest

import checks
from firewatch.clustering import Clustering
from firewatch.edge_assignment import Assignment, EdgeLoadState
from firewatch.emergency import EmergencyTrace, NormalImpactReport, generate_events, simulate
from firewatch.model import AlgoParams, EdgeNode, PhysicalParams, Point2D, RequestProfile, Sensor
from firewatch.planner import Plan, plan
from firewatch.routing import Route
from firewatch.scenario import GenConfig, Scenario, ScenarioMeta, generate

# a 4 km square of UAV-served sensors around one edge at the origin, plus one
# sensor in direct range of that edge; r_se = r_sg = 500 m by default
SQUARE = [(2000.0, 0.0), (2000.0, 2000.0), (0.0, 2000.0)]


def _scenario(capacity=10000.0) -> Scenario:
    sensors = [Sensor(0, Point2D(100.0, 0.0), 10, RequestProfile(1.25, 500.0))]
    sensors += [Sensor(i + 1, Point2D(x, y), 60, RequestProfile(2.5, 360.0))
                for i, (x, y) in enumerate(SQUARE)]
    edges = (EdgeNode(0, Point2D(0.0, 0.0), capacity),)
    return Scenario(PhysicalParams(), tuple(sensors), edges, ScenarioMeta(0, (), ()))


def _plan(sc: Scenario, waypoints=(1, 2, 3), length=None) -> Plan:
    p = sc.physical
    pts = [(sc.sensors[i].pos.x, sc.sensors[i].pos.y) for i in waypoints]
    if length is None:
        length = checks.tour_length((0.0, 0.0), pts)
    energy = checks.route_energy_wh(length, [2.5] * len(waypoints), p)
    route = Route(0, 0, tuple(waypoints), length, length / p.v_g, energy)
    members = sorted({1, 2, 3})
    w = [1.0 + 1.5 * 60] * 3
    centre = (sum(wi * sc.sensors[i].pos.x for wi, i in zip(w, members)) / sum(w),
              sum(wi * sc.sensors[i].pos.y for wi, i in zip(w, members)) / sum(w))
    clustering = Clustering(1, {1: 0, 2: 0, 3: 0}, (centre,), 1)
    load = EdgeLoadState([(500.0 + 3 * 360.0) / p.t_period_s], [sc.edges[0].capacity_mips])
    return Plan(1, clustering, Assignment({0: 0}, {0: 0}, load), (route,), 0.0,
                "proposed", "full", 0)


def test_crossed_tour_has_an_improving_two_opt_move():
    crossed = [(10.0, 10.0), (10.0, 0.0), (0.0, 10.0)]
    assert checks.improving_two_opt_moves((0.0, 0.0), crossed)
    assert checks.improving_two_opt_moves((0.0, 0.0), [(10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]) == []


def test_sound_plan_passes():
    sc = _scenario()
    assert checks.check_plan(_plan(sc), sc, omega_h=1.5, two_opt=True) == []


def test_crossed_route_fails_the_two_opt_check_only_for_two_opt_plans():
    sc = _scenario()
    pl = _plan(sc, waypoints=(2, 1, 3))
    assert any("2-opt" in e for e in checks.check_plan(pl, sc, 1.5, two_opt=True))
    assert checks.check_plan(pl, sc, 1.5, two_opt=False) == []


@pytest.mark.parametrize("fault, words", [
    ("missing", "exactly"),
    ("length", "recomputation"),
    ("capacity", "capacity"),
])
def test_faulty_plans_fail(fault, words):
    sc = _scenario(capacity=0.2 if fault == "capacity" else 10000.0)
    pl = {"missing": lambda: _plan(sc, waypoints=(1, 2)),
          "length": lambda: _plan(sc, length=7000.0),
          "capacity": lambda: _plan(sc)}[fault]()
    assert any(words in e for e in checks.check_plan(pl, sc, 1.5, two_opt=True))


def test_five_term_response_by_hand():
    sc = _scenario()
    pl = _plan(sc)
    resp = checks.sensor_responses(pl, sc)
    # direct: 1.25 MB * 8 / 10 Mbps + 500 MI / 10000 MIPS
    assert resp[0] == pytest.approx(1.0 + 0.05)
    # UAV: 2 s upload + 0.036 s compute + (8000 m / 15 - 1000 m / 15) / 2 wait
    # + centre (4000/3, 4000/3) to edge at 15 m/s
    ferry = math.hypot(4000.0 / 3, 4000.0 / 3) / 15.0
    assert resp[1] == pytest.approx(2.0 + 0.036 + 7000.0 / 30.0 + ferry)
    mean = sum(resp.values()) / 4
    assert checks.check_mean_response(pl, sc, mean) == []
    assert checks.check_mean_response(pl, sc, mean * 1.001)


def _trace(seq, alert, prio, start, uav=0):
    return SimpleNamespace(event_seq=seq, alert_time_s=alert, priority=prio,
                           uav_id=uav, t_queue_s=start - alert)


def test_dispatch_out_of_priority_order_fails():
    # the UAV frees at t=100 with both alerts waiting: priority 90 goes first
    good = [_trace(0, 0.0, 10, 500.0), _trace(1, 1.0, 90, 100.0)]
    bad = [_trace(0, 0.0, 10, 100.0), _trace(1, 1.0, 90, 500.0)]
    assert checks.dispatch_order_errors(good) == []
    assert checks.dispatch_order_errors(bad)


def test_dispatch_out_of_fifo_order_fails():
    good = [_trace(0, 0.0, 50, 100.0), _trace(1, 1.0, 50, 500.0)]
    bad = [_trace(0, 0.0, 50, 500.0), _trace(1, 1.0, 50, 100.0)]
    assert checks.dispatch_order_errors(good) == []
    assert checks.dispatch_order_errors(bad)


def test_later_alert_does_not_constrain_an_earlier_dispatch():
    traces = [_trace(0, 0.0, 10, 0.0), _trace(1, 5.0, 90, 100.0)]
    assert checks.dispatch_order_errors(traces) == []


def test_queue_profile_by_hand():
    traces = [_trace(0, 0.0, 1, 0.0), _trace(1, 1.0, 1, 5.0), _trace(2, 2.0, 1, 6.0)]
    assert checks.queue_profile(traces) == (2, 4.0)


def _emergency_trace(sc, pl, seq, alert, queue, **over):
    """A dispatch of the route's UAV from the depot to sensor 1 (2000, 0)."""
    fields = dict(event_seq=seq, sensor_id=1, alert_time_s=alert, priority=60, uav_id=0,
                  edge_id=0, t_queue_s=queue, t_dispatch_travel_s=2000.0 / 15.0,
                  t_tra_s=2.0, t_delivery_travel_s=2000.0 / 15.0, t_exe_s=0.036,
                  response_time_s=0.0, resume_waypoint=0, deadline_met=False,
                  delivery_fallback=False, served_direct=False)
    fields.update(over)
    fields["response_time_s"] = (fields["t_queue_s"] + fields["t_dispatch_travel_s"]
                                 + fields["t_tra_s"] + fields["t_delivery_travel_s"]
                                 + fields["t_exe_s"])
    return EmergencyTrace(**fields)


def _sim(traces, delta=0.0):
    return SimpleNamespace(traces=tuple(traces),
                           impact=NormalImpactReport(100.0, 100.0 + delta, delta, delta / 100))


def _events(traces):
    return [SimpleNamespace(sensor_id=t.sensor_id, alert_time_s=t.alert_time_s)
            for t in traces]


def test_sound_simulation_passes():
    sc = _scenario()
    pl = _plan(sc)
    # service: 2000/15 out + 2 + 2000/15 to the edge + 2000/15 back to waypoint 0
    busy = 3 * 2000.0 / 15.0 + 2.0
    traces = [_emergency_trace(sc, pl, 0, 0.0, 0.0),
              _emergency_trace(sc, pl, 1, 10.0, busy - 10.0)]
    assert checks.check_simulation(_sim(traces), pl, sc, _events(traces), 0.8) == []


@pytest.mark.parametrize("fault, words", [
    ("overlap", "before its previous service ended"),
    ("stage_sum", "sum of its stage times"),
    ("travel", "differ from recomputation"),
    ("impact", "delta_s"),
])
def test_faulty_simulations_fail(fault, words):
    sc = _scenario()
    pl = _plan(sc)
    busy = 3 * 2000.0 / 15.0 + 2.0
    second = busy - 10.0 - (50.0 if fault == "overlap" else 0.0)
    traces = [_emergency_trace(sc, pl, 0, 0.0, 0.0),
              _emergency_trace(sc, pl, 1, 10.0, second)]
    if fault == "stage_sum":
        traces[1] = EmergencyTrace(**{**traces[1].__dict__,
                                      "response_time_s": traces[1].response_time_s + 1})
    if fault == "travel":
        traces[1] = _emergency_trace(sc, pl, 1, 10.0, second, t_delivery_travel_s=100.0)
    result = _sim(traces, delta=-1.0 if fault == "impact" else 0.0)
    errors = checks.check_simulation(result, pl, sc, _events(traces), 0.8)
    assert len(errors) == 1 and words in errors[0]


def _write_compare(tmp_path, cdf_b=(1.0, 3.0), mean_b=2.0, diff=-1.0, failures=()):
    (tmp_path / "summary.json").write_text(json.dumps({"failures": list(failures)}))
    rows = [("proposed", 1.0, 10.0, 1.0), ("b", mean_b, 20.0, 2.0)]
    with open(tmp_path / "means.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "seeds_ok", "mean_response_s", "total_energy_wh", "fleet"])
        for meth, resp, energy, fleet in rows:
            w.writerow([meth, 2, resp, energy, fleet])
    with open(tmp_path / "cdf.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "response_s", "cum_fraction"])
        for meth, xs in (("proposed", (0.5, 1.5)), ("b", cdf_b)):
            for i, x in enumerate(xs):
                w.writerow([meth, x, (i + 1) / 2])
    with open(tmp_path / "pairwise.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["metric", "baseline", "mean_diff"])
        w.writerow(["mean_response_s", "b", diff])
        w.writerow(["total_energy_wh", "b", -10.0])
        w.writerow(["fleet", "b", -1.0])


def _compare_errors(tmp_path, **kw):
    _write_compare(tmp_path, **kw)
    return checks.check_compare(str(tmp_path), ["proposed", "b"], n_seeds=2, n_sensors=1)


def test_sound_compare_outputs_pass(tmp_path):
    assert _compare_errors(tmp_path) == []


@pytest.mark.parametrize("kw, words", [
    ({"cdf_b": (3.0, 1.0)}, "not monotone"),
    ({"mean_b": 2.5}, "CDF mean differs"),
    ({"diff": -0.5}, "difference of means"),
    ({"failures": [{"method": "b"}]}, "cells failed"),
])
def test_faulty_compare_outputs_fail(tmp_path, kw, words):
    errors = _compare_errors(tmp_path, **kw)
    assert any(words in e for e in errors)


def test_real_plan_and_simulation_pass():
    sc = generate(GenConfig(n_sensors=40, n_edges=3, seed=7))
    algo = AlgoParams(seed=7)
    pl = plan(sc, algo)
    assert checks.check_plan(pl, sc, algo.omega_h, two_opt=True) == []
    events = generate_events(sc, pl, 5, 86400.0, seed=3)
    result = simulate(pl, sc, events, 86400.0, algo)
    assert checks.check_simulation(result, pl, sc, events, algo.theta_max) == []
