import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from firewatch.clustering import Clustering
from firewatch.edge_assignment import Assignment, EdgeLoadState
from firewatch.model import AlgoParams, PhysicalParams
from firewatch.planner import Plan
from firewatch.routing import Route
from firewatch.timing import (
    execution_time,
    expected_wait,
    mean_response,
    moving_time,
    response_time,
    transmission_time,
)
from testutil import build_scenario


def test_transmission_time_examples():
    assert transmission_time(5.0, 10.0) == pytest.approx(4.0)
    assert transmission_time(0.0, 10.0) == 0.0
    assert transmission_time(1.0, 8.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        transmission_time(1.0, 0.0)


def test_execution_time_examples():
    assert execution_time(500.0, 5000.0) == pytest.approx(0.1)
    assert execution_time(100.0, 10000.0) == pytest.approx(0.01)
    assert execution_time(0.0, 5000.0) == 0.0
    with pytest.raises(ValueError):
        execution_time(100.0, 0.0)


def test_expected_wait_examples():
    p = PhysicalParams()
    assert expected_wait(9000.0, p) == pytest.approx((600.0 - 200.0 / 3.0) / 2.0)
    assert expected_wait(9000.0, p) == pytest.approx(266.667, abs=1e-3)
    # revisit equal to the contact window -> no wait
    assert expected_wait(1000.0, p) == 0.0
    assert expected_wait(0.0, p) == 0.0
    with pytest.raises(ValueError):
        expected_wait(-1.0, p)


@given(st.floats(0, 1e6), st.floats(0, 1e6))
def test_expected_wait_monotone(l1, l2):
    p = PhysicalParams()
    lo, hi = sorted([l1, l2])
    assert expected_wait(lo, p) <= expected_wait(hi, p) + 1e-9


def test_moving_time_examples():
    assert moving_time(3000.0, 15.0) == pytest.approx(200.0)
    assert moving_time(0.0, 15.0) == 0.0
    assert moving_time(1500.0, 15.0) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        moving_time(10.0, 0.0)


def _hand_plan(scenario, *, direct_map, cluster_assignment, centers, routes,
               cluster_map):
    load = EdgeLoadState([0.0] * len(scenario.edges),
                         [e.capacity_mips for e in scenario.edges])
    return Plan(
        m=len(routes),
        clustering=Clustering(m=len(routes), assignment=cluster_assignment,
                              centers=centers, iterations_run=1),
        assignment=Assignment(direct_map=direct_map, cluster_map=cluster_map,
                              load=load),
        routes=routes, planning_time_s=0.0, method="proposed", variant="full",
        seed=0)


def test_response_time_direct_path():
    sc = build_scenario([(100.0, 0.0, 0, 2.0, 200.0)], [(0.0, 0.0, 8000.0)])
    pl = _hand_plan(sc, direct_map={0: 0}, cluster_assignment={}, centers=(),
                    routes=(), cluster_map={})
    r = response_time(0, pl, sc)
    assert r.path_kind == "direct"
    assert r.t_tra_s == pytest.approx(1.6)
    assert r.t_exe_s == pytest.approx(0.025)
    assert r.t_wait_s == 0.0 and r.t_moving_s == 0.0 and r.t_lat_s == 0.0
    assert r.t_total_s == pytest.approx(1.625)


def test_response_time_uav_path():
    sc = build_scenario([(3000.0, 0.0, 0, 5.0, 500.0)], [(0.0, 0.0, 5000.0)])
    route = Route(uav_id=0, depot_edge_id=0, waypoints=(0,), length_m=9000.0,
                  revisit_s=600.0, energy_wh=1.0)
    pl = _hand_plan(sc, direct_map={}, cluster_assignment={0: 0},
                    centers=((1500.0, 0.0),), routes=(route,), cluster_map={0: 0})
    r = response_time(0, pl, sc)
    assert r.path_kind == "uav"
    assert r.t_wait_s == pytest.approx(266.667, abs=1e-3)
    assert r.t_moving_s == pytest.approx(100.0)   # center 1500 m from edge
    assert r.t_tra_s == pytest.approx(4.0)
    assert r.t_exe_s == pytest.approx(0.1)
    assert r.t_total_s == pytest.approx(370.767, abs=1e-3)


def test_response_time_per_hop_latency():
    p = PhysicalParams(per_hop_latency_s=0.5)
    sc = build_scenario([(100.0, 0.0, 0, 2.0, 200.0),
                         (3000.0, 0.0, 0, 5.0, 500.0)],
                        [(0.0, 0.0, 8000.0)], p)
    route = Route(0, 0, (1,), 9000.0, 600.0, 1.0)
    pl = _hand_plan(sc, direct_map={0: 0}, cluster_assignment={1: 0},
                    centers=((1500.0, 0.0),), routes=(route,), cluster_map={0: 0})
    assert response_time(0, pl, sc).t_lat_s == pytest.approx(0.5)
    assert response_time(1, pl, sc).t_lat_s == pytest.approx(1.0)


def test_response_time_unassigned_sensor_rejected():
    sc = build_scenario([(3000.0, 0.0, 0, 5.0, 500.0)], [(0.0, 0.0, 5000.0)])
    pl = _hand_plan(sc, direct_map={}, cluster_assignment={}, centers=(),
                    routes=(), cluster_map={})
    with pytest.raises(ValueError, match="sensor 0 is not assigned"):
        response_time(0, pl, sc)


def test_breakdown_additivity(default_plan, default_scenario):
    from firewatch.timing import all_responses, totals

    terms, cluster = all_responses(default_plan, default_scenario)
    for (t_lat, t_tra, t_exe, t_wait, t_moving), total, j in zip(
            terms.tolist(), totals(terms).tolist(), cluster.tolist()):
        assert total == t_lat + t_tra + t_exe + t_wait + t_moving
        assert min(t_lat, t_tra, t_exe, t_wait, t_moving) >= 0
        if j < 0:
            assert t_wait == 0.0 and t_moving == 0.0


def test_all_responses_matches_scalar_model(default_plan, default_scenario):
    """The table equals the five terms computed sensor by sensor with the
    scalar functions."""
    from firewatch.timing import all_responses

    sc, pl, p = default_scenario, default_plan, default_scenario.physical
    terms, cluster = all_responses(pl, sc)
    for s in sc.sensors:
        j = pl.clustering.assignment.get(s.id, -1)
        edge = sc.edges[pl.assignment.direct_map[s.id] if j < 0
                        else pl.assignment.cluster_map[j]]
        want = [p.per_hop_latency_s * (1.0 if j < 0 else 2.0),
                transmission_time(s.request.data_size_mb, p.data_rate_mbps),
                execution_time(s.request.compute_mi, edge.capacity_mips), 0.0, 0.0]
        if j >= 0:
            cx, cy = pl.clustering.centers[j]
            ferry = math.hypot(cx - edge.pos.x, cy - edge.pos.y)
            want[3:] = [expected_wait(pl.routes[j].length_m, p), moving_time(ferry, p.v_g)]
        assert (terms[s.id].tolist(), cluster[s.id]) == (want, j)


def test_mean_response_positive(default_plan, default_scenario):
    assert mean_response(default_plan, default_scenario) > 0.0


def test_all_responses_memo_returns_the_same_read_only_arrays(default_plan,
                                                              default_scenario):
    from firewatch.timing import all_responses

    terms, cluster = all_responses(default_plan, default_scenario)
    again = all_responses(default_plan, default_scenario)
    assert again[0] is terms and again[1] is cluster
    with pytest.raises(ValueError, match="read-only"):
        terms[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        cluster[0] = 0


def test_all_responses_memo_copies_get_fresh_equal_tables(tmp_path, default_plan,
                                                          default_scenario):
    """A copy of the plan and a reloaded scenario are other objects: they get
    a table of their own, with the same bits."""
    from firewatch.scenario import load_scenario, save_scenario
    from firewatch.timing import all_responses

    path = tmp_path / "scenario.json"
    save_scenario(default_scenario, str(path))
    terms, cluster = all_responses(default_plan, default_scenario)
    for pl, sc in ((replace(default_plan), default_scenario),
                   (default_plan, load_scenario(str(path)))):
        fresh, fresh_cluster = all_responses(pl, sc)
        assert fresh is not terms and fresh_cluster is not cluster
        assert fresh.tobytes() == terms.tobytes()
        assert fresh_cluster.tolist() == cluster.tolist()


def test_all_responses_memo_alternating_plans(default_plan, default_scenario,
                                              small_scenario):
    """Plans A, B, then A again: every table equals one built on copies."""
    from firewatch.planner import plan
    from firewatch.timing import all_responses

    pairs = [(default_plan, default_scenario),
             (plan(small_scenario, AlgoParams()), small_scenario)]
    for pl, sc in (pairs[0], pairs[1], pairs[0], pairs[1]):
        terms, cluster = all_responses(pl, sc)
        fresh, fresh_cluster = all_responses(replace(pl), replace(sc))
        assert terms.tobytes() == fresh.tobytes()
        assert cluster.tolist() == fresh_cluster.tolist()


def test_all_responses_memo_keeps_no_failed_call():
    """An unassigned sensor raises on every call, and the failure leaves the
    last good pair stored."""
    from firewatch.timing import all_responses

    sc = build_scenario([(3000.0, 0.0, 0, 5.0, 500.0)], [(0.0, 0.0, 5000.0)])
    route = Route(0, 0, (0,), 9000.0, 600.0, 1.0)
    good = _hand_plan(sc, direct_map={}, cluster_assignment={0: 0},
                      centers=((1500.0, 0.0),), routes=(route,), cluster_map={0: 0})
    bad = _hand_plan(sc, direct_map={}, cluster_assignment={}, centers=(),
                     routes=(), cluster_map={})
    terms, cluster = all_responses(good, sc)
    for _ in range(2):
        with pytest.raises(ValueError, match="sensor 0 is not assigned"):
            all_responses(bad, sc)
    again = all_responses(good, sc)
    assert again[0] is terms and again[1] is cluster
