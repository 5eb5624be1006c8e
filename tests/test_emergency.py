import dataclasses
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from firewatch.baselines import GaConfig, PsoConfig, ga_plan, greedy_plan, pso_plan
from firewatch.edge_assignment import EdgeLoadState, RepairFailure
from firewatch.model import MAX_V_G, AlgoParams, PhysicalParams, derive_seed
from firewatch.planner import InfeasibleError, plan, plan_at_fleet
from firewatch.scenario import GenConfig, generate, load_scenario, save_scenario
from firewatch.emergency import (
    MAX_HORIZON_S,
    EmergencyEvent,
    EmergencyTrace,
    RouteGeometry,
    emergency_response_bound,
    generate_events,
    load_events,
    resume_waypoint,
    save_events,
    select_delivery_edge,
    select_dispatch_uav,
    simulate,
    write_trace_csv,
)
from testutil import build_scenario, response_bound_oracle, simulate_oracle


def _square_geom():
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    return RouteGeometry(pts)


class TestRouteGeometry:
    def test_square_length_and_arcs(self):
        g = _square_geom()
        assert g.length_m == pytest.approx(40.0)
        assert g.arc_of_waypoint(0) == pytest.approx(10.0)
        assert g.arc_of_waypoint(2) == pytest.approx(30.0)

    def test_position_at_arc(self):
        g = _square_geom()
        assert g.position_at_arc(0.0) == (0.0, 0.0)
        assert g.position_at_arc(15.0) == (pytest.approx(10.0), pytest.approx(5.0))
        # wraps modulo the perimeter
        assert g.position_at_arc(55.0) == (pytest.approx(10.0), pytest.approx(5.0))

    @given(st.floats(0.0, 500.0), st.floats(0.0, 39.9))
    def test_speed_bound(self, t, phase):
        # a UAV at 10 m/s moves at most 2.5 m in 0.25 s along its loop
        g = _square_geom()
        ax, ay = g.position_at_arc(phase + 10.0 * t)
        bx, by = g.position_at_arc(phase + 10.0 * (t + 0.25))
        assert math.hypot(ax - bx, ay - by) <= 10.0 * 0.25 + 1e-9


def _oracle_geometry(points):
    """cum and length_m as the per-leg 1-D np.linalg.norm loop gives them."""
    q = len(points)
    legs = [float(np.linalg.norm(points[(i + 1) % q] - points[i])) for i in range(q)]
    cum = np.concatenate([[0.0], np.cumsum(legs)])
    return cum, float(cum[-1])


def _oracle_position(points, cum, length_m, arc_m):
    """position_at_arc on numpy rows with np.searchsorted."""
    if length_m == 0.0:
        return float(points[0, 0]), float(points[0, 1])
    arc = arc_m % length_m
    i = int(np.searchsorted(cum, arc, side="right")) - 1
    i = min(i, len(points) - 1)
    leg = cum[i + 1] - cum[i]
    a = points[i]
    b = points[(i + 1) % len(points)]
    frac = (arc - cum[i]) / leg if leg > 0 else 0.0
    pt = a + frac * (b - a)
    return float(pt[0]), float(pt[1])


@st.composite
def _tours(draw):
    """0-10 points drawn from a pool of at most 5, so points often coincide.
    Pool coordinates are either Hypothesis floats in [1e-3, 1e5] (round and
    boundary values) or uniform draws with full-width mantissas within one
    decade of that range, where the rounding of different leg formulas
    tells them apart."""
    size = draw(st.integers(1, 5))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        low = 10.0 ** draw(st.integers(-3, 4))
        pool = rng.uniform(low, 10.0 * low, size=(size, 2)).tolist()
    else:
        coord = st.floats(1e-3, 1e5)
        pool = draw(st.lists(st.tuples(coord, coord), min_size=size, max_size=size))
    picks = draw(st.lists(st.integers(0, size - 1), max_size=10))
    return np.array([pool[k] for k in picks], dtype=float).reshape(-1, 2)


@given(_tours(), st.lists(st.floats(0.0, 3.0), max_size=5))
@example(np.empty((0, 2)), [])
@example(np.array([[1e-3, 1e5]]), [0.5])
@example(np.array([[1e-3, 1e-3], [1e5, 1e5]]), [0.5, 1.0, 2.25])
@example(np.array([[7.0, 7.0], [7.0, 7.0], [3.0, 1e4]]), [0.1])
# legs (7.77, 5.9) and (0.013, 1.3) round differently under dx*dx + dy*dy
@example(np.array([[0.0, 0.0], [7.77, 5.9], [0.013, 1.3]]), [0.3])
def test_geometry_matches_per_leg_norm_bit_for_bit(points, fractions):
    """The stacked leg computation gives the same bits as one
    np.linalg.norm per leg, and position_at_arc the same points as the
    searchsorted version, at 0, at every waypoint, at the full length and
    past it."""
    g = RouteGeometry(points)
    cum, length_m = _oracle_geometry(points)
    assert g.cum.tolist() == cum.tolist()
    assert g.length_m == length_m
    if not len(points):
        with pytest.raises(IndexError):
            g.position_at_arc(0.0)
        return
    arcs = [0.0, *cum[1:].tolist(), 2.0 * length_m + cum[1]]
    arcs += [f * length_m for f in fractions]
    for arc in arcs:
        assert g.position_at_arc(arc) == _oracle_position(points, cum, length_m, arc)


_COORD = st.floats(-1e5, 1e5)


class TestDispatchSelection:
    # the last argument is the sensor's distance to its nearest edge, here
    # one edge at the origin
    def test_nearest_combined_distance_wins(self):
        cands = [(0, (3000.0, 0.0)), (1, (1500.0, 0.0))]
        assert select_dispatch_uav(cands, (1000.0, 0.0), 1000.0) == 1

    def test_tie_breaks_lowest_id(self):
        cands = [(4, (100.0, 0.0)), (2, (0.0, 100.0))]
        assert select_dispatch_uav(cands, (0.0, 0.0), 0.0) == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            select_dispatch_uav([], (0.0, 0.0), 0.0)

    @given(uav=st.integers(0, 100), xy=st.tuples(_COORD, _COORD),
           sensor=st.tuples(_COORD, _COORD), to_edge=st.floats(0.0, 1e5))
    def test_one_candidate_is_the_distance_rules_pick(self, uav, xy, sensor, to_edge):
        """The one free UAV, returned without its distance, is the pick the
        distance rule makes over a list of one."""
        cands = [(uav, xy)]
        sx, sy = sensor
        want = min(cands, key=lambda c: (math.hypot(c[1][0] - sx, c[1][1] - sy) + to_edge,
                                         c[0]))[0]
        assert select_dispatch_uav(cands, sensor, to_edge) == want == uav

    def test_edge_term_rounds_in_every_key(self):
        """Distances 1 and 1 + 2**-52 differ by one ulp; adding 1 rounds
        both to 2, so the lower id wins as in a tie."""
        cands = [(3, (1.0 + 2.0**-52, 0.0)), (1, (1.0, 0.0))]
        assert select_dispatch_uav(cands, (0.0, 0.0), 0.0) == 1
        cands = [(1, (1.0 + 2.0**-52, 0.0)), (3, (1.0, 0.0))]
        assert select_dispatch_uav(cands, (0.0, 0.0), 0.0) == 3
        assert select_dispatch_uav(cands, (0.0, 0.0), 1.0) == 1


class TestDeliveryEdge:
    EDGE_XY = [(0.0, 0.0), (4000.0, 0.0)]

    def test_nearest_free_edge(self):
        load = EdgeLoadState([0.0, 0.0], [5000.0, 5000.0])
        eid, fb = select_delivery_edge((3000.0, 0.0), self.EDGE_XY, load, 0.8)
        assert (eid, fb) == (1, False)

    def test_saturated_nearest_skipped(self):
        load = EdgeLoadState([0.0, 4500.0], [5000.0, 5000.0])
        eid, fb = select_delivery_edge((3000.0, 0.0), self.EDGE_XY, load, 0.8)
        assert (eid, fb) == (0, False)

    def test_all_saturated_falls_back_least_utilized(self):
        load = EdgeLoadState([4500.0, 4600.0], [5000.0, 5000.0])
        eid, fb = select_delivery_edge((3900.0, 0.0), self.EDGE_XY, load, 0.8)
        assert (eid, fb) == (0, True)


class TestResumeWaypoint:
    def test_nearest_waypoint(self):
        # points[0] is the depot; returned index counts waypoints only
        g = _square_geom()
        assert resume_waypoint((1.0, 9.5), g) == 2

    def test_tie_prefers_earliest_index(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
        g = RouteGeometry(pts)
        assert resume_waypoint((5.0, 5.0), g) == 0

    def test_empty_geometry(self):
        g = RouteGeometry(np.empty((0, 2)))
        assert resume_waypoint((0.0, 0.0), g) is None


def _one_uav_setup():
    """Single UAV, single remote sensor, one edge at the origin."""
    sc = build_scenario([(2000.0, 0.0, 60, 5.0, 100.0)],
                        [(0.0, 0.0, 10000.0)])
    pl = plan(sc, AlgoParams())
    assert pl.m == 1 and pl.routes[0].waypoints == (0,)
    return sc, pl


def test_single_event_hand_oracle():
    sc, pl = _one_uav_setup()
    algo = AlgoParams()
    ev = EmergencyEvent(sensor_id=0, alert_time_s=100.0, priority=60)
    res = simulate(pl, sc, [ev], 1000.0, algo)
    assert len(res.traces) == 1
    tr = res.traces[0]

    # reproduce the patrol phase and hand-compute the UAV position at t=100
    rng = np.random.default_rng(derive_seed(algo.seed, "patrol-phase"))
    phase = rng.uniform(0.0, 4000.0, size=1)[0]
    assert res.phases_m == (pytest.approx(phase),)
    arc = (phase + 15.0 * 100.0) % 4000.0
    x = arc if arc <= 2000.0 else 4000.0 - arc
    want_disp = abs(x - 2000.0) / 15.0

    assert tr.t_queue_s == 0.0
    assert tr.t_dispatch_travel_s == pytest.approx(want_disp)
    assert tr.t_tra_s == pytest.approx(4.0)          # 5 MB over 10 Mbps
    assert tr.t_delivery_travel_s == pytest.approx(2000.0 / 15.0)
    assert tr.t_exe_s == pytest.approx(100.0 / 10000.0)
    want = want_disp + 4.0 + 2000.0 / 15.0 + 0.01
    assert tr.response_time_s == pytest.approx(want)
    assert tr.uav_id == 0 and tr.edge_id == 0
    assert tr.resume_waypoint == 0
    assert not tr.served_direct and not tr.delivery_fallback
    assert tr.deadline_met == (want <= 300.0)


def test_priority_preempts_queue():
    """Two alerts at the same instant on a one-UAV fleet: the higher
    fire-history sensor is served first, the other waits for the free."""
    sc = build_scenario([(2000.0, 0.0, 60, 5.0, 100.0),
                         (2000.0, 500.0, 90, 5.0, 100.0)],
                        [(0.0, 0.0, 10000.0)])
    pl = plan(sc, AlgoParams())
    assert pl.m == 1
    events = [EmergencyEvent(0, 50.0, 60), EmergencyEvent(1, 50.0, 90)]
    res = simulate(pl, sc, events, 4000.0, AlgoParams())
    by_sensor = {t.sensor_id: t for t in res.traces}
    assert by_sensor[1].t_queue_s == 0.0
    assert by_sensor[0].t_queue_s > 0.0
    assert by_sensor[0].response_time_s > by_sensor[1].response_time_s


def test_alert_at_a_return_instant_is_drained_before_the_return():
    """UAV 1 parks at the edge 1500 m from the only sensor, so its sortie
    of 100 + 4 + 100 s from t = 0 ends at exactly 204.0.  The alert due at
    that instant is taken into the queue before UAV 1 is freed, and the one
    launch pass after both gives UAV 1 to it over the lower-priority alert
    queued since t = 1, which waits for UAV 0."""
    sc = build_scenario([(1500.0, 0.0, 60, 5.0, 100.0)], [(0.0, 0.0, 10000.0)])
    pl = plan_at_fleet(sc, AlgoParams(), 2)
    assert [r.length_m for r in pl.routes] == [3000.0, 0.0]
    events = [EmergencyEvent(0, 0.0, 90), EmergencyEvent(0, 0.0, 80),
              EmergencyEvent(0, 1.0, 10), EmergencyEvent(0, 204.0, 70)]
    first, parked, waiting, on_return = simulate(pl, sc, events, 4000.0, AlgoParams()).traces
    assert (parked.uav_id, parked.resume_waypoint) == (1, None)
    assert (parked.t_dispatch_travel_s, parked.t_tra_s, parked.t_delivery_travel_s) == (
        100.0, 4.0, 100.0)
    assert (on_return.uav_id, on_return.t_queue_s, on_return.t_dispatch_travel_s) == (
        1, 0.0, 100.0)
    # UAV 0 left its patrol at t = 0 and is back after its approach, the
    # upload, the delivery leg and the 1500 m back to its only waypoint
    assert first.uav_id == waiting.uav_id == 0
    assert waiting.t_queue_s == first.t_dispatch_travel_s + 4.0 + 100.0 + 100.0 - 1.0
    assert waiting.t_dispatch_travel_s == 0.0


def test_direct_sensor_served_without_uav(default_scenario, default_plan,
                                          default_algo):
    direct_ids = sorted(default_plan.assignment.direct_map)
    assert direct_ids, "expected direct sensors on the default layout"
    sid = direct_ids[0]
    ev = EmergencyEvent(sid, 10.0, default_scenario.sensors[sid].fire_history)
    res = simulate(default_plan, default_scenario, [ev], 3600.0, default_algo)
    tr = res.traces[0]
    assert tr.served_direct
    assert tr.uav_id is None
    assert tr.t_dispatch_travel_s == 0.0 and tr.t_delivery_travel_s == 0.0
    sensor = default_scenario.sensors[sid]
    want = (default_scenario.physical.per_hop_latency_s
            + sensor.request.data_size_mb * 8.0 / default_scenario.physical.data_rate_mbps
            + tr.t_exe_s)
    assert tr.response_time_s == pytest.approx(want)


def test_zero_events_no_impact(default_scenario, default_plan, default_algo):
    res = simulate(default_plan, default_scenario, [], 3600.0, default_algo)
    assert res.traces == ()
    assert res.impact.delta_s == 0.0
    assert res.impact.delta_fraction == 0.0
    assert res.impact.with_events_mean_s == pytest.approx(
        res.impact.baseline_mean_s)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
def test_event_needs_a_finite_alert_time(t):
    with pytest.raises(ValueError, match="alert_time_s"):
        EmergencyEvent(0, t, 60)


@pytest.mark.parametrize("priority", [None, "5", 2.5, True])
def test_event_needs_an_integer_priority(priority):
    """A priority simulate cannot order by -priority, or a bool, is rejected
    when the event is built."""
    with pytest.raises(ValueError, match="priority"):
        EmergencyEvent(0, 10.0, priority)


def test_event_takes_a_numpy_integer_priority(default_scenario, default_plan,
                                             default_algo):
    sid = next(iter(default_plan.clustering.assignment))
    event = EmergencyEvent(sid, 10.0, np.int64(5))
    res = simulate(default_plan, default_scenario, [event], 4000.0, default_algo)
    assert res.traces[0].priority == 5


def test_alert_past_horizon_rejected(default_scenario, default_plan,
                                     default_algo):
    events = [EmergencyEvent(0, 3600.0, 60), EmergencyEvent(3, 3600.5, 60)]
    with pytest.raises(ValueError, match=r"^events\[1\]\.alert_time_s: 3600\.5 is past "
                                         r"the horizon 3600\.0$"):
        simulate(default_plan, default_scenario, events, 3600.0, default_algo)


def test_sensor_outside_the_scenario_rejected(default_scenario, default_plan,
                                              default_algo):
    events = [EmergencyEvent(0, 10.0, 60), EmergencyEvent(200, 10.0, 60)]
    with pytest.raises(ValueError, match=r"^events\[1\]\.sensor_id: 200 is not a sensor "
                                         r"id of the scenario \[0, 200\)$"):
        simulate(default_plan, default_scenario, events, 3600.0, default_algo)


@pytest.mark.parametrize("sid, shown", [(10.0, "10.0"), (True, "True")])
def test_sensor_id_must_be_an_integer(default_scenario, default_plan, default_algo,
                                      sid, shown):
    """A float or a bool sensor id is refused at the call, not deep in the
    event loop as a list index or an array conversion."""
    events = [EmergencyEvent(0, 10.0, 60), EmergencyEvent(sid, 10.0, 60)]
    with pytest.raises(ValueError, match=rf"^events\[1\]\.sensor_id: {shown} is not an "
                                         r"integer$"):
        simulate(default_plan, default_scenario, events, 3600.0, default_algo)


def test_trace_stays_a_frozen_dataclass_with_an_instance_dict():
    """The benchmark's checks build traces by keyword and read them through
    __dict__, and a trace must not be changed after it is made."""
    assert dataclasses.is_dataclass(EmergencyTrace)
    fields = {f.name: k for k, f in enumerate(dataclasses.fields(EmergencyTrace))}
    tr = EmergencyTrace(**fields)
    assert tr.__dict__ == fields
    with pytest.raises(dataclasses.FrozenInstanceError):
        tr.t_queue_s = 1.0


def test_simulated_traces_equal_traces_built_by_keyword(memo_pairs):
    """simulate fills each trace's instance dict itself, not through the
    generated __init__.  Each trace it returns, dispatched, queued or served
    direct, equals the trace built by keyword from the same fields: ==,
    repr, hash, a pickle round trip, dataclasses.replace and the field order
    of __dict__, and it is as frozen.  That build would skip a __post_init__,
    so the class must not have one."""
    assert not hasattr(EmergencyTrace, "__post_init__")
    sc, (pl, _), _ = memo_pairs
    # sensor 54 is direct; the alerts at t = 5 outnumber the UAVs
    events = [EmergencyEvent(sid, 5.0, 10 * k) for k, sid in enumerate([54, 10, 11, 12, 13])]
    traces = simulate(pl, sc, events, _MEMO_HORIZON_S, AlgoParams()).traces
    assert {t.served_direct for t in traces} == {True, False}
    assert any(t.t_queue_s > 0 for t in traces)
    names = [f.name for f in dataclasses.fields(EmergencyTrace)]
    for tr in traces:
        want = EmergencyTrace(**{name: getattr(tr, name) for name in names})
        assert type(tr) is EmergencyTrace
        assert list(tr.__dict__.items()) == list(want.__dict__.items())
        assert tr == want and repr(tr) == repr(want) and hash(tr) == hash(want)
        back = pickle.loads(pickle.dumps(tr))
        assert repr(back) == repr(tr) and list(back.__dict__) == names
        assert repr(replace(tr, t_queue_s=1.0)) == repr(replace(want, t_queue_s=1.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            tr.t_queue_s = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del tr.uav_id


# past MAX_HORIZON_S too: from 5e307 on, v_g * t overflowed and simulate
# raised IndexError from its alert loop
_BAD_HORIZONS = [float("nan"), float("inf"), 0.0, -3600.0,
                 math.nextafter(MAX_HORIZON_S, math.inf), 5e307, 1e308, 1.7e308]


@pytest.mark.parametrize("horizon", _BAD_HORIZONS)
def test_simulate_needs_a_finite_positive_horizon(default_scenario, default_plan,
                                                  default_algo, horizon):
    with pytest.raises(ValueError, match="horizon_s"):
        simulate(default_plan, default_scenario, [], horizon, default_algo)


@pytest.mark.parametrize("horizon", _BAD_HORIZONS)
def test_generate_events_needs_a_finite_positive_horizon(default_scenario, default_plan,
                                                         horizon):
    with pytest.raises(ValueError, match="horizon_s"):
        generate_events(default_scenario, default_plan, 3, horizon, seed=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulate_runs_at_the_horizon_ceiling(default_scenario, default_plan, seed):
    events = generate_events(default_scenario, default_plan, 5, MAX_HORIZON_S, seed=seed)
    res = simulate(default_plan, default_scenario, events, MAX_HORIZON_S, AlgoParams(seed=seed))
    assert len(res.traces) == 5
    assert all(math.isfinite(t.response_time_s) for t in res.traces)


def test_simulate_runs_at_the_fastest_cruise_speed():
    """At MAX_V_G and the horizon ceiling, a backlog of alerts all raised at
    the horizon's end is served past it with finite responses (at 1e298 m/s
    v_g * t overflows before the horizon ends)."""
    sc = generate(GenConfig(n_sensors=60, seed=0), PhysicalParams(v_g=MAX_V_G))
    pl = plan(sc, AlgoParams())
    events = generate_events(sc, pl, 5, MAX_HORIZON_S, seed=0)
    backlog = [replace(e, alert_time_s=MAX_HORIZON_S) for e in events] * 40
    for evs in (events, backlog):
        res = simulate(pl, sc, evs, MAX_HORIZON_S, AlgoParams())
        assert len(res.traces) == len(evs)
        assert all(math.isfinite(t.response_time_s) for t in res.traces)


def test_own_cluster_policy(default_scenario, default_plan, default_algo):
    owner = {}
    for k, r in enumerate(default_plan.routes):
        for sid in r.waypoints:
            owner[sid] = k
    uav_ids = sorted(owner)
    events = [EmergencyEvent(sid, 100.0 + 40.0 * i,
                             default_scenario.sensors[sid].fire_history)
              for i, sid in enumerate(uav_ids[:4])]
    res = simulate(default_plan, default_scenario, events, 86400.0,
                   default_algo, dispatch_policy="own_cluster")
    for tr in res.traces:
        assert tr.uav_id == owner[tr.sensor_id]


def test_own_cluster_free_uav_serves_lower_priority_alert_at_once():
    """UAV 1 is out on an alert; a higher-priority alert in its cluster
    waits for it while a lower-priority one in UAV 0's cluster launches."""
    sc = build_scenario([(-3000.0, 0.0, 10, 5.0, 100.0), (3000.0, 0.0, 60, 5.0, 100.0),
                         (3000.0, 300.0, 90, 5.0, 100.0)],
                        [(0.0, 0.0, 10000.0)])
    pl = plan_at_fleet(sc, AlgoParams(), 2)
    assert pl.clustering.assignment == {0: 0, 1: 1, 2: 1}
    events = [EmergencyEvent(1, 0.0, 60), EmergencyEvent(2, 1.0, 90),
              EmergencyEvent(0, 1.0, 10)]
    res = simulate(pl, sc, events, 4000.0, AlgoParams(), dispatch_policy="own_cluster")
    by_sensor = {t.sensor_id: t for t in res.traces}
    assert (by_sensor[0].uav_id, by_sensor[0].t_queue_s) == (0, 0.0)
    assert by_sensor[2].uav_id == 1 and by_sensor[2].t_queue_s > 0.0


def test_impact_nonnegative_and_normalized(default_scenario, default_plan,
                                           default_algo):
    events = generate_events(default_scenario, default_plan, 5, 86400.0,
                             seed=3)
    res = simulate(default_plan, default_scenario, events, 86400.0,
                   default_algo)
    assert res.impact.delta_s >= 0.0
    assert res.impact.delta_fraction == pytest.approx(
        res.impact.delta_s / res.impact.baseline_mean_s)


def test_emergency_response_bound_example():
    """Equal-weight pair centered at (4000, 0): cluster radius 2000, the
    far member sits 3000 from the only edge."""
    sc = build_scenario([(2000.0, 0.0, 60, 5.0, 500.0),
                         (6000.0, 0.0, 60, 5.0, 500.0)],
                        [(5000.0, 0.0, 5000.0)])
    pl = plan(sc, AlgoParams())
    assert pl.m == 1
    assert pl.clustering.centers[0] == (pytest.approx(4000.0),
                                        pytest.approx(0.0))
    # 2*2000/15 + 3000/15 + 4 + 0.1
    assert emergency_response_bound(pl, sc, 0.8) == pytest.approx(470.7666666667)


def test_bound_requires_uav_sensors():
    sc = build_scenario([(100.0, 0.0, 0, 1.0, 100.0)], [(0.0, 0.0, 5000.0)])
    pl = plan(sc, AlgoParams())
    with pytest.raises(ValueError):
        emergency_response_bound(pl, sc, 0.8)


def test_generate_events_properties(default_scenario, default_plan):
    events = generate_events(default_scenario, default_plan, 5, 86400.0,
                             seed=11)
    assert len(events) == 5
    assert all(e.priority > 50 for e in events)
    # the five highest fire histories among UAV-served sensors, ties by id
    served = [default_scenario.sensors[i] for i in default_plan.clustering.assignment]
    hot = sorted(served, key=lambda s: (-s.fire_history, s.id))[:5]
    assert [(e.sensor_id, e.priority) for e in events] == [(s.id, s.fire_history) for s in hot]
    assert all(type(e.sensor_id) is int and type(e.priority) is int
               and type(e.alert_time_s) is float for e in events)
    times = [e.alert_time_s for e in events]
    assert times == sorted(times)
    assert all(0.0 <= t <= 86400.0 for t in times)
    again = generate_events(default_scenario, default_plan, 5, 86400.0,
                            seed=11)
    assert again == events


def test_generate_events_insufficient_high_risk():
    sc = build_scenario([(2000.0, 0.0, 10, 1.0, 100.0)],
                        [(0.0, 0.0, 5000.0)])
    pl = plan(sc, AlgoParams())
    with pytest.raises(ValueError, match="fire_history"):
        generate_events(sc, pl, 3, 1000.0, seed=0)


def test_events_round_trip(tmp_path, default_scenario, default_plan):
    events = generate_events(default_scenario, default_plan, 4, 86400.0,
                             seed=5)
    path = tmp_path / "events.json"
    save_events(events, str(path))
    assert load_events(str(path), len(default_scenario.sensors), 86400.0) == events


def test_trace_csv(tmp_path, default_scenario, default_plan, default_algo):
    events = generate_events(default_scenario, default_plan, 3, 86400.0,
                             seed=2)
    res = simulate(default_plan, default_scenario, events, 86400.0,
                   default_algo)
    path = tmp_path / "trace.csv"
    write_trace_csv(res, str(path))
    import csv

    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3
    assert {r["sensor_id"] for r in rows} == {str(e.sensor_id) for e in events}


def test_benchmark_tracer_sees_the_simulator_layers(monkeypatch, small_scenario):
    """The benchmark's traced runs need emergency and timing spans inside a
    simulate call; a wrap point that no longer matches the name the
    simulator looks up would otherwise show only in a traced benchmark run."""
    import importlib
    from pathlib import Path

    from firewatch import emergency

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracer = importlib.import_module("tracer")
    pl = plan(small_scenario, AlgoParams())
    rec = tracer.Tracer()
    rec.install()
    try:
        events = emergency.generate_events(small_scenario, pl, 3, 86400.0, seed=1)
        emergency.simulate(pl, small_scenario, events, 86400.0, AlgoParams())
        emergency.simulate(pl, small_scenario, events, 86400.0, AlgoParams(seed=1))
    finally:
        rec.uninstall()
    spans = rec.take()
    sim = [s for s in spans if s.name == "emergency.simulate"]
    assert len(sim) == 2
    inside = [s for s in spans if s.parent == sim[0].sid]
    assert {s.layer for s in inside} >= {"emergency", "timing"}
    # one geometry per route, and the selection rules still called by name
    assert sum(s.name == "emergency.geometry" for s in inside) == pl.m
    assert any(s.name == "emergency.select" for s in inside)
    # the same plan and scenario again: the geometry is reused, the response
    # table and the dispatch rule still run inside the call
    again = [s for s in spans if s.parent == sim[1].sid]
    assert {s.name for s in again} >= {"timing.mean_response", "emergency.select"}
    assert not any(s.name == "emergency.geometry" for s in again)


def test_benchmark_tracer_reads_the_fleet_size_of_each_assignment(monkeypatch):
    """The benchmark's traced runs take the fleet size of each 2-opt call from
    the first argument of the edge assignment before it, so that argument
    must have one entry per cluster.  Here the loop routes one UAV, rejects
    its route and accepts two; on the capacity wall every size fails its
    overload repair before any route is built."""
    import importlib
    from pathlib import Path

    from firewatch import planner

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracer = importlib.import_module("tracer")
    # nine sensors on a line between two edges 10 km apart: one UAV's
    # 18 km lap breaks the 12 km revisit limit, its 9 km spanning tree does not
    line = build_scenario([(1000.0 * k, 0.0, 0, 1.0, 100.0) for k in range(1, 10)],
                          [(0.0, 0.0, 5000.0), (10000.0, 0.0, 5000.0)],
                          PhysicalParams(t_max_s=800.0))
    wall = build_scenario([(3000.0 + 200.0 * k, 0.0, 0, 1.0, 1e6) for k in range(3)],
                          [(0.0, 0.0, 10.0)], PhysicalParams(m_max=3))
    rec = tracer.Tracer()
    rec.install()
    try:
        for module, attr, _ in tracer.WRAP_POINTS:
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert hasattr(owner, "__wrapped__"), (module, attr)
        pl = planner.plan(line, AlgoParams())
        with pytest.raises(InfeasibleError):
            planner.plan(wall, AlgoParams())
    finally:
        rec.uninstall()
    spans = sorted(rec.take(), key=lambda s: (s.t0, s.sid))
    top = [s for s in spans if s.name == "planner.plan"]
    assert len(top) == 2
    line_spans = [s for s in spans if s.t1 <= top[0].t1]
    wall_spans = [s for s in spans if s.t0 >= top[1].t0]

    def routes_after_each_assignment(group):
        counts = []
        for s in group:
            if s.name == "edge_assignment.assign_clusters":
                counts.append([len(s.args[0]), 0])
            elif s.name == "routing.build_route":
                counts[-1][1] += 1
        return counts

    assert pl.m == 2
    assert routes_after_each_assignment(line_spans) == [[1, 1], [2, 2]]
    share = tracer.self_times(spans)
    accepted = [s for s in line_spans if s.name == "edge_assignment.assign_clusters"][-1]
    rejected = [share[s.sid] for s in line_spans
                if s.name == "routing.two_opt" and s.t0 < accepted.t0]
    metrics = tracer.pass_metrics(spans, tracer.covered_seconds(top))
    assert rejected and metrics["routing.two_opt_rejected_s"] == pytest.approx(sum(rejected))

    assert routes_after_each_assignment(wall_spans) == [[1, 0], [2, 0], [3, 0]]
    repairs = [s for s in wall_spans if s.name == "edge_assignment.repair"]
    assert len(repairs) == 3 and all(isinstance(s.error, RepairFailure) for s in repairs)
    assert metrics["edge_assignment.repair_failures"] == 3


_MEMO_HORIZON_S = 7200.0
# theta_max 1e-5 is below every edge's utilization on both plans below, so
# every delivery falls back; 0.8 leaves every edge free
_THETAS = (0.8, 1e-5)


@pytest.fixture(scope="module")
def memo_pairs(tmp_path_factory):
    """Two plans on one 80-sensor scenario (3 of them direct), and that
    scenario saved and loaded back as another object."""
    sc = generate(GenConfig(n_sensors=80, n_edges=3, seed=1))
    first = plan(sc, AlgoParams())
    plans = (first, plan_at_fleet(sc, AlgoParams(), first.m + 1))
    path = tmp_path_factory.mktemp("memo") / "scenario.json"
    save_scenario(sc, str(path))
    return sc, plans, load_scenario(str(path))


_memo_calls = st.lists(st.tuples(
    st.integers(0, 1),                              # which plan
    st.sampled_from(["nearest", "own_cluster"]),
    st.sampled_from(_THETAS),
    st.integers(0, 3),                              # seed of the patrol phases
    # (sensor id, whole-second alert time, priority): instants often coincide
    st.lists(st.tuples(st.integers(0, 79), st.integers(0, int(_MEMO_HORIZON_S)),
                       st.integers(0, 100)), max_size=8)),
    min_size=1, max_size=6)


@given(calls=_memo_calls)
@example(calls=[(0, "nearest", 0.8, 0, [(10, 100, 50)]),
                (0, "nearest", 1e-5, 0, [(10, 100, 50)])])
@example(calls=[(1, "own_cluster", 0.8, 0, [(10, 100, 50), (11, 100, 40)]),
                (1, "nearest", 0.8, 2, [(10, 100, 50), (12, 100, 40)]),
                (0, "nearest", 0.8, 2, [(10, 100, 50)]),
                (1, "nearest", 1e-5, 1, [(10, 5, 50), (10, 5, 50)])])
def test_simulate_on_a_reused_plan_equals_a_fresh_copy(memo_pairs, calls):
    """Calls that switch plans, policies and theta_max give, bit for bit,
    what the same call gives on copies of the plan and scenario, which
    share no state with any earlier call."""
    sc, plans, sc_copy = memo_pairs

    def run(pl, scenario, policy, theta_max, seed, events):
        evs = [EmergencyEvent(sid, float(t), prio) for sid, t, prio in events]
        return simulate(pl, scenario, evs, _MEMO_HORIZON_S,
                        AlgoParams(seed=seed, theta_max=theta_max), dispatch_policy=policy)

    got = [run(plans[i], sc, *rest) for i, *rest in calls]
    for (i, *rest), result in zip(calls, got):
        # repr tells -0.0 from 0.0 and shows every float's bits
        assert repr(result) == repr(run(replace(plans[i]), sc_copy, *rest))


def test_simulate_and_the_term_table_memo_never_mix_pairs(memo_pairs):
    """mean_response on plan B between simulate calls on plan A leaves the
    term table memo holding B while the simulator's plan state holds A; each
    result still equals, bit for bit, the same call on copies."""
    from firewatch import emergency, timing

    sc, (first, second), sc_copy = memo_pairs
    calls = [("nearest", 0.8, 0, [(10, 100, 50)]),
             ("own_cluster", 0.8, 1, [(10, 100, 50), (11, 100, 40)]),
             ("nearest", 1e-5, 2, [(10, 5, 50), (12, 900, 40)])]

    def run(pl, scenario, policy, theta_max, seed, events):
        evs = [EmergencyEvent(sid, float(t), prio) for sid, t, prio in events]
        return simulate(pl, scenario, evs, _MEMO_HORIZON_S,
                        AlgoParams(seed=seed, theta_max=theta_max), dispatch_policy=policy)

    got = []
    for call in calls:
        got.append(run(first, sc, *call))
        timing.mean_response(second, sc)
        assert timing._last_table[0] is second
        assert emergency._last_state.terms is not timing._last_table[2]
    for call, result in zip(calls, got):
        assert repr(result) == repr(run(replace(first), sc_copy, *call))


@pytest.fixture(scope="module")
def oracle_cases(memo_pairs):
    """The two plans of memo_pairs, and a plan whose second UAV parks at the
    edge on a zero-length route: its two UAV-served sensors share one spot,
    one more is direct, and it is planned at one UAV over plan's fleet."""
    sc, plans, _ = memo_pairs
    small = build_scenario([(1500.0, 0.0, 60, 5.0, 100.0), (1500.0, 0.0, 70, 5.0, 100.0),
                            (100.0, 0.0, 90, 5.0, 100.0)], [(0.0, 0.0, 10000.0)])
    idle = plan_at_fleet(small, AlgoParams(), plan(small, AlgoParams()).m + 1)
    assert [r.length_m for r in idle.routes] == [3000.0, 0.0]
    assert idle.assignment.direct_map == {2: 0}
    return [(sc, plans[0]), (sc, plans[1]), (small, idle)]


_oracle_calls = st.tuples(
    st.integers(0, 2),                              # which plan
    st.sampled_from(["nearest", "own_cluster"]),
    st.sampled_from(_THETAS),
    st.integers(0, 3),                              # seed of the patrol phases
    # (sensor id mod the scenario's size, whole-second alert time, priority / 30):
    # instants coincide, queues form and equal priorities fall back on FIFO
    st.lists(st.tuples(st.integers(0, 79), st.integers(0, 900), st.integers(0, 3)),
             max_size=30))


@given(call=_oracle_calls)
@example(call=(0, "nearest", 0.8, 0, []))
# the parked UAV is back from its 204 s sortie when sensor 1 alerts
@example(call=(2, "nearest", 0.8, 0, [(0, 0, 3), (1, 0, 2), (2, 0, 1), (0, 1, 0),
                                      (1, 204, 2)]))
# sensors 54 and 60 are direct; every delivery falls back
@example(call=(1, "own_cluster", 1e-5, 1, [(54, 5, 1), (60, 5, 1), (10, 5, 2), (11, 5, 2),
                                           (10, 6, 0), (12, 6, 3)]))
def test_simulate_equals_the_one_heap_oracle(oracle_cases, call):
    """Traces, impact and phases equal, bit for bit, the simulator that keeps
    every alert and return in one heap and tries a launch at every instant."""
    which, policy, theta_max, seed, alerts = call
    sc, pl = oracle_cases[which]
    n = len(sc.xy)
    events = [EmergencyEvent(sid % n, float(t), 30 * prio) for sid, t, prio in alerts]
    algo = AlgoParams(seed=seed, theta_max=theta_max)
    got = simulate(pl, sc, events, _MEMO_HORIZON_S, algo, dispatch_policy=policy)
    assert repr(got) == repr(simulate_oracle(pl, sc, events, _MEMO_HORIZON_S, algo, policy))


# a pool of alert lists, (sensor id, whole-second alert time, priority), and
# the calls that draw from it, so alert-sensor sets repeat and change
_alert_set_calls = st.tuples(
    st.lists(st.lists(st.tuples(st.integers(0, 79), st.integers(0, 900),
                                st.integers(0, 100)), max_size=6),
             min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 2), st.sampled_from(["nearest", "own_cluster"]),
                       st.integers(0, 3)), min_size=2, max_size=8),
    st.integers(0, 8))                              # where the every-sensor call goes


@given(case=_alert_set_calls)
# sensors 54, 60 and 68 are direct on the first plan of memo_pairs
@example(case=([[(54, 5, 10), (10, 5, 20)], [(60, 7, 30), (68, 9, 40), (11, 9, 50)]],
               [(0, "nearest", 0), (1, "own_cluster", 1), (0, "own_cluster", 2),
                (1, "nearest", 3), (1, "nearest", 0)], 2))
def test_alert_sets_that_repeat_and_change_equal_the_oracle(memo_pairs, case):
    """A run of simulate calls on one plan whose alert-sensor sets repeat,
    change and include direct sensors, and one call that alerts every sensor
    (no sensor left for the means): traces and every impact field equal,
    bit for bit, the oracle's, whatever the plan state kept from the calls
    before."""
    sc, (pl, _), _ = memo_pairs
    pool, calls, every_at = case
    every = [(sid, sid, 60) for sid in range(len(sc.xy))]
    runs = [(pool[i % len(pool)], policy, seed) for i, policy, seed in calls]
    runs.insert(min(every_at, len(runs)), (every, "nearest", 0))
    for alerts, policy, seed in runs:
        events = [EmergencyEvent(sid, float(t), prio) for sid, t, prio in alerts]
        algo = AlgoParams(seed=seed)
        got = simulate(pl, sc, events, _MEMO_HORIZON_S, algo, dispatch_policy=policy)
        want = simulate_oracle(pl, sc, events, _MEMO_HORIZON_S, algo, policy)
        assert repr(got.traces) == repr(want.traces)
        assert ([x.hex() for x in dataclasses.astuple(got.impact)]
                == [x.hex() for x in dataclasses.astuple(want.impact)])


def test_alert_sets_a_b_a_of_one_size_equal_the_oracle(memo_pairs):
    """The plan state keeps the means inputs of the last alert-sensor set
    only: sets A, B, A of one size (B with a direct sensor), then one with
    a sensor alerted twice, each give the oracle's traces and impact bit
    for bit."""
    sc, (pl, _), _ = memo_pairs
    a = [(10, 100, 50), (11, 200, 40), (12, 300, 30)]
    b = [(13, 100, 50), (54, 200, 40), (14, 300, 30)]
    twice = [(10, 100, 50), (10, 200, 40), (12, 300, 30)]
    for k, alerts in enumerate([a, b, a, twice]):
        events = [EmergencyEvent(sid, float(t), prio) for sid, t, prio in alerts]
        algo = AlgoParams(seed=k)
        got = simulate(pl, sc, events, _MEMO_HORIZON_S, algo)
        want = simulate_oracle(pl, sc, events, _MEMO_HORIZON_S, algo)
        assert repr(got.traces) == repr(want.traces)
        assert ([x.hex() for x in dataclasses.astuple(got.impact)]
                == [x.hex() for x in dataclasses.astuple(want.impact)])


def test_patrol_phases_skip_a_zero_length_tour_between_two_others():
    """One rng.random draw per tour of positive length, times its length,
    gives the bits one rng.uniform(0.0, length) call per such tour gives,
    when the parked UAV's zero-length tour sits between two others."""
    sc = build_scenario([(1500.0, 0.0, 60, 5.0, 100.0), (1500.0, 0.0, 70, 5.0, 100.0),
                         (-1500.0, 0.0, 60, 5.0, 100.0), (-1500.0, 0.0, 60, 5.0, 100.0)],
                        [(0.0, 0.0, 10000.0)])
    pl = plan_at_fleet(sc, AlgoParams(), 3)
    assert [r.length_m for r in pl.routes] == [3000.0, 0.0, 3000.0]
    for seed in range(20):
        algo = AlgoParams(seed=seed)
        rng = np.random.default_rng(derive_seed(seed, "patrol-phase"))
        want = [rng.uniform(0.0, 3000.0), 0.0, rng.uniform(0.0, 3000.0)]
        got = simulate(pl, sc, [], 3600.0, algo).phases_m
        assert [x.hex() for x in got] == [float(x).hex() for x in want]


def test_nearest_edge_distance_equals_the_inline_minimum():
    """The plan state's nearest-edge distance has the bits of the minimum the
    dispatch rule once took per call, for every sensor of the 300-sensor
    scenario."""
    from firewatch import emergency

    sc = generate(GenConfig(n_sensors=300, seed=0))
    state = emergency._plan_state(plan(sc, AlgoParams()), sc)
    edge_xy = sc.edge_xy.tolist()
    for sid, (sx, sy) in enumerate(sc.xy.tolist()):
        want = min(math.hypot(sx - ex, sy - ey) for ex, ey in edge_xy)
        assert state.nearest_edge_m(sid).hex() == want.hex()


@pytest.fixture(scope="module")
def bound_plans():
    """Proposed, greedy, GA and PSO plans of one 80-sensor scenario, GA and
    PSO at the acceptance tests' fast budgets."""
    sc = generate(GenConfig(n_sensors=80, n_edges=3, seed=1))
    algo = AlgoParams()
    return sc, {"proposed": plan(sc, algo), "greedy": greedy_plan(sc, algo),
                "ga": ga_plan(sc, algo, GaConfig(population=16, generations=12)),
                "pso": pso_plan(sc, algo, PsoConfig(swarm=10, iterations=15))}


def _alert_every_uav_sensor(pl, sc, theta_max):
    """Simulate one alert at every UAV-served sensor, so each gets a
    delivery leg at theta_max."""
    ids = sorted(pl.clustering.assignment)
    events = [EmergencyEvent(sid, float(k), 60) for k, sid in enumerate(ids)]
    simulate(pl, sc, events, _MEMO_HORIZON_S, AlgoParams(theta_max=theta_max))


@pytest.mark.parametrize("theta_max", _THETAS)
def test_response_bound_equals_the_per_sensor_loop(bound_plans, theta_max):
    """The bound read from the simulator's delivery legs equals the loop
    that chooses every delivery edge afresh: called cold, after a simulate
    on the same pair at the other theta_max, and after one on another plan."""
    sc, plans = bound_plans
    other_theta = _THETAS[1] if theta_max == _THETAS[0] else _THETAS[0]
    names = list(plans)
    for k, name in enumerate(names):
        pl, other = plans[name], plans[names[(k + 1) % len(names)]]
        want = response_bound_oracle(pl, sc, theta_max)
        assert emergency_response_bound(replace(pl), sc, theta_max) == want, name
        _alert_every_uav_sensor(pl, sc, other_theta)
        assert emergency_response_bound(pl, sc, theta_max) == want, name
        _alert_every_uav_sensor(other, sc, other_theta)
        assert emergency_response_bound(pl, sc, theta_max) == want, name
