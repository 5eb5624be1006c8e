"""Event-driven emergency response simulation on top of a patrol plan.

UAVs fly their closed tours at constant speed from random starting arc
offsets.  When a sensor raises an alert, an available (patrolling) UAV is
diverted: it flies straight to the sensor, collects the data over the upload
window, ferries it to a delivery edge with spare utilization, and rejoins its
tour at the nearest waypoint.  All motion is piecewise linear, so every stage
time is closed-form; there is no tick loop.

Each launch takes the highest fire-history pending alert (FIFO within equal
priority) whose server is free: any UAV under the "nearest" policy, the
sensor's own patrol UAV under "own_cluster".  Events at direct sensors are
served straight from the edge, with terms from ``timing.all_responses``.

What depends on the plan and scenario alone is kept with the pair's
response-term table, which ``timing.all_responses`` memoizes per pair:
each route's geometry, the edge columns and the table's upload and
execution columns as lists, the normal-service totals with and without the
wait term, each route's expected wait, the resume waypoint of each (UAV,
delivery edge) pair and the delivery leg (edge, fallback, travel and
execution seconds) of each (sensor, theta_max) pair, which
``emergency_response_bound`` reads too.  The patrol phases (drawn from the
call's seed) and the event timeline stay per call.
"""

from __future__ import annotations

import bisect
import csv
import heapq
import json
import math
from dataclasses import dataclass

import numpy as np

from . import timing
from .clustering import cluster_radius
from .edge_assignment import EdgeLoadState
from .model import AlgoParams, derive_seed, link_ranges
from .reader import read
# kept importable: bench/tracer.py wraps response_time under this module's name
from .timing import execution_time, expected_wait, response_time  # noqa: F401

EVENTS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class EmergencyEvent:
    sensor_id: int
    alert_time_s: float
    priority: int   # the sensor's fire-history score

    def __post_init__(self):
        # NaN fails every comparison; simulate would never leave its instant
        if not (math.isfinite(self.alert_time_s) and self.alert_time_s >= 0):
            raise ValueError(f"alert_time_s must be finite and >= 0, got {self.alert_time_s}")


@dataclass(frozen=True)
class EmergencyTrace:
    event_seq: int
    sensor_id: int
    alert_time_s: float
    priority: int
    uav_id: int | None            # None when served without dispatch
    edge_id: int
    t_queue_s: float
    t_dispatch_travel_s: float
    t_tra_s: float
    t_delivery_travel_s: float
    t_exe_s: float
    response_time_s: float        # sum of the five stage times
    resume_waypoint: int | None
    deadline_met: bool
    delivery_fallback: bool
    served_direct: bool


@dataclass(frozen=True)
class NormalImpactReport:
    baseline_mean_s: float
    with_events_mean_s: float
    delta_s: float
    delta_fraction: float


@dataclass(frozen=True)
class SimulationResult:
    traces: tuple[EmergencyTrace, ...]
    impact: NormalImpactReport
    horizon_s: float
    phases_m: tuple[float, ...]   # initial arc offset per UAV


class RouteGeometry:
    """Closed-tour polyline (depot first) with cumulative arc lengths."""

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=float)
        # each leg's squared length as a 1x2 @ 2x1 product: the same dot
        # kernel as the per-leg np.linalg.norm, so the same bits, where
        # dx*dx + dy*dy, einsum, norm(axis=1) and hypot differ in the last ulp
        d = np.roll(self.points, -1, axis=0) - self.points
        legs = np.sqrt(np.matmul(d[:, None, :], d[:, :, None]).ravel())
        self.cum = np.concatenate([[0.0], np.cumsum(legs)])
        self.length_m = float(self.cum[-1])
        # position_at_arc runs for every free UAV at every dispatch: Python
        # lists and bisect cost less per call than numpy rows and searchsorted
        self._cum = self.cum.tolist()
        self._xy = self.points.tolist()

    @classmethod
    def from_route(cls, route, scenario) -> "RouteGeometry":
        return cls(np.vstack([scenario.edge_xy[route.depot_edge_id],
                              scenario.xy[list(route.waypoints)]]))

    def arc_of_waypoint(self, widx: int) -> float:
        """Arc length from the depot to waypoint widx (0-based tour index)."""
        return float(self.cum[widx + 1])

    def position_at_arc(self, arc_m: float) -> tuple[float, float]:
        """The (x, y) point at arc length arc_m along the closed tour."""
        xy = self._xy
        if self.length_m == 0.0:
            return tuple(xy[0])
        cum = self._cum
        arc = arc_m % self.length_m
        i = min(bisect.bisect_right(cum, arc) - 1, len(xy) - 1)
        leg = cum[i + 1] - cum[i]
        (ax, ay), (bx, by) = xy[i], xy[(i + 1) % len(xy)]
        frac = (arc - cum[i]) / leg if leg > 0 else 0.0
        return ax + frac * (bx - ax), ay + frac * (by - ay)


def select_dispatch_uav(candidates: list[tuple[int, tuple[float, float]]],
                        sensor_xy: tuple[float, float], edge_xy) -> int:
    """Dispatch rule: among available (uav id, (x, y)) candidates minimize
    straight-line distance to the sensor plus sensor-to-nearest-edge distance
    (ties by lowest uav id)."""
    if not candidates:
        raise ValueError("no available UAV")
    sx, sy = sensor_xy
    to_edge = min(math.hypot(sx - ex, sy - ey) for ex, ey in edge_xy)
    return min(candidates, key=lambda c: (math.hypot(c[1][0] - sx, c[1][1] - sy) + to_edge,
                                          c[0]))[0]


def select_delivery_edge(sensor_xy: tuple[float, float], edge_xy, load: EdgeLoadState,
                         theta_max: float) -> tuple[int, bool]:
    """Nearest of the (x, y) ``edge_xy`` rows with utilization below theta_max
    (ties by lowest id).  When every edge is saturated, falls back to the
    least utilized one and reports it via the second return value."""
    sx, sy = sensor_xy
    ok = [k for k in range(len(edge_xy)) if load.utilization(k) < theta_max]
    # min keeps the first of equal keys, so ties go to the lowest id
    if ok:
        return min(ok, key=lambda k: math.hypot(sx - edge_xy[k][0], sy - edge_xy[k][1])), False
    return min(range(len(edge_xy)), key=load.utilization), True


def resume_waypoint(current_xy, geom: RouteGeometry) -> int | None:
    """Nearest waypoint to the (x, y) position to resume patrol at (ties by
    earliest tour index); None for an empty tour (return to depot)."""
    n = len(geom.points) - 1
    if n <= 0:
        return None
    d = np.linalg.norm(geom.points[1:] - np.asarray(current_xy, dtype=float), axis=1)
    return int(np.argmin(d))


def _check_horizon(horizon_s: float) -> None:
    # NaN fails every comparison, so "<= 0" alone would let it through
    if not (math.isfinite(horizon_s) and horizon_s > 0):
        raise ValueError(f"horizon_s must be finite and > 0, got {horizon_s}")


def generate_events(scenario, plan, n_events: int, horizon_s: float, seed: int,
                    min_history: int = 50) -> list[EmergencyEvent]:
    """Auto-generate alerts at the n highest-fire-history UAV-served sensors
    scoring above min_history, at uniform-random times within the horizon."""
    if n_events < 0:
        raise ValueError(f"n_events must be >= 0, got {n_events}")
    _check_horizon(horizon_s)
    assignment = plan.clustering.assignment
    ids = np.fromiter(assignment, dtype=int, count=len(assignment))
    history = scenario.fire_history[ids]
    hot = history > min_history
    ids, history = ids[hot], history[hot]
    if len(ids) < n_events:
        raise ValueError(
            f"only {len(ids)} UAV-served sensors have fire_history > {min_history}; "
            f"{n_events} events requested")
    top = np.lexsort((ids, -history))[:n_events]    # history descending, then id
    rng = np.random.default_rng(derive_seed(seed, "emergency-events"))
    times = np.sort(rng.uniform(0.0, horizon_s, size=n_events))
    return [EmergencyEvent(sensor_id=i, alert_time_s=t, priority=h)
            for i, h, t in zip(ids[top].tolist(), history[top].tolist(), times.tolist())]


def save_events(events: list[EmergencyEvent], path: str) -> None:
    doc = {"schema_version": EVENTS_SCHEMA_VERSION,
           "events": [{"sensor_id": e.sensor_id, "alert_time_s": e.alert_time_s,
                       "priority": e.priority} for e in events]}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_events(path: str, n_sensors: int, horizon_s: float) -> list[EmergencyEvent]:
    """Read an events file for a scenario of ``n_sensors`` sensors simulated
    over ``horizon_s``; a malformed entry, a sensor id outside the scenario
    or an alert time outside [0, horizon_s] raises InputError naming
    ``events[k].<field>``."""
    doc = read(path, EVENTS_SCHEMA_VERSION, "")
    events = []
    for e in doc["events"].rows():
        t = e["alert_time_s"]
        alert_s = t.number()
        if not 0 <= alert_s <= horizon_s:
            t.fail(f"must be in [0, {horizon_s}], the horizon, got {t.value!r}")
        events.append(EmergencyEvent(e["sensor_id"].id(n_sensors), alert_s,
                                     e["priority"].integer()))
    return events


class _PlanState:
    """What simulate derives from a plan and its scenario alone, held with
    the pair's term table: ``timing.all_responses`` returns the same array
    for the same pair and a new one for any other.  Plans and scenarios are
    frozen and a plan's loads never change after planning."""

    __slots__ = ("terms", "cluster", "geoms", "xy", "edge_xy", "capacity", "beta", "load",
                 "v", "tra_s", "exe_s", "total", "no_wait", "base_wait", "resume", "legs")

    def __init__(self, plan, scenario, terms, cluster):
        self.terms, self.cluster = terms, cluster
        self.geoms = [RouteGeometry.from_route(r, scenario) for r in plan.routes]
        self.xy, self.beta, self.v = scenario.xy, scenario.beta_mi, scenario.physical.v_g
        self.edge_xy, self.capacity = scenario.edge_xy.tolist(), scenario.capacity.tolist()
        self.load = plan.assignment.load
        # from the pair's response-term table: upload and execution times per
        # sensor, normal-service totals, the totals less the wait term, and
        # each route's expected wait without alerts
        self.tra_s, self.exe_s = terms[:, 1].tolist(), terms[:, 2].tolist()
        self.total = timing.totals(terms)
        self.no_wait = self.total - terms[:, 3]
        self.base_wait = [expected_wait(r.length_m, scenario.physical) for r in plan.routes]
        # (uav id, edge id) -> (resume waypoint, its arc, edge-to-waypoint metres)
        self.resume: dict[tuple[int, int], tuple[int | None, float, float]] = {}
        # (sensor id, theta_max) -> (delivery edge id, fallback, travel s, execution s)
        self.legs: dict[tuple[int, float], tuple[int, bool, float, float]] = {}

    def leg(self, sid: int, theta_max: float) -> tuple[int, bool, float, float]:
        """The delivery leg of an alert at sensor sid, built on first need."""
        leg = self.legs.get((sid, theta_max))
        if leg is None:
            sx, sy = self.xy[sid].tolist()
            eid, fb = select_delivery_edge((sx, sy), self.edge_xy, self.load, theta_max)
            ex, ey = self.edge_xy[eid]
            leg = self.legs[sid, theta_max] = (
                eid, fb, math.hypot(sx - ex, sy - ey) / self.v,
                execution_time(float(self.beta[sid]), self.capacity[eid]))
        return leg


# one slot: daily drills call simulate on one deployed plan many times over
_last_state: _PlanState | None = None


def _plan_state(plan, scenario) -> _PlanState:
    """The state of the pair's term table: the last one built when it holds
    the table ``timing.all_responses`` returns, else a new one that
    replaces it."""
    global _last_state
    terms, cluster = timing.all_responses(plan, scenario)
    state = _last_state
    if state is None or state.terms is not terms:
        state = _last_state = _PlanState(plan, scenario, terms, cluster)
    return state


class _UavState:
    __slots__ = ("geom", "ref_time", "ref_arc", "available")

    def __init__(self, geom: RouteGeometry, phase_m: float):
        self.geom = geom
        self.ref_time = 0.0
        self.ref_arc = phase_m
        self.available = True

    def patrol_pos(self, t: float, v_g: float) -> tuple[float, float]:
        return self.geom.position_at_arc(self.ref_arc + v_g * (t - self.ref_time))


def simulate(plan, scenario, events: list[EmergencyEvent], horizon_s: float,
             algo: AlgoParams, dispatch_policy: str = "nearest") -> SimulationResult:
    """Run the emergency protocol over the horizon and report per-event
    traces plus the impact on normal monitoring service.

    dispatch_policy "nearest" uses the distance rule over all available UAVs;
    "own_cluster" forces the alert sensor's own patrol UAV (used to check the
    analytic response bound).
    """
    if dispatch_policy not in ("nearest", "own_cluster"):
        raise ValueError(f"unknown dispatch_policy {dispatch_policy!r}")
    _check_horizon(horizon_s)
    n = len(scenario.xy)
    for k, e in enumerate(events):
        if not 0 <= e.sensor_id < n:
            raise ValueError(f"events[{k}].sensor_id: {e.sensor_id} is not a sensor id "
                             f"of the scenario [0, {n})")
        if e.alert_time_s > horizon_s:
            raise ValueError(f"event at sensor {e.sensor_id} alerts past the horizon")
    events = sorted(events, key=lambda e: e.alert_time_s)

    p = scenario.physical
    v = p.v_g
    # a memo hit on a repeated pair; a new pair's state is built from its table
    state = _plan_state(plan, scenario)
    edge_xy, geoms = state.edge_xy, state.geoms
    tra_s, exe_s, resume = state.tra_s, state.exe_s, state.resume
    rng = np.random.default_rng(derive_seed(algo.seed, "patrol-phase"))
    phases = tuple(float(rng.uniform(0.0, g.length_m)) if g.length_m > 0 else 0.0
                   for g in geoms)
    uavs = [_UavState(g, ph) for g, ph in zip(geoms, phases)]

    # timeline entries: (time, rank, seq, payload); alerts outrank frees so a
    # UAV freed at an alert instant can take that alert
    timeline: list = []
    for seq, ev in enumerate(events):
        heapq.heappush(timeline, (ev.alert_time_s, 0, seq, ev))
    free_seq = len(events)

    # pending alerts as (-priority, seq, event) heaps keyed by who may serve
    # them: one heap per UAV under "own_cluster", one for any UAV under "nearest"
    own = dispatch_policy == "own_cluster"
    pending: list[list] = [[] for _ in range(len(uavs) if own else 1)]
    traces: dict[int, EmergencyTrace] = {}
    absences: dict[int, list[tuple[float, float]]] = {j: [] for j in range(plan.m)}

    def record(seq: int, ev: EmergencyEvent, uav_id: int | None, eid: int, t_queue: float,
               t_disp: float, t_del: float, t_exe: float, widx: int | None, fb: bool):
        """The event's trace; uav_id None is a direct sensor served from its edge."""
        sid = ev.sensor_id
        resp = t_queue + t_disp + tra_s[sid] + t_del + t_exe
        traces[seq] = EmergencyTrace(
            event_seq=seq, sensor_id=sid, alert_time_s=ev.alert_time_s,
            priority=ev.priority, uav_id=uav_id, edge_id=eid, t_queue_s=t_queue,
            t_dispatch_travel_s=t_disp, t_tra_s=tra_s[sid], t_delivery_travel_s=t_del,
            t_exe_s=t_exe, response_time_s=resp, resume_waypoint=widx,
            deadline_met=resp <= p.t_urgent_s, delivery_fallback=fb,
            served_direct=uav_id is None)

    def dispatch(seq: int, ev: EmergencyEvent, uav_id: int, now: float):
        nonlocal free_seq
        uav, sid = uavs[uav_id], ev.sensor_id
        sx, sy = scenario.xy[sid].tolist()
        px, py = uav.patrol_pos(now, v)
        t_disp = math.hypot(px - sx, py - sy) / v
        eid, fb, t_del, t_exe = state.leg(sid, algo.theta_max)
        arrive = now + t_disp + tra_s[sid] + t_del

        back = resume.get((uav_id, eid))
        if back is None:
            ex, ey = edge_xy[eid]
            widx = resume_waypoint((ex, ey), uav.geom)
            # the depot for an empty tour, else the resume waypoint
            tx, ty = uav.geom.points[0 if widx is None else widx + 1].tolist()
            arc = 0.0 if widx is None else uav.geom.arc_of_waypoint(widx)
            back = resume[uav_id, eid] = (widx, arc, math.hypot(ex - tx, ey - ty))
        widx, arc, d_back = back
        t_back = arrive + d_back / v

        uav.available = False
        absences[uav_id].append((now, t_back))
        heapq.heappush(timeline, (t_back, 1, free_seq, (uav_id, arc)))
        free_seq += 1
        record(seq, ev, uav_id, eid, now - ev.alert_time_s, t_disp, t_del, t_exe, widx, fb)

    def try_dispatch(now: float):
        while True:
            tops = [(heap[0], key) for key, heap in enumerate(pending) if heap and
                    (uavs[key].available if own else any(u.available for u in uavs))]
            if not tops:
                return
            key = min(tops)[1]
            _, seq, ev = heapq.heappop(pending[key])
            uav_id = key if own else select_dispatch_uav(
                [(i, u.patrol_pos(now, v)) for i, u in enumerate(uavs) if u.available],
                scenario.xy[ev.sensor_id].tolist(), edge_xy)
            dispatch(seq, ev, uav_id, now)

    while timeline:
        now = timeline[0][0]
        # drain everything at this instant (alerts first) before dispatching
        while timeline and timeline[0][0] == now:
            _, rank, seq, payload = heapq.heappop(timeline)
            if rank == 0:
                ev = payload
                edge = plan.assignment.direct_map.get(ev.sensor_id)
                if edge is not None:
                    record(seq, ev, None, edge, 0.0, 0.0, 0.0, exe_s[ev.sensor_id], None, False)
                else:
                    key = plan.clustering.assignment[ev.sensor_id] if own else 0
                    heapq.heappush(pending[key], (-ev.priority, seq, ev))
            else:
                uav_id, arc = payload
                uav = uavs[uav_id]
                uav.ref_time = now
                uav.ref_arc = arc
                uav.available = True
        try_dispatch(now)

    impact = _normal_impact(plan, scenario, state, events, absences, horizon_s)
    return SimulationResult(traces=tuple(traces[i] for i in sorted(traces)),
                            impact=impact, horizon_s=horizon_s, phases_m=phases)


def _normal_impact(plan, scenario, state: _PlanState, events, absences,
                   horizon_s: float) -> NormalImpactReport:
    """Mean normal-service response over non-alert sensors, with the per-
    cluster expected wait recomputed under revisit periods inflated by the
    measured UAV absence episodes (weighted by their share of the horizon)."""
    p = scenario.physical
    r_sg, _, _ = link_ranges(p)
    contact = 2.0 * r_sg / p.v_g

    wait_with = np.zeros(len(plan.routes))
    for j, (route, base) in enumerate(zip(plan.routes, state.base_wait)):
        t_r = route.revisit_s
        episodes = [(max(0.0, min(e, horizon_s) - min(s, horizon_s)))
                    for s, e in absences.get(j, [])]
        episodes = [a for a in episodes if a > 0]
        if not episodes or t_r == 0.0:
            wait_with[j] = base
            continue
        inflated = [t_r + a for a in episodes]
        inflated_share = sum(inflated)
        normal_share = max(0.0, horizon_s - inflated_share)
        num = normal_share * base + sum(T * max(0.0, (T - contact) / 2.0) for T in inflated)
        wait_with[j] = num / (normal_share + inflated_share)

    # a direct sensor (cluster -1) has t_wait 0.0 and reads the appended 0.0
    with_wait = state.no_wait + np.append(wait_with, 0.0)[state.cluster]
    alert_ids = [e.sensor_id for e in events]
    base_vals, with_vals = np.delete(state.total, alert_ids), np.delete(with_wait, alert_ids)
    if not base_vals.size:
        return NormalImpactReport(0.0, 0.0, 0.0, 0.0)
    base_mean = float(np.mean(base_vals))
    with_mean = float(np.mean(with_vals))
    delta = with_mean - base_mean
    return NormalImpactReport(
        baseline_mean_s=base_mean, with_events_mean_s=with_mean, delta_s=delta,
        delta_fraction=delta / base_mean if base_mean > 0 else 0.0)


def emergency_response_bound(plan, scenario, theta_max: float) -> float:
    """Analytic worst-case emergency response when a sensor's own cluster
    UAV dispatches: two max-cluster-radius legs, the longest sensor-to-
    delivery-edge leg, and the largest upload and execution windows."""
    p = scenario.physical
    radii = [cluster_radius(scenario.xy[list(route.waypoints)], plan.clustering.centers[j])
             for j, route in enumerate(plan.routes)]
    r_max = max(radii) if radii else 0.0

    uav_ids = sorted(plan.clustering.assignment)
    if not uav_ids:
        raise ValueError("plan has no UAV-served sensors")
    state = _plan_state(plan, scenario)
    _, _, t_del, t_exe = zip(*(state.leg(sid, theta_max) for sid in uav_ids))
    t_tra_max = max(state.tra_s[sid] for sid in uav_ids)
    return 2.0 * r_max / p.v_g + max(t_del) + t_tra_max + max(t_exe)


def write_trace_csv(result: SimulationResult, path: str) -> None:
    fields = ["event_seq", "sensor_id", "alert_time_s", "priority", "uav_id",
              "edge_id", "t_queue_s", "t_dispatch_travel_s", "t_tra_s",
              "t_delivery_travel_s", "t_exe_s", "response_time_s",
              "resume_waypoint", "deadline_met", "delivery_fallback",
              "served_direct"]
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        for tr in result.traces:
            writer.writerow({k: getattr(tr, k) for k in fields})
