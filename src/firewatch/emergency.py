"""Event-driven emergency response simulation on top of a patrol plan.

UAVs fly their closed tours at constant speed from random starting arc
offsets.  When a sensor raises an alert, an available (patrolling) UAV is
diverted: it flies straight to the sensor, collects the data over the upload
window, ferries it to a delivery edge with spare utilization, and rejoins its
tour at the nearest waypoint.  All motion is piecewise linear, so every stage
time is closed-form; there is no tick loop.

The alerts are walked in time order beside a heap of the UAVs out on
alerts, keyed by return time, which holds at most m entries.  At each
instant every alert due is queued, then every UAV due back is freed, then
one launch pass runs, skipped while no UAV is free.  Each launch takes the
highest fire-history pending alert (FIFO within equal priority) whose
server is free.  The pass has one loop per policy: under "nearest" it pops
the one pending heap while a UAV is free and the dispatch rule picks among
the free UAVs; under "own_cluster" it takes the best top alert of the
heaps whose own UAV is free.  Events at direct sensors are served straight
from the edge, with terms from ``timing.all_responses``.  With one UAV
free, the dispatch rule returns it without a distance.  Each trace's
fields are stored straight into its instance dict, in field order.

What depends on the plan and scenario alone is kept with the pair's
response-term table, which ``timing.all_responses`` memoizes per pair:
each route's geometry, the sensor and edge columns and the table's upload
and execution columns as lists, each sensor's nearest-edge distance, the
normal-service totals with and without the wait term, each route's
expected wait, the in-contact window, the resume leg (waypoint, its arc,
edge-to-waypoint metres, the tour point at that arc, where a UAV relaunched
at the instant it returns starts from) of each (UAV, delivery edge) pair,
which ``queue_report`` reads too, and the delivery leg (edge, fallback,
travel and execution seconds) of each (sensor, theta_max) pair, which
``emergency_response_bound`` reads too.  One slot holds what the
normal-service means read of the sensors outside the last alerted set:
their count, the baseline mean, and their totals less the wait term and
clusters; daily drills alert the same sensors.  The patrol phases (drawn
from the call's seed) and the event timeline stay per call.
``queue_report`` derives the queue waits, pending depth and UAV busy time
from a result afterwards.
"""

from __future__ import annotations

import bisect
import heapq
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from . import timing
from .clustering import cluster_radius
from .edge_assignment import EdgeLoadState
from .model import AlgoParams, derive_seed, link_ranges
from .reader import read, write_csv, write_json
# kept importable: bench/tracer.py wraps response_time under this module's name
from .timing import execution_time, expected_wait, response_time  # noqa: F401

EVENTS_SCHEMA_VERSION = 1

# the longest horizon, s (about 31,700 years): far past it a patrol position,
# v_g * t metres along its tour, loses all precision, then overflows to inf
MAX_HORIZON_S = 1e12


@dataclass(frozen=True)
class EmergencyEvent:
    sensor_id: int
    alert_time_s: float
    priority: int   # the sensor's fire-history score

    def __post_init__(self):
        # NaN fails every comparison; simulate would never leave its instant
        if not (math.isfinite(self.alert_time_s) and self.alert_time_s >= 0):
            raise ValueError(f"alert_time_s must be finite and >= 0, got {self.alert_time_s}")
        # simulate orders the pending alerts by -priority
        if isinstance(self.priority, bool) or not isinstance(self.priority, (int, np.integer)):
            raise ValueError(f"priority must be an integer, got {self.priority!r}")


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
                        sensor_xy: tuple[float, float], to_edge_m: float) -> int:
    """Dispatch rule: among available (uav id, (x, y)) candidates minimize
    straight-line distance to the sensor plus ``to_edge_m``, the sensor's
    distance to its nearest edge (ties by lowest uav id)."""
    if len(candidates) == 1:
        return candidates[0][0]     # the rule's pick of one; no distance needed
    if not candidates:
        raise ValueError("no available UAV")
    sx, sy = sensor_xy
    # the constant term stays in every key: adding it can round two
    # distances that differ by an ulp to one sum, which the id then breaks
    return min(candidates, key=lambda c: (math.hypot(c[1][0] - sx, c[1][1] - sy) + to_edge_m,
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


def check_horizon(horizon_s: float, name: str = "horizon_s") -> None:
    """Raise ValueError naming ``name`` unless the horizon is a finite
    number > 0 and at most MAX_HORIZON_S."""
    # NaN fails every comparison, so "<= 0" alone would let it through
    if not (math.isfinite(horizon_s) and horizon_s > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {horizon_s}")
    if horizon_s > MAX_HORIZON_S:
        raise ValueError(f"{name} must be at most {MAX_HORIZON_S:g}, got {horizon_s}")


def generate_events(scenario, plan, n_events: int, horizon_s: float, seed: int,
                    min_history: int = 50) -> list[EmergencyEvent]:
    """Auto-generate alerts at the n highest-fire-history UAV-served sensors
    scoring above min_history, at uniform-random times within the horizon."""
    if n_events < 0:
        raise ValueError(f"n_events must be >= 0, got {n_events}")
    check_horizon(horizon_s)
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
    write_json(path, doc)


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

    __slots__ = ("terms", "cluster", "geoms", "xy", "edge_xy", "capacity", "beta", "load", "v",
                 "tra_s", "exe_s", "total", "no_wait", "base_wait", "resume", "legs", "to_edge",
                 "contact", "kept")

    def __init__(self, plan, scenario, terms, cluster):
        self.terms, self.cluster = terms, cluster
        self.geoms = [RouteGeometry.from_route(r, scenario) for r in plan.routes]
        self.xy, self.beta, self.v = scenario.xy.tolist(), scenario.beta_mi, scenario.physical.v_g
        self.edge_xy, self.capacity = scenario.edge_xy.tolist(), scenario.capacity.tolist()
        self.load = plan.assignment.load
        # from the pair's response-term table: upload and execution times per
        # sensor, normal-service totals, the totals less the wait term, and
        # each route's expected wait without alerts
        self.tra_s, self.exe_s = terms[:, 1].tolist(), terms[:, 2].tolist()
        self.total = timing.totals(terms)
        self.no_wait = self.total - terms[:, 3]
        self.base_wait = [expected_wait(r.length_m, scenario.physical) for r in plan.routes]
        # seconds a patrolling UAV is in range of a sensor it passes
        self.contact = 2.0 * link_ranges(scenario.physical)[0] / self.v
        # (uav id, edge id) -> (resume waypoint, its arc, edge-to-waypoint
        # metres, the tour point at that arc)
        self.resume: dict[tuple[int, int],
                          tuple[int | None, float, float, tuple[float, float]]] = {}
        # (sensor id, theta_max) -> (delivery edge id, fallback, travel s, execution s)
        self.legs: dict[tuple[int, float], tuple[int, bool, float, float]] = {}
        # sensor id -> metres to its nearest edge, the dispatch rule's constant
        self.to_edge: dict[int, float] = {}
        # one slot: the last alert-sensor set's means inputs, see kept_sensors
        self.kept: tuple | None = None

    def nearest_edge_m(self, sid: int) -> float:
        """Sensor sid's distance to its nearest edge, built on first need."""
        d = self.to_edge.get(sid)
        if d is None:
            sx, sy = self.xy[sid]
            d = self.to_edge[sid] = min(math.hypot(sx - ex, sy - ey) for ex, ey in self.edge_xy)
        return d

    def resume_leg(self, uav_id: int,
                   eid: int) -> tuple[int | None, float, float, tuple[float, float]]:
        """Where UAV uav_id rejoins its tour after delivering at edge eid:
        the resume waypoint (None for an empty tour, which returns to the
        depot), its arc, the metres from the edge to it, and the tour's
        ``position_at_arc`` of that arc, where a UAV relaunched at the
        instant it returns starts from; built on first need."""
        back = self.resume.get((uav_id, eid))
        if back is None:
            geom = self.geoms[uav_id]
            ex, ey = self.edge_xy[eid]
            widx = resume_waypoint((ex, ey), geom)
            tx, ty = geom.points[0 if widx is None else widx + 1].tolist()
            arc = 0.0 if widx is None else geom.arc_of_waypoint(widx)
            back = self.resume[uav_id, eid] = (widx, arc, math.hypot(ex - tx, ey - ty),
                                               geom.position_at_arc(arc))
        return back

    def leg(self, sid: int, theta_max: float) -> tuple[int, bool, float, float]:
        """The delivery leg of an alert at sensor sid, built on first need."""
        leg = self.legs.get((sid, theta_max))
        if leg is None:
            sx, sy = self.xy[sid]
            eid, fb = select_delivery_edge((sx, sy), self.edge_xy, self.load, theta_max)
            ex, ey = self.edge_xy[eid]
            leg = self.legs[sid, theta_max] = (
                eid, fb, math.hypot(sx - ex, sy - ey) / self.v,
                execution_time(float(self.beta[sid]), self.capacity[eid]))
        return leg

    def kept_sensors(self, alerted: set[int]):
        """What the normal-service means read of the sensors outside the
        alerted set: their count, the baseline mean over them, and their
        totals less the wait term and their cluster columns, in id order;
        None when no sensor is left.  Kept for the last set, which a day's
        drills repeat: they alert the same top-history sensors."""
        kept = self.kept      # read once: a thread may replace it meanwhile
        if kept is None or kept[0] != alerted:
            count, means = len(self.total) - len(alerted), None
            if count:
                keep = np.ones(len(self.total), dtype=bool)
                keep[list(alerted)] = False
                # add.reduce(x) / count is np.mean's sum over the same
                # elements and its exact integer-to-float division, so the
                # same bits
                base_mean = float(np.add.reduce(self.total[keep])) / count
                means = (count, base_mean, self.no_wait[keep], self.cluster[keep])
            self.kept = kept = (alerted, means)
        return kept[1]


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
    __slots__ = ("geom", "ref_time", "ref_arc", "ref_pos", "available")

    def __init__(self, geom: RouteGeometry, phase_m: float):
        self.geom = geom
        self.ref_time = 0.0
        self.ref_arc = phase_m
        # the point at ref_arc once the UAV is back from an alert, else None
        self.ref_pos = None
        self.available = True

    def patrol_pos(self, t: float, v_g: float) -> tuple[float, float]:
        # at the instant of its return the arc is ref_arc + v_g * 0.0, which
        # is ref_arc, so the point memoized with the resume leg has its bits
        if t == self.ref_time and self.ref_pos is not None:
            return self.ref_pos
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
    check_horizon(horizon_s)
    n = len(scenario.xy)
    for k, e in enumerate(events):
        sid = e.sensor_id
        # a bool passes as an int, and a float would fail later as a list index
        if type(sid) is not int and (isinstance(sid, bool)
                                     or not isinstance(sid, (int, np.integer))):
            raise ValueError(f"events[{k}].sensor_id: {sid!r} is not an integer")
        if not 0 <= sid < n:
            raise ValueError(f"events[{k}].sensor_id: {sid} is not a sensor id "
                             f"of the scenario [0, {n})")
        if e.alert_time_s > horizon_s:
            raise ValueError(f"events[{k}].alert_time_s: {e.alert_time_s} is past the "
                             f"horizon {horizon_s}")
    events = sorted(events, key=operator.attrgetter("alert_time_s"))

    p = scenario.physical
    v, t_urgent = p.v_g, p.t_urgent_s
    # a memo hit on a repeated pair; a new pair's state is built from its table
    state = _plan_state(plan, scenario)
    geoms, sensor_xy, tra_s, exe_s = state.geoms, state.xy, state.tra_s, state.exe_s
    # one draw per tour of positive length, as rng.uniform(0.0, length) did
    # one call each: that is 0.0 + length * u for the next double u, so the
    # same bits as length * u
    rng = np.random.default_rng(derive_seed(algo.seed, "patrol-phase"))
    draws = iter(rng.random(sum(g.length_m > 0 for g in geoms)).tolist())
    phases = tuple(g.length_m * next(draws) if g.length_m > 0 else 0.0 for g in geoms)
    uavs = [_UavState(g, ph) for g, ph in zip(geoms, phases)]
    n_free = len(uavs)

    # the alerts are walked in time order, seq their sorted position; UAVs out
    # on alerts return through a heap of (t_back, uav id, resume arc, the
    # tour point at that arc), which holds each UAV at most once, so the id
    # breaks ties and it holds at most m
    returns: list = []

    # pending alerts as (-priority, seq, event) heaps keyed by who may serve
    # them: one per UAV under "own_cluster", one queue for any UAV under "nearest"
    own = dispatch_policy == "own_cluster"
    pending: list[list] = [[] for _ in uavs] if own else []
    queue: list = []
    traces: list = [None] * len(events)       # indexed by seq
    absences: list[list[tuple[float, float]]] = [[] for _ in uavs]

    def record(seq: int, ev: EmergencyEvent, uav_id: int | None, eid: int, t_queue: float,
               t_disp: float, t_del: float, t_exe: float, widx: int | None, fb: bool):
        """The event's trace; uav_id None is a direct sensor served from its edge."""
        sid = ev.sensor_id
        t_tra = tra_s[sid]
        resp = t_queue + t_disp + t_tra + t_del + t_exe
        # the fields stored straight into the instance dict, in field order,
        # skipping the generated __init__'s 16 object.__setattr__ calls; the
        # order keeps the dict sharing its keys with every other trace
        traces[seq] = tr = object.__new__(EmergencyTrace)
        d = tr.__dict__
        d["event_seq"], d["sensor_id"], d["alert_time_s"], d["priority"] = (
            seq, sid, ev.alert_time_s, ev.priority)
        d["uav_id"], d["edge_id"], d["t_queue_s"], d["t_dispatch_travel_s"] = (
            uav_id, eid, t_queue, t_disp)
        d["t_tra_s"], d["t_delivery_travel_s"], d["t_exe_s"], d["response_time_s"] = (
            t_tra, t_del, t_exe, resp)
        d["resume_waypoint"], d["deadline_met"], d["delivery_fallback"], d["served_direct"] = (
            widx, resp <= t_urgent, fb, uav_id is None)

    def dispatch(seq: int, ev: EmergencyEvent, uav_id: int, now: float, pos):
        nonlocal n_free
        uav, sid = uavs[uav_id], ev.sensor_id
        (sx, sy), (px, py) = sensor_xy[sid], pos
        t_disp = math.hypot(px - sx, py - sy) / v
        eid, fb, t_del, t_exe = state.leg(sid, algo.theta_max)
        arrive = now + t_disp + tra_s[sid] + t_del
        widx, arc, d_back, back_pos = state.resume_leg(uav_id, eid)
        t_back = arrive + d_back / v

        uav.available = False
        n_free -= 1
        absences[uav_id].append((now, t_back))
        heapq.heappush(returns, (t_back, uav_id, arc, back_pos))
        record(seq, ev, uav_id, eid, now - ev.alert_time_s, t_disp, t_del, t_exe, widx, fb)

    direct_map, owner = plan.assignment.direct_map, plan.clustering.assignment
    times, k, n_events = [e.alert_time_s for e in events] + [math.inf], 0, len(events)
    while k < n_events or returns:
        # the next alert or return, the alert's time when the two compare equal
        now = times[k]
        if returns and returns[0][0] < now:
            now = returns[0][0]
        # every alert due at this instant, then every UAV due back, so the
        # launch pass after both can give a freed UAV an alert of the instant
        while times[k] == now:
            ev = events[k]
            sid = ev.sensor_id
            edge = direct_map.get(sid)
            if edge is not None:
                record(k, ev, None, edge, 0.0, 0.0, 0.0, exe_s[sid], None, False)
            else:
                heapq.heappush(pending[owner[sid]] if own else queue, (-ev.priority, k, ev))
            k += 1
        while returns and returns[0][0] == now:
            _, uav_id, arc, back_pos = heapq.heappop(returns)
            uav = uavs[uav_id]
            uav.ref_time, uav.ref_arc, uav.ref_pos, uav.available = now, arc, back_pos, True
            n_free += 1
        # one launch pass, skipped while no UAV is free
        if own:
            # the top alert of each free UAV's own heap, best first
            while n_free:
                tops = [(heap[0], j) for j, heap in enumerate(pending)
                        if heap and uavs[j].available]
                if not tops:
                    break
                j = min(tops)[1]
                _, seq, ev = heapq.heappop(pending[j])
                dispatch(seq, ev, j, now, uavs[j].patrol_pos(now, v))
        else:
            # the one heap's top alert goes to the rule's pick of the free UAVs
            while n_free and queue:
                _, seq, ev = heapq.heappop(queue)
                free = [(i, u.patrol_pos(now, v)) for i, u in enumerate(uavs) if u.available]
                sid = ev.sensor_id
                uav_id = select_dispatch_uav(free, sensor_xy[sid], state.nearest_edge_m(sid))
                dispatch(seq, ev, uav_id, now, free[0][1] if n_free == 1 else dict(free)[uav_id])

    impact = _normal_impact(plan, state, events, absences, horizon_s)
    return SimulationResult(traces=tuple(traces), impact=impact, horizon_s=horizon_s,
                            phases_m=phases)


def _normal_impact(plan, state: _PlanState, events, absences,
                   horizon_s: float) -> NormalImpactReport:
    """Mean normal-service response over non-alert sensors, with the per-
    cluster expected wait recomputed under revisit periods inflated by the
    measured UAV absence episodes (weighted by their share of the horizon)."""
    contact, waits = state.contact, []
    for route, base, spans in zip(plan.routes, state.base_wait, absences):
        t_r = route.revisit_s
        # each absence episode cut at the horizon, the empty ones dropped
        inflated = [t_r + a for a in (min(e, horizon_s) - min(s, horizon_s) for s, e in spans)
                    if a > 0]
        if not inflated or t_r == 0.0:
            waits.append(base)
            continue
        inflated_share = sum(inflated)
        normal_share = max(0.0, horizon_s - inflated_share)
        num = normal_share * base + sum(T * max(0.0, (T - contact) / 2.0) for T in inflated)
        waits.append(num / (normal_share + inflated_share))
    # a direct sensor (cluster -1) has t_wait 0.0 and reads the appended 0.0
    waits.append(0.0)

    kept = state.kept_sensors({e.sensor_id for e in events})
    if kept is None:
        return NormalImpactReport(0.0, 0.0, 0.0, 0.0)
    count, base_mean, no_wait, cluster = kept
    # the kept sensors' with-wait totals summed as the masked full column
    # was: the same elements in the same order, so the same bits
    with_mean = float(np.add.reduce(no_wait + np.array(waits)[cluster])) / count
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


def queue_report(result: SimulationResult, plan, scenario) -> dict:
    """How loaded the UAVs were in a ``simulate`` result on the plan: the
    mean and longest queue wait over all alerts (0 for an alert served at
    once or at a direct sensor), the most alerts waiting for a UAV at one
    instant (an arrival counted before a dispatch at the same time), and
    each UAV's share of the horizon spent away from patrol on alerts, from
    its launch to its return to the tour, cut at the horizon."""
    state = _plan_state(plan, scenario)
    v, horizon = scenario.physical.v_g, result.horizon_s
    busy = [0.0] * len(state.geoms)
    marks = []
    for tr in result.traces:
        if tr.uav_id is None:
            continue
        launch = tr.alert_time_s + tr.t_queue_s
        marks += [(tr.alert_time_s, 0), (launch, 1)]      # arrivals first at a tie
        _, _, d_back, _ = state.resume_leg(tr.uav_id, tr.edge_id)
        back = (launch + tr.t_dispatch_travel_s + tr.t_tra_s + tr.t_delivery_travel_s
                + d_back / v)
        busy[tr.uav_id] += min(back, horizon) - min(launch, horizon)
    depth = peak = 0
    for _, kind in sorted(marks):
        depth += 1 if kind == 0 else -1
        peak = max(peak, depth)
    waits = [tr.t_queue_s for tr in result.traces]
    return {
        "mean_queue_wait_s": sum(waits) / len(waits) if waits else 0.0,
        "max_queue_wait_s": max(waits, default=0.0),
        "peak_pending": peak,
        "uav_busy_fraction": [b / horizon for b in busy],
    }


def write_trace_csv(result: SimulationResult, path: str) -> None:
    """One row per trace, one column per ``EmergencyTrace`` field in order."""
    write_csv(path, [f.name for f in fields(EmergencyTrace)], map(vars, result.traces))
