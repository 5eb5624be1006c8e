"""Hand-built instances and brute-force oracles shared across test modules."""

from __future__ import annotations

import contextlib
import glob
import heapq
import itertools
import math
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

from firewatch import baselines, planner, timing
from firewatch.baselines import CROSSOVER_RATE, MUTATION_RATE, TOURNAMENT_SIZE
from firewatch.clustering import (MAX_ITERS, Clustering, cluster_radius, init_centers,
                                  sensor_weight, weighted_kmeans)
from firewatch.edge_assignment import EdgeLoadState, RepairFailure, assign_direct, cluster_demand
from firewatch import emergency
from firewatch.emergency import select_delivery_edge
from firewatch.model import (EdgeNode, PhysicalParams, Point2D, RequestProfile, Sensor,
                             column_distances, derive_seed, link_ranges)
from firewatch.routing import tour_length, tour_lower_bound
from firewatch.scenario import GenConfig, Scenario, ScenarioMeta, generate


# the wall time after which tests/conftest.py fails a test that is still running
TEST_TIME_LIMIT_S = 300.0


class TimeLimitExceeded(BaseException):
    """Raised by `time_limit` when its time runs out.  A BaseException, like
    KeyboardInterrupt, so that an ``except Exception`` in the code under test
    does not swallow it."""


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeLimitExceeded in the block once ``seconds`` of wall time pass.

    Built on SIGALRM and ITIMER_REAL, so it acts on the main thread only and
    does nothing elsewhere.  On exit it restores the previous handler and what
    was left of a timer armed before it.  A forked child does not inherit the
    timer, and a subprocess needs its own ``timeout=``."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds:g} s")

    old_handler = signal.signal(signal.SIGALRM, expire)
    old_delay, old_interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
        if old_delay:
            # an outer limit already past its time fires at once
            left = max(old_delay - (time.monotonic() - start), 1e-6)
            signal.setitimer(signal.ITIMER_REAL, left, old_interval)


def build_scenario(sensor_specs, edge_specs, physical: PhysicalParams | None = None) -> Scenario:
    """Assemble a Scenario from raw tuples.

    sensor_specs: iterable of (x, y, fire_history, alpha_mb, beta_mi)
    edge_specs:   iterable of (x, y, capacity_mips)
    """
    p = physical if physical is not None else PhysicalParams()
    sensors = tuple(
        Sensor(id=i, pos=Point2D(float(x), float(y)), fire_history=int(h),
               request=RequestProfile(float(a), float(b)))
        for i, (x, y, h, a, b) in enumerate(sensor_specs))
    edges = tuple(
        EdgeNode(id=k, pos=Point2D(float(x), float(y)), capacity_mips=float(c))
        for k, (x, y, c) in enumerate(edge_specs))
    meta = ScenarioMeta(seed=0, hotspots=(), hotspot_sensor_ids=())
    return Scenario(physical=p, sensors=sensors, edges=edges, meta=meta)


def phase1_oracle(scenario):
    """Phase 1 as two passes over the Sensor and EdgeNode objects: split the
    sensors, in ascending id, by whether any edge is within r_se; then attach
    each direct sensor to its nearest in-range edge (ties by lowest edge id)
    and add compute_mi / t_period to that edge's load.  Returns the UAV-served
    ids, the direct map and the loads, as lists and a dict."""
    p = scenario.physical
    _, _, r_se = link_ranges(p)
    direct, uav = [], []
    for s in sorted(scenario.sensors, key=lambda s: s.id):
        if any(math.hypot(s.pos.x - e.pos.x, s.pos.y - e.pos.y) <= r_se
               for e in scenario.edges):
            direct.append(s)
        else:
            uav.append(s.id)
    direct_map, loads = {}, [0.0] * len(scenario.edges)
    for s in direct:
        best, best_d = None, None
        for e in scenario.edges:
            d = math.hypot(s.pos.x - e.pos.x, s.pos.y - e.pos.y)
            if d <= r_se and (best_d is None or d < best_d):
                best, best_d = e.id, d
        direct_map[s.id] = best
        loads[best] += s.request.compute_mi / p.t_period_s
    return uav, direct_map, loads


def phase1_loop_oracle(scenario):
    """Phase 1 as one pass over the sensors with one ``math.hypot`` list per
    sensor, its minimum taken by ``min`` and ``.index``: the loop the
    per-edge columns of ``assign_direct`` replaced.  Returns the UAV-served
    ids, the direct map and the loads, as lists and a dict."""
    p = scenario.physical
    _, _, r_se = link_ranges(p)
    edges, beta = scenario.edge_xy.tolist(), scenario.beta_mi.tolist()
    loads = [0.0] * len(edges)
    direct_map, uav_ids = {}, []
    for i, (x, y) in enumerate(scenario.xy.tolist()):
        d = [math.hypot(x - ex, y - ey) for ex, ey in edges]
        d_min = min(d, default=math.inf)
        if d_min <= r_se:
            k = d.index(d_min)
            direct_map[i] = k
            loads[k] += beta[i] / p.t_period_s
        else:
            uav_ids.append(i)
    return uav_ids, direct_map, loads


def brute_force_tour_optimum(depot_xy, xy: np.ndarray) -> float:
    """Exact optimum of the closed tour depot -> points -> depot.

    Mirror tours have equal length, so permutations with first > last are
    skipped.  The rest are scored at once with ``tour_length``'s arithmetic,
    so the result equals the minimum of ``tour_length`` over them bit for
    bit: the legs in visiting order are a norm over the last axis, summed
    per tour, and the closing leg is ``sqrt(c @ c)``, the dot kernel a 1-D
    ``np.linalg.norm`` uses (a norm over an axis may round differently).
    Only sane for <= 8 points.
    """
    n = len(xy)
    if n == 0:
        return 0.0
    if n == 1:
        return tour_length(depot_xy, xy)
    perms = np.array([p for p in itertools.permutations(range(n)) if p[0] < p[-1]])
    depot = np.broadcast_to(np.asarray(depot_xy, dtype=float), (len(perms), 1, 2))
    pts = np.concatenate([depot, xy[perms]], axis=1)
    legs = np.linalg.norm(np.diff(pts, axis=1), axis=2).sum(axis=1)
    c = pts[:, -1] - pts[:, 0]
    closing = np.sqrt(c[:, None, :] @ c[:, :, None])[:, 0, 0]
    return float((legs + closing).min())


def _rings(**limit):
    """Two rings of 16 sensors, each on a 2.5 km circle through its own edge,
    and 6 direct sensors 400 m from each edge.  Two UAVs can fly the rings,
    each within 0.1% of the limit, and the whole-fleet bound is 94% of two
    limits: a bound 7% too high, or one counting the direct sensors, would
    skip the fleet size the planner returns."""
    ang = np.linspace(0.3, 2 * np.pi - 0.3, 16)
    pts = [(cx + 2500.0 * np.sin(a), 10000.0 + 2500.0 * (1 - np.cos(a)))
           for cx in (5000.0, 15000.0) for a in ang]
    pts += [(cx + 400.0 * np.sin(a), 10000.0 - 400.0 * np.cos(a))
            for cx in (5000.0, 15000.0) for a in np.linspace(1.0, 2 * np.pi - 1.0, 6)]
    return build_scenario([(x, y, 0, 1.0, 100.0) for x, y in pts],
                          [(5000.0, 10000.0, 5000.0), (15000.0, 10000.0, 5000.0)],
                          PhysicalParams(area_km2=400.0, m_max=6, **limit))


def bound_scenarios():
    """Scenarios where the whole-fleet bound rules out one UAV or more.  40
    sensors in 16 km^2, seeds 0 and 1: a short revisit period (the planner
    needs 3 or 2 UAVs), a small energy budget (10 or 5 UAVs) and a smaller
    one (infeasible up to m_max); and the two rings, 2 UAVs under a revisit
    or an energy limit."""
    out = {f"{name}-s{seed}": generate(GenConfig(n_sensors=40, n_edges=3, seed=seed),
                                       PhysicalParams(area_km2=16.0, m_max=10, **limit))
           for name, limit in (("revisit", {"t_max_s": 900.0}),
                               ("energy", {"e_max_wh": 15.0}),
                               ("infeasible", {"e_max_wh": 10.0}))
           for seed in (0, 1)}
    out["rings-revisit"] = _rings(t_max_s=1042.0)
    out["rings-energy"] = _rings(e_max_wh=29.0)
    return out


def norm_tour_lower_bound(depot_xy, xy: np.ndarray) -> float:
    """``routing.tour_lower_bound`` before its distances became a complex
    modulus: the same Prim over one full-length vector, each step's
    distances ``column_distances``, the bits of ``np.linalg.norm``."""
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    dx, dy = np.empty(n), np.empty(n)
    (ex, ey), *more = np.asarray(depot_xy, dtype=float).reshape(-1, 2).tolist()
    to_tree = column_distances(x, y, ex, ey, dx, dy).copy()
    for ex, ey in more:
        np.minimum(to_tree, column_distances(x, y, ex, ey, dx, dy), out=to_tree)
    total = 0.0
    for _ in range(n):
        pick = int(to_tree.argmin())
        total += float(to_tree[pick])
        px, py = x[pick], y[pick]
        x[pick] = to_tree[pick] = np.inf
        np.minimum(to_tree, column_distances(x, y, px, py, dx, dy), out=to_tree)
    return total


def fleet_tree_bound(scenario) -> float:
    """The spanning tree over the UAV-served sensors and every edge merged
    into one depot: no plan's routes are shorter in total."""
    uav_ids = phase1_oracle(scenario)[0]
    return tour_lower_bound(scenario.edge_xy, scenario.xy[uav_ids])


def fleet_start(scenario) -> int:
    """The fleet size the sizing loop starts at from one UAV."""
    return planner._fleet_lower_bound(scenario, phase1_oracle(scenario)[1], 1)


def unskip_fleet_sizes(monkeypatch) -> None:
    """Make the sizing loop start at the initial fleet size again."""
    monkeypatch.setattr(planner, "_fleet_lower_bound",
                        lambda scenario, direct_map, first: first)


def outcomes(make_plan, scenarios) -> dict:
    """Per scenario name, plan_to_doc of ``make_plan(scenario)``, or the
    binding constraints it raised InfeasibleError with."""
    out = {}
    for name, sc in scenarios.items():
        try:
            out[name] = planner.plan_to_doc(make_plan(sc), sc)
        except planner.InfeasibleError as e:
            out[name] = e.binding
    return out


def processes_where(field: str, value: int) -> list[int]:
    """Pids of the live processes whose ``field`` ("ppid" or "session") in
    /proc/<pid>/stat equals ``value``."""
    at = {"ppid": 1, "session": 3}[field]      # counted from the state field
    pids = []
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path) as f:
                stat = f.read()
        except OSError:                         # the process has gone
            continue
        # the command name is in parentheses and may hold spaces
        if int(stat.rsplit(")", 1)[1].split()[at]) == value:
            pids.append(int(path.split("/")[2]))
    return pids


def without_column(data: bytes, column: str) -> bytes:
    """The bytes of a CSV file with one column cut out of every line; the
    other fields keep their bytes (no field of these files holds a comma)."""
    lines = data.split(b"\r\n")
    header = lines[0].split(b",")
    k = header.index(column.encode())
    out = []
    for line in lines:
        fields = line.split(b",")
        if line:
            assert len(fields) == len(header)
            del fields[k]
        out.append(b",".join(fields))
    return b"\r\n".join(out)


def feasible(pl, scenario) -> bool:
    """True when the plan meets every limit.  ``planner._check_structure``
    recomputes every route from its waypoints and raises InputError where a
    stored length, revisit period or energy differs, or where the parts
    disagree; then each edge's load recomputed from the direct and cluster
    maps must be within its capacity, each route within the revisit period
    and the energy budget, and the fleet within m_max."""
    p = scenario.physical
    planner._check_structure(pl.clustering, pl.assignment, pl.routes, scenario)
    loads = planner._edge_loads(pl.assignment, pl.routes, scenario)
    return (all(load <= cap for load, cap in zip(loads, scenario.capacity.tolist()))
            and all(r.revisit_s <= p.t_max_s and r.energy_wh <= p.e_max_wh for r in pl.routes)
            and pl.m <= p.m_max)


def members(clustering: Clustering, j: int) -> list[int]:
    """The ids of cluster j's sensors, ascending."""
    return sorted(s for s, c in clustering.assignment.items() if c == j)


# coverage_improvement_check: k-means convergence threshold (m) of both arms,
# and the fire-history score above which a sensor counts as high-risk
COVERAGE_EPSILON_M = 10.0
HIGH_RISK_MIN = 50


@dataclass(frozen=True)
class CoverageCheckResult:
    """Weighted-vs-unweighted comparison of the cluster radius experienced by
    high-risk sensors (each sensor's own distance to its assigned center,
    averaged over the high-risk set).  holds iff lhs <= rhs where
    rhs = 2 / (1 + mean_high_risk_weight / w_max) * unweighted mean."""

    lhs_m: float                 # mean experienced distance, weighted run
    rhs_m: float                 # factor * unweighted mean
    holds: bool
    weighted_mean_distance_m: float
    unweighted_mean_distance_m: float
    factor: float


def _experienced_mean(xy: np.ndarray, ids: np.ndarray, high_mask: np.ndarray,
                      clustering: Clustering) -> float:
    centers = np.asarray(clustering.centers)
    a = np.array([clustering.assignment[i] for i in ids.tolist()])
    d = np.linalg.norm(xy - centers[a], axis=1)
    return float(d[high_mask].mean())


def coverage_improvement_check(scenario, m: int, omega_h: float,
                               seeds: list[int]) -> CoverageCheckResult:
    """Check that weighting shrinks the cluster radius experienced by
    high-risk sensors (fire_history > HIGH_RISK_MIN) relative to the analytic
    bound on the unweighted run, both arms clustered by the shipped
    ``weighted_kmeans``.

    Both arms start from identical initial centers per seed; the experienced
    distances are averaged over seeds.
    """
    ids = assign_direct(scenario)[0]
    weights = sensor_weight(scenario.fire_history[ids], omega_h)
    w_max = float(weights.max())
    high_mask = scenario.fire_history[ids] > HIGH_RISK_MIN
    if not high_mask.any():
        raise ValueError(
            f"no high-risk sensor (fire_history > {HIGH_RISK_MIN}) present")
    factor = 2.0 / (1.0 + float(weights[high_mask].mean()) / w_max)

    xy = scenario.xy[ids]
    lhs_vals, base_vals = [], []
    for seed in seeds:
        rng = np.random.default_rng(derive_seed(seed, "coverage-check-init"))
        centers0 = init_centers(m, scenario.edge_xy, xy, weights, rng)
        weighted = weighted_kmeans(scenario, ids, m, omega_h, COVERAGE_EPSILON_M,
                                   rng, initial_centers=centers0)
        unweighted = weighted_kmeans(scenario, ids, m, 0.0, COVERAGE_EPSILON_M,
                                     rng, initial_centers=centers0)
        lhs_vals.append(_experienced_mean(xy, ids, high_mask, weighted))
        base_vals.append(_experienced_mean(xy, ids, high_mask, unweighted))

    lhs = float(np.mean(lhs_vals))
    base = float(np.mean(base_vals))
    rhs = factor * base
    # float noise must not flip a mathematically tied case (equal weights)
    tol = 1e-9 * max(1.0, abs(rhs))
    return CoverageCheckResult(lhs_m=lhs, rhs_m=rhs, holds=lhs <= rhs + tol,
                               weighted_mean_distance_m=lhs,
                               unweighted_mean_distance_m=base, factor=factor)


def blob(center, offsets):
    """Positions around a center; offsets are (dx, dy) pairs."""
    cx, cy = center
    return [(cx + dx, cy + dy) for dx, dy in offsets]


def response_bound_oracle(plan, scenario, theta_max: float) -> float:
    """``emergency_response_bound`` as one loop over the UAV-served sensors
    that chooses each delivery edge afresh: two max-cluster-radius legs, the
    longest sensor-to-delivery-edge leg, and the largest upload and
    execution windows."""
    p = scenario.physical
    radii = [cluster_radius(scenario.xy[list(route.waypoints)], plan.clustering.centers[j])
             for j, route in enumerate(plan.routes)]
    r_max = max(radii) if radii else 0.0

    uav_ids = sorted(plan.clustering.assignment)
    if not uav_ids:
        raise ValueError("plan has no UAV-served sensors")
    t_tra_max = float(timing.all_responses(plan, scenario)[0][uav_ids, 1].max())
    edge_xy, capacity = scenario.edge_xy.tolist(), scenario.capacity.tolist()
    d_del, t_exe_max = 0.0, 0.0
    for sid in uav_ids:
        sx, sy = scenario.xy[sid].tolist()
        eid, _ = select_delivery_edge((sx, sy), edge_xy, plan.assignment.load, theta_max)
        d_del = max(d_del, math.hypot(sx - edge_xy[eid][0], sy - edge_xy[eid][1]))
        t_exe_max = max(t_exe_max, timing.execution_time(float(scenario.beta_mi[sid]),
                                                         capacity[eid]))
    return 2.0 * r_max / p.v_g + d_del / p.v_g + t_tra_max + t_exe_max


def _select_dispatch_uav_oracle(candidates, sensor_xy, edge_xy) -> int:
    """The dispatch rule with the nearest-edge distance worked out per call."""
    if not candidates:
        raise ValueError("no available UAV")
    sx, sy = sensor_xy
    to_edge = min(math.hypot(sx - ex, sy - ey) for ex, ey in edge_xy)
    return min(candidates, key=lambda c: (math.hypot(c[1][0] - sx, c[1][1] - sy) + to_edge,
                                          c[0]))[0]


def simulate_oracle(plan, scenario, events, horizon_s: float, algo,
                    dispatch_policy: str = "nearest"):
    """``emergency.simulate`` on one heap of every alert and UAV return,
    keyed (time, rank, seq) with alerts at rank 0 ahead of returns at rank
    1, a launch attempt after every instant whether or not a UAV is free,
    the nearest-edge distance and the patrol position of the chosen UAV
    worked out afresh at each dispatch, and the impact from
    ``normal_impact_oracle``.  The route geometry, term columns and delivery
    legs come from the simulator's own plan state, so a comparison checks
    the event loop, the dispatch and the means only."""
    own = dispatch_policy == "own_cluster"
    events = sorted(events, key=lambda e: e.alert_time_s)
    p = scenario.physical
    v = p.v_g
    state = emergency._plan_state(plan, scenario)
    edge_xy, geoms, tra_s, exe_s = state.edge_xy, state.geoms, state.tra_s, state.exe_s
    rng = np.random.default_rng(derive_seed(algo.seed, "patrol-phase"))
    phases = tuple(float(rng.uniform(0.0, g.length_m)) if g.length_m > 0 else 0.0
                   for g in geoms)
    uavs = [emergency._UavState(g, ph) for g, ph in zip(geoms, phases)]
    timeline = []
    for seq, ev in enumerate(events):
        heapq.heappush(timeline, (ev.alert_time_s, 0, seq, ev))
    free_seq = len(events)
    pending = [[] for _ in range(len(uavs) if own else 1)]
    traces, absences = {}, {j: [] for j in range(plan.m)}

    def record(seq, ev, uav_id, eid, t_queue, t_disp, t_del, t_exe, widx, fb):
        sid = ev.sensor_id
        resp = t_queue + t_disp + tra_s[sid] + t_del + t_exe
        traces[seq] = emergency.EmergencyTrace(
            seq, sid, ev.alert_time_s, ev.priority, uav_id, eid, t_queue, t_disp, tra_s[sid],
            t_del, t_exe, resp, widx, resp <= p.t_urgent_s, fb, uav_id is None)

    def dispatch(seq, ev, uav_id, now):
        nonlocal free_seq
        uav, sid = uavs[uav_id], ev.sensor_id
        sx, sy = scenario.xy[sid].tolist()
        px, py = uav.patrol_pos(now, v)
        t_disp = math.hypot(px - sx, py - sy) / v
        eid, fb, t_del, t_exe = state.leg(sid, algo.theta_max)
        ex, ey = edge_xy[eid]
        widx = emergency.resume_waypoint((ex, ey), uav.geom)
        tx, ty = uav.geom.points[0 if widx is None else widx + 1].tolist()
        arc = 0.0 if widx is None else uav.geom.arc_of_waypoint(widx)
        t_back = now + t_disp + tra_s[sid] + t_del + math.hypot(ex - tx, ey - ty) / v
        uav.available = False
        absences[uav_id].append((now, t_back))
        heapq.heappush(timeline, (t_back, 1, free_seq, (uav_id, arc)))
        free_seq += 1
        record(seq, ev, uav_id, eid, now - ev.alert_time_s, t_disp, t_del, t_exe, widx, fb)

    while timeline:
        now = timeline[0][0]
        while timeline and timeline[0][0] == now:
            _, rank, seq, payload = heapq.heappop(timeline)
            if rank == 0:
                edge = plan.assignment.direct_map.get(payload.sensor_id)
                if edge is not None:
                    record(seq, payload, None, edge, 0.0, 0.0, 0.0, exe_s[payload.sensor_id],
                           None, False)
                else:
                    key = plan.clustering.assignment[payload.sensor_id] if own else 0
                    heapq.heappush(pending[key], (-payload.priority, seq, payload))
            else:
                uav_id, arc = payload
                uavs[uav_id].ref_time, uavs[uav_id].ref_arc = now, arc
                uavs[uav_id].available = True
        while True:
            tops = [(heap[0], key) for key, heap in enumerate(pending) if heap and
                    (uavs[key].available if own else any(u.available for u in uavs))]
            if not tops:
                break
            key = min(tops)[1]
            _, seq, ev = heapq.heappop(pending[key])
            uav_id = key if own else _select_dispatch_uav_oracle(
                [(i, u.patrol_pos(now, v)) for i, u in enumerate(uavs) if u.available],
                scenario.xy[ev.sensor_id].tolist(), edge_xy)
            dispatch(seq, ev, uav_id, now)

    impact = normal_impact_oracle(plan, scenario, state, events, absences, horizon_s)
    return emergency.SimulationResult(tuple(traces[i] for i in sorted(traces)), impact,
                                      horizon_s, phases)


def normal_impact_oracle(plan, scenario, state, events, absences,
                         horizon_s: float) -> emergency.NormalImpactReport:
    """``emergency._normal_impact`` with the per-route waits in an array,
    the episodes cut and filtered in two passes and each mean taken by
    ``np.mean``; ``absences`` maps a route index to its (start, end) spans."""
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
    keep = np.ones(len(with_wait), dtype=bool)
    keep[[e.sensor_id for e in events]] = False
    base_vals, with_vals = state.total[keep], with_wait[keep]
    if not base_vals.size:
        return emergency.NormalImpactReport(0.0, 0.0, 0.0, 0.0)
    base_mean = float(np.mean(base_vals))
    with_mean = float(np.mean(with_vals))
    delta = with_mean - base_mean
    return emergency.NormalImpactReport(
        baseline_mean_s=base_mean, with_events_mean_s=with_mean, delta_s=delta,
        delta_fraction=delta / base_mean if base_mean > 0 else 0.0)


def weighted_kmeans_oracle(scenario, ids, m, omega_h, epsilon_m, rng,
                           initial_centers=None, seen=None):
    """``weighted_kmeans`` on an (n, m, 2) difference array, one
    ``np.linalg.norm`` per iteration and ``np.add.at`` centroid sums: the
    assignments, centers and iteration count the column version must
    reproduce bit for bit.  When ``seen`` is a set, the paths taken are added
    to it: "sensor-seeded" (m above the number of edges), "tie" (a sensor
    equally near two centers), "reseed", "max-iters" and "final-pass" (the
    last iteration was a reseed round)."""
    ids = np.asarray(ids, dtype=int)
    n = len(ids)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= {n} sensors, got m={m}")
    seen = set() if seen is None else seen
    xy = scenario.xy[ids]
    w = sensor_weight(scenario.fire_history[ids], omega_h)
    w_max = float(w.max())
    factor = 2.0 - w / w_max

    if initial_centers is not None:
        centers = np.asarray(initial_centers, dtype=float).copy()
    else:
        centers = init_centers(m, scenario.edge_xy, xy, w, rng)
        if m > len(scenario.edge_xy):
            seen.add("sensor-seeded")

    assign = np.zeros(n, dtype=int)
    iterations = 0
    for iterations in range(1, MAX_ITERS + 1):
        d = np.linalg.norm(xy[:, None, :] - centers[None, :, :], axis=2)
        scaled = d * factor[:, None]
        assign = np.argmin(scaled, axis=1)
        if (scaled == scaled.min(axis=1, keepdims=True)).sum(axis=1).max() > 1:
            seen.add("tie")

        counts = np.bincount(assign, minlength=m)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            seen.add("reseed")
            taken: set[int] = set()
            for j in empty:
                dd = d[np.arange(n), assign] * factor
                order = np.lexsort((np.arange(n), -dd))
                pick = next(i for i in order if i not in taken)
                taken.add(pick)
                centers[j] = xy[pick]
            continue

        sums = np.zeros((m, 2))
        np.add.at(sums, assign, xy * w[:, None])
        wsum = np.bincount(assign, weights=w, minlength=m)
        new_centers = sums / wsum[:, None]
        moved = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        if moved < epsilon_m:
            break
    else:
        seen.add("max-iters")

    if np.bincount(assign, minlength=m).min() == 0:
        seen.add("final-pass")
        d = np.linalg.norm(xy[:, None, :] - centers[None, :, :], axis=2)
        assign = np.argmin(d * factor[:, None], axis=1)

    return Clustering(m=m, assignment=dict(zip(ids.tolist(), assign.tolist())),
                      centers=tuple((float(c[0]), float(c[1])) for c in centers),
                      iterations_run=iterations)


def nearest_neighbor_tour_oracle(depot_xy, xy):
    """Nearest neighbour with one ``np.linalg.norm(xy - cur, axis=1)`` per
    step and visited points masked to inf: the visit order the column
    version must reproduce."""
    n = len(xy)
    if n == 0:
        return []
    xy = np.asarray(xy, dtype=float)
    remaining = np.ones(n, dtype=bool)
    order = []
    cur = np.asarray(depot_xy, dtype=float)
    for _ in range(n):
        d = np.linalg.norm(xy - cur, axis=1)
        d[~remaining] = np.inf
        pick = int(np.argmin(d))
        order.append(pick)
        remaining[pick] = False
        cur = xy[pick]
    return order


def nearest_neighbor_column_oracle(depot_xy, xy):
    """Nearest neighbour with one ``column_distances`` call per step into two
    reused buffers, a visited point moved to x = inf: the walk the rows of
    one route matrix replaced, whose visit order they must reproduce."""
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    dx, dy = np.empty(n), np.empty(n)
    order = []
    px, py = float(depot_xy[0]), float(depot_xy[1])
    for _ in range(n):
        pick = int(column_distances(x, y, px, py, dx, dy).argmin())
        order.append(pick)
        px, py = x[pick], y[pick]
        x[pick] = np.inf
    return order


# Phase 2 as it was written twice before one kernel served every method: the
# planner's per-cluster Python score lists and the GA/PSO population loop.
# Each is kept as it was except where noted (and for copying the load state
# by hand), and each steps through every cluster, empty ones included.

def _mean_dists_oracle(cluster_ids, scenario) -> np.ndarray:
    """dbar[j, k] = mean member distance of cluster j to edge k (0 if empty).
    Changed: the distances are summed in the order given, by
    ``np.add.accumulate``, then divided by the count; ``np.mean(axis=0)``
    sums in another order."""
    edge_xy = scenario.edge_xy
    dbar = np.zeros((len(cluster_ids), len(edge_xy)))
    for j, ids in enumerate(cluster_ids):
        if len(ids):
            xy = scenario.xy[ids]
            d = np.linalg.norm(xy[:, None, :] - edge_xy[None, :, :], axis=2)
            dbar[j] = np.add.accumulate(d, axis=0)[-1] / len(ids)
    return dbar


def _score_oracle(dbar_jk, load, demand, capacity, omega_d, omega_l, d_norm_m):
    return omega_d * (dbar_jk / d_norm_m) + omega_l * (load + demand) / capacity


def assign_clusters_oracle(cluster_ids, scenario, load, omega_d, omega_l, d_norm_m,
                           t_period_s):
    """Phase 2 for clusters given in ascending id: each, in ascending cluster
    id, picks its lowest-score edge from a Python list (ties by lowest id);
    the load state is updated after each pick.  Unchanged apart from
    ``_mean_dists_oracle``."""
    load = EdgeLoadState(list(load.loads_mips), list(load.capacities_mips))
    dbar = _mean_dists_oracle(cluster_ids, scenario)
    capacity = scenario.capacity.tolist()
    cluster_map = {}
    for j, ids in enumerate(cluster_ids):
        demand = cluster_demand(scenario.beta_mi[ids], t_period_s)
        scores = [_score_oracle(dbar[j, k], load.loads_mips[k], demand, cap,
                                omega_d, omega_l, d_norm_m)
                  for k, cap in enumerate(capacity)]
        k_best = int(np.argmin(scores))
        cluster_map[j] = k_best
        load.loads_mips[k_best] += demand
    return cluster_map, load


def repair_overload_oracle(cluster_map, cluster_ids, scenario, load, omega_d, omega_l,
                           d_norm_m, t_period_s):
    """Overload repair for clusters given in ascending id, one Python score
    per edge with room.  Unchanged apart from ``_mean_dists_oracle`` and the
    overloaded edges, listed here as the deleted ``EdgeLoadState.overloaded``
    listed them."""
    cluster_map = dict(cluster_map)
    load = EdgeLoadState(list(load.loads_mips), list(load.capacities_mips))
    dbar = _mean_dists_oracle(cluster_ids, scenario)
    demands = [cluster_demand(scenario.beta_mi[ids], t_period_s) for ids in cluster_ids]
    capacity = scenario.capacity.tolist()
    while True:
        over = [k for k, (l, c) in enumerate(zip(load.loads_mips, load.capacities_mips))
                if l > c]
        if not over:
            return cluster_map, load
        worst = max(over, key=lambda k: (load.loads_mips[k] - load.capacities_mips[k], -k))
        movable = sorted((j for j, e in cluster_map.items()
                          if e == worst and demands[j] > 0),
                         key=lambda j: (demands[j], j))
        moved = False
        for j in movable:
            fits = [k for k, cap in enumerate(capacity)
                    if k != worst and load.loads_mips[k] + demands[j] <= cap]
            if not fits:
                continue
            k_best = min(fits, key=lambda k: (
                _score_oracle(dbar[j, k], load.loads_mips[k], demands[j],
                              capacity[k], omega_d, omega_l, d_norm_m), k))
            load.loads_mips[worst] -= demands[j]
            load.loads_mips[k_best] += demands[j]
            cluster_map[j] = k_best
            moved = True
            break
        if not moved:
            raise RepairFailure(
                f"edge {worst} overloaded by "
                f"{load.loads_mips[worst] - load.capacities_mips[worst]:.3f} MIPS "
                f"and no cluster can move")


def assign_edges_oracle(ws, genes: np.ndarray, m: int):
    """GA/PSO phase 2 over a (P, n) population of a ``baselines._Workspace``:
    one lowest-score edge per cluster, each step across all rows.  Returns
    the (P, m) member counts, upload sums and edge indices and the
    (P, edges) loads.  Changed: the distance term is ``omega_d * (dbar /
    d_norm)``, the planner's order, not ``omega_d * dbar / d_norm``."""
    a = ws.algo
    P, n = genes.shape
    # bin r*m + j is cluster j of row r, so each bin sums its members in
    # id order, as a per-row bincount would
    bins = (genes + m * np.arange(P)[:, None]).ravel()
    beta_sum, alpha_sum, *edge_sums = (
        np.bincount(bins, weights=w, minlength=P * m).reshape(P, m)
        for w in np.tile(np.vstack([ws.beta, ws.alpha, ws.d_se.T]), P))
    counts = np.bincount(bins, minlength=P * m).reshape(P, m)
    demands = beta_sum / ws.p.t_period_s
    dbar = np.divide(np.stack(edge_sums, axis=2), np.maximum(counts, 1)[..., None])
    distance_term = a.omega_d * (dbar / ws.p.diag_m)
    rows = np.arange(P)
    loads = np.tile(np.array(ws.load0.loads_mips), (P, 1))
    edge_of = np.empty((P, m), dtype=int)
    for j in range(m):
        scores = distance_term[:, j] + a.omega_l * (loads + demands[:, j, None]) / ws.cap
        edge_of[:, j] = k = scores.argmin(axis=1)
        loads[rows, k] += demands[:, j]
    return counts, alpha_sum, edge_of, loads


def ga_search_all_rows(ws, cfg, m: int):
    """``baselines._ga_search`` evaluating all P rows of every generation,
    the elite included, where the search carries the elite's fitness,
    violations and order over from the generation before."""
    rng = np.random.default_rng(derive_seed(ws.algo.seed, f"ga-m{m}"))
    genes = rng.integers(0, m, size=(cfg.population, ws.n))
    prios = rng.random((cfg.population, ws.n))
    stream = baselines._Stream(rng)

    def evaluate(g, pr):
        orders = baselines._order_by_priority(g, pr)
        fits, viols, _ = ws.evaluate(g, orders, ws.assign(g, m))
        return fits, viols, orders

    fits, viols, orders = evaluate(genes, prios)
    for _ in range(cfg.generations):
        genes, prios = baselines._breed(stream, genes, prios, fits, m)
        fits, viols, orders = evaluate(genes, prios)
    feasible = np.flatnonzero(viols == 0)
    if not feasible.size:
        return None
    best = int(feasible[np.argmin(fits[feasible])])
    return genes[best], orders[best], 0


class StreamOracle:
    """The ``random()`` and ``integers(0, r)`` draws of a numpy Generator,
    replayed from blocks of its PCG64 bit generator's raw 64-bit outputs,
    one method call per draw: the walk ``baselines._walk`` replaced, kept as
    its oracle.

    The draw methods hand out where each value sits, not the value: a double
    is raw output i, its value ``dbl[i]``; a 32-bit word w is the low (w
    even) or high (w odd) half of raw output w // 2, and ``bounded`` turns
    words into integers.  The rules are numpy's, so the values are those the
    Generator itself would draw, in the same order.  Draws are made in
    passes, through ``replay``."""

    def __init__(self, rng: np.random.Generator):
        self._bitgen = rng.bit_generator
        state = self._bitgen.state
        # a 32-bit draw takes the low half of a raw output and leaves the high
        # half for the next one; after an odd count of them that half waits,
        # and it becomes the high half of a raw output 0
        waiting = [state["uinteger"] << 32] if state["has_uint32"] else []
        self._carry = 0 if waiting else None
        # raw outputs fetched at a time: at least the last pass's use
        self.pos, self._chunk = len(waiting), 1024
        self._exact = self._rejected = False
        self.raw, self.dbl = np.empty(0, dtype=np.uint64), np.empty(0)
        # _below[i]: how many doubles before raw output i are < MUTATION_RATE
        self._below = np.zeros(1, dtype=np.intp)
        self._append(np.array(waiting, dtype=np.uint64))

    def _append(self, raw: np.ndarray) -> None:
        dbl = (raw >> 11) * 2.0 ** -53
        self.raw = np.concatenate([self.raw, raw])
        self.dbl = np.concatenate([self.dbl, dbl])
        self._below = np.concatenate([self._below,
                                      self._below[-1] + np.cumsum(dbl < MUTATION_RATE)])

    def _grow(self) -> None:
        """Make raw outputs up to pos available; appending keeps every
        position already handed out valid."""
        self._append(self._bitgen.random_raw(max(self.pos - len(self.raw), self._chunk)))

    def doubles(self, k: int) -> int:
        """``random(k)`` reads raw outputs start .. start + k - 1; returns
        start.  A double leaves a waiting high half waiting."""
        start = self.pos
        self.pos += k
        if self.pos > len(self.raw):
            self._grow()
        return start

    def mask(self, k: int) -> tuple[int, int]:
        """``random(k) < MUTATION_RATE``: where its doubles start and how
        many of them are below."""
        start = self.doubles(k)
        return start, int(self._below[self.pos] - self._below[start])

    def words(self, k: int, r: int) -> list[int]:
        """The words ``integers(0, r, size=k)`` reads, in order, for
        1 <= r <= 2**32; r == 1 and k == 0 read none.  Lemire's method draws
        again while ``u * r mod 2**32 < 2**32 mod r``: a fast pass assumes it
        never does, and ``replay`` checks that."""
        if r == 1 or not k:
            return []
        if not self._exact:
            return self._take(k)
        out = []
        while len(out) < k:
            w = self._take(1)
            if (int(self._values(w)[0]) * r) & 0xFFFFFFFF >= (2 ** 32 - r) % r:
                out += w
        return out

    def _take(self, k: int) -> list[int]:
        """The next k >= 1 words: a waiting high half first, then both halves
        of new raw outputs, low first; an odd count leaves a half waiting."""
        out = [] if self._carry is None else [2 * self._carry + 1]
        j, pos = k - len(out), self.pos     # j words from new raw outputs
        out += range(2 * pos, 2 * pos + j)
        self.pos += (j + 1) // 2
        self._carry = pos + j // 2 if j % 2 else None
        if self.pos > len(self.raw):
            self._grow()
        return out

    def _values(self, words) -> np.ndarray:
        """The 32-bit values of ``words``, as uint64."""
        w = np.asarray(words, dtype=np.intp)
        raw = self.raw[w >> 1]
        return np.where(w & 1, raw >> 32, raw & 0xFFFFFFFF)

    def bounded(self, words, r: int) -> np.ndarray:
        """The values of ``integers(0, r)`` read from ``words``; a fast pass
        also notes whether Lemire's method rejects any of them."""
        u = self._values(words) * np.uint64(r)
        if not self._exact:
            self._rejected |= bool(((u & 0xFFFFFFFF) < (2 ** 32 - r) % r).any())
        return (u >> 32).astype(np.intp)

    def replay(self, walk):
        """``walk(self)``: one pass of draws (a GA generation, say) made
        through the methods above, which reads every word it draws through
        ``bounded`` before it returns.  If a fast pass read a word that
        Lemire's method rejects, the pass is walked again from its start,
        word by word.  A pass first drops the raw outputs before it, so
        read a pass's doubles before the next one."""
        spent = self.pos if self._carry is None else self._carry
        self.raw, self.dbl, self._below = (a[spent:] for a in (self.raw, self.dbl,
                                                               self._below))
        self.pos -= spent
        if self._carry is not None:
            self._carry = 0
        start, self._rejected = (self.pos, self._carry), False
        out = walk(self)
        if self._rejected:
            (self.pos, self._carry), self._exact = start, True
            out = walk(self)
            self._exact = False
        self._chunk = max(self.pos, 1024)
        return out


def breed_oracle(stream: StreamOracle, genes: np.ndarray, prios: np.ndarray, fits: np.ndarray,
           m: int):
    """``baselines._breed`` on a ``StreamOracle``: the elite, then children
    in pairs, each pair two tournament winners, one-point crossover and
    per-gene mutation.  A pass walks the loop over the pairs through the
    stream's methods for positions only, then every child is built at
    once."""
    pop, n = genes.shape
    pairs = pop // 2

    def walk(s: StreamOracle):
        tour, cross, cuts, gene_at, gene_words, prio_at = [], [], [], [], [], []
        for _ in range(pairs):
            tour += s.words(2 * TOURNAMENT_SIZE, pop)
            if not n:
                continue
            cross.append(s.doubles(1))
            if s.dbl[cross[-1]] < CROSSOVER_RATE:
                cuts += s.words(1, 2 * n - 1)     # integers(1, 2n)
            for _ in range(2):
                start, k = s.mask(n)
                gene_at.append(start)
                gene_words += s.words(k, m)
                start, k = s.mask(n)
                prio_at.append(start)
                s.doubles(k)                      # the new priorities
        return (s.bounded(tour, pop), cross, s.bounded(cuts, 2 * n - 1) if n > 1 else 0,
                gene_at, s.bounded(gene_words, m) if m > 1 else 0, prio_at)

    tour, cross, cuts, gene_at, new_genes, prio_at = stream.replay(walk)
    # two tournaments per pair; the first of the lowest fitness wins
    contenders = tour.reshape(2 * pairs, TOURNAMENT_SIZE)
    parents = contenders[np.arange(2 * pairs), fits[contenders].argmin(axis=1)]
    g, pr = genes[parents], prios[parents]
    if n:
        # one-point crossover of the genes-then-priorities chromosome: the two
        # children swap everything from cut on; cut = 2n swaps nothing
        cut = np.full(pairs, 2 * n)
        cut[stream.dbl[cross] < CROSSOVER_RATE] = 1 + cuts
        col = np.arange(n)
        for x, start in ((g, cut), (pr, cut - n)):
            both = x.reshape(pairs, 2, n)
            both[:] = np.where((col >= start[:, None])[:, None], both[:, ::-1], both)
        # mutation, child by child in row-major (pair, child) order; child
        # i's new priorities follow its n mask doubles
        g[stream.dbl[np.add.outer(gene_at, col)] < MUTATION_RATE] = new_genes
        mask = stream.dbl[np.add.outer(prio_at, col)] < MUTATION_RATE
        counts = mask.sum(axis=1)
        first = np.asarray(prio_at) + n - (np.cumsum(counts) - counts)
        pr[mask] = stream.dbl[np.repeat(first, counts) + np.arange(counts.sum())]
    elite = int(np.argmin(fits))
    return (np.concatenate([genes[elite][None], g])[:pop],
            np.concatenate([prios[elite][None], pr])[:pop])
