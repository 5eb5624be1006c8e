"""Output checkers for the benchmark, written apart from the program.

Each checker recomputes what it needs from coordinates, request profiles and
the physical constants with its own arithmetic (the paper's formulas), and
never calls a firewatch function.  It reads program objects only as data.
Every checker returns a list of error strings; an empty list means the
output passed.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
import os

import numpy as np

MBIT_PER_MB = 8.0
REL_TOL = 1e-9
# a 2-opt move must shorten the tour by more than this to count as improving;
# the program uses 1e-9 m, the slack covers rounding between the two codes
TWO_OPT_TOL_M = 1e-6
# alert and dispatch instants recomputed as alert + queue agree to ~1e-9 s
TIME_TOL_S = 1e-6


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _xy(obj) -> tuple[float, float]:
    return obj.pos.x, obj.pos.y


def _dist(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def tour_length(depot, points) -> float:
    """Closed tour depot -> points -> depot."""
    if not points:
        return 0.0
    pts = [depot] + list(points) + [depot]
    return sum(_dist(p, q) for p, q in zip(pts[:-1], pts[1:]))


def improving_two_opt_moves(depot, points, tol: float = TWO_OPT_TOL_M) -> list[tuple[int, int]]:
    """Every pair of non-adjacent tour edges whose exchange would shorten the
    closed tour depot -> points -> depot by more than tol.

    Edge i joins tour positions i and i+1 (position 0 is the depot).  The
    exchange replaces (a, b) and (c, d) by (a, c) and (b, d).
    """
    pts = np.array([depot] + list(points), dtype=float)
    n = len(pts)
    if n < 4:
        return []
    a = pts
    b = np.roll(pts, -1, axis=0)
    ab = np.hypot(*(a - b).T)
    ac = np.hypot(a[:, None, 0] - a[None, :, 0], a[:, None, 1] - a[None, :, 1])
    bd = np.hypot(b[:, None, 0] - b[None, :, 0], b[:, None, 1] - b[None, :, 1])
    delta = ac + bd - ab[:, None] - ab[None, :]
    i, k = np.indices((n, n))
    valid = (k >= i + 2) & ~((i == 0) & (k == n - 1))
    bad = np.argwhere(valid & (delta < -tol))
    return [(int(x), int(y)) for x, y in bad]


def partition(scenario) -> tuple[set[int], set[int]]:
    """(direct, uav): a sensor is direct iff an edge lies within
    min(r_s, r_e), inclusive."""
    p = scenario.physical
    r_se = min(p.r_s, p.r_e)
    direct, uav = set(), set()
    for s in scenario.sensors:
        if any(_dist(_xy(s), _xy(e)) <= r_se for e in scenario.edges):
            direct.add(s.id)
        else:
            uav.add(s.id)
    return direct, uav


def edge_loads(plan, scenario) -> list[float]:
    """Edge loads in MIPS recomputed from the plan's edge maps."""
    p = scenario.physical
    loads = [0.0] * len(scenario.edges)
    for sid, eid in plan.assignment.direct_map.items():
        loads[eid] += scenario.sensors[sid].request.compute_mi / p.t_period_s
    for j, eid in plan.assignment.cluster_map.items():
        loads[eid] += sum(scenario.sensors[i].request.compute_mi
                          for i in plan.routes[j].waypoints) / p.t_period_s
    return loads


def route_energy_wh(length_m: float, alphas_mb, p) -> float:
    """Flight power over the lap plus upload power over every member's
    transfer window, in Wh."""
    flight_s = length_m / p.v_g
    comm_s = sum(alphas_mb) * MBIT_PER_MB / p.data_rate_mbps
    return (p.p_fly_w * flight_s + p.p_comm_w * comm_s) / 3600.0


def sensor_responses(plan, scenario) -> dict[int, float]:
    """Five-term response t_lat + t_tra + t_exe + t_wait + t_moving per
    sensor, from the plan's routes, edges and cluster centres."""
    p = scenario.physical
    r_sg = min(p.r_s, p.r_g)
    out = {}
    for s in scenario.sensors:
        t_tra = s.request.data_size_mb * MBIT_PER_MB / p.data_rate_mbps
        if s.id in plan.assignment.direct_map:
            edge = scenario.edges[plan.assignment.direct_map[s.id]]
            out[s.id] = (p.per_hop_latency_s + t_tra
                         + s.request.compute_mi / edge.capacity_mips)
            continue
        j = plan.clustering.assignment[s.id]
        edge = scenario.edges[plan.assignment.cluster_map[j]]
        revisit = plan.routes[j].length_m / p.v_g
        t_wait = max(0.0, (revisit - 2.0 * r_sg / p.v_g) / 2.0)
        t_moving = _dist(plan.clustering.centers[j], _xy(edge)) / p.v_g
        out[s.id] = (2.0 * p.per_hop_latency_s + t_tra
                     + s.request.compute_mi / edge.capacity_mips + t_wait + t_moving)
    return out


def check_plan(plan, scenario, omega_h: float, two_opt: bool) -> list[str]:
    """Structure, constraints and (for 2-opt plans) local optimality of a
    plan, all recomputed from the scenario."""
    p = scenario.physical
    errors: list[str] = []
    direct, uav = partition(scenario)
    if set(plan.assignment.direct_map) != direct:
        errors.append("direct_map keys differ from the recomputed direct sensors")
    if set(plan.clustering.assignment) != uav:
        errors.append("clustering covers other sensors than the UAV-served ones")
    if not 1 <= plan.m <= p.m_max:
        errors.append(f"fleet size {plan.m} outside [1, {p.m_max}]")
    if len(plan.routes) != plan.m or sorted(plan.assignment.cluster_map) != list(range(plan.m)):
        errors.append("routes or cluster_map do not match the fleet size")
        return errors

    r_se = min(p.r_s, p.r_e)
    for sid, eid in plan.assignment.direct_map.items():
        if _dist(_xy(scenario.sensors[sid]), _xy(scenario.edges[eid])) > r_se:
            errors.append(f"direct sensor {sid} is out of range of edge {eid}")

    seen: dict[int, int] = {}
    for j, r in enumerate(plan.routes):
        for sid in r.waypoints:
            seen[sid] = seen.get(sid, 0) + 1
        members = {sid for sid, c in plan.clustering.assignment.items() if c == j}
        if set(r.waypoints) != members or len(r.waypoints) != len(members):
            errors.append(f"route {j} does not hold exactly its cluster's members")
        if r.depot_edge_id != plan.assignment.cluster_map[j]:
            errors.append(f"route {j} starts at edge {r.depot_edge_id}, "
                          f"cluster edge is {plan.assignment.cluster_map[j]}")
        depot = _xy(scenario.edges[r.depot_edge_id])
        pts = [_xy(scenario.sensors[i]) for i in r.waypoints]
        length = tour_length(depot, pts)
        energy = route_energy_wh(
            length, [scenario.sensors[i].request.data_size_mb for i in r.waypoints], p)
        if not (close(length, r.length_m) and close(length / p.v_g, r.revisit_s)
                and close(energy, r.energy_wh)):
            errors.append(f"route {j}: stored length/revisit/energy differ from recomputation")
        if length / p.v_g > p.t_max_s:
            errors.append(f"route {j}: revisit {length / p.v_g:.1f} s > t_max")
        if energy > p.e_max_wh:
            errors.append(f"route {j}: energy {energy:.1f} Wh > e_max")
        if two_opt and improving_two_opt_moves(depot, pts):
            errors.append(f"route {j}: an improving 2-opt move is left")
        if members:
            w = [1.0 + omega_h * scenario.sensors[i].fire_history for i in sorted(members)]
            xy = [_xy(scenario.sensors[i]) for i in sorted(members)]
            c = (sum(wi * x for wi, (x, _) in zip(w, xy)) / sum(w),
                 sum(wi * y for wi, (_, y) in zip(w, xy)) / sum(w))
            if _dist(c, plan.clustering.centers[j]) > 1e-6:
                errors.append(f"cluster {j}: centre is not the weighted centroid")
    if any(count != 1 for count in seen.values()) or set(seen) != uav:
        errors.append("some UAV-served sensor is not in exactly one route")

    for e, load in zip(scenario.edges, edge_loads(plan, scenario)):
        if load > e.capacity_mips * (1 + REL_TOL):
            errors.append(f"edge {e.id}: load {load:.1f} > capacity {e.capacity_mips:.1f}")
    return errors


def check_mean_response(plan, scenario, reported: float) -> list[str]:
    resp = sensor_responses(plan, scenario)
    mean = sum(resp.values()) / len(resp)
    if not close(mean, reported):
        return [f"mean response {reported} differs from the five-term recomputation {mean}"]
    return []


def _delivery_edge(sensor_xy, scenario, util, theta_max) -> int:
    """Nearest edge under the utilisation ceiling; else the least utilised."""
    ok = [e for e in scenario.edges if util[e.id] < theta_max]
    if ok:
        return min(ok, key=lambda e: (_dist(sensor_xy, _xy(e)), e.id)).id
    return min(scenario.edges, key=lambda e: (util[e.id], e.id)).id


def dispatch_order_errors(traces) -> list[str]:
    """Highest priority first, then FIFO, among the alerts waiting at each
    dispatch instant.

    Replays the waiting set from alert and dispatch times: when a group of
    dispatches leaves at one instant, no alert still waiting may rank ahead of
    any of them.  Ranking is (-priority, event_seq).
    """
    dispatched = [t for t in traces if t.uav_id is not None]
    by_alert = sorted(dispatched, key=lambda t: t.alert_time_s)
    by_start = sorted(dispatched, key=lambda t: t.alert_time_s + t.t_queue_s)
    waiting: list[tuple[int, int]] = []
    gone: set[int] = set()
    errors: list[str] = []
    a = g = 0
    while g < len(by_start):
        now = by_start[g].alert_time_s + by_start[g].t_queue_s
        group = []
        while g < len(by_start) and (by_start[g].alert_time_s + by_start[g].t_queue_s
                                     <= now + TIME_TOL_S):
            group.append(by_start[g])
            g += 1
        while a < len(by_alert) and by_alert[a].alert_time_s <= now + TIME_TOL_S:
            heapq.heappush(waiting, (-by_alert[a].priority, by_alert[a].event_seq))
            a += 1
        for t in group:
            gone.add(t.event_seq)
        while waiting and waiting[0][1] in gone:
            heapq.heappop(waiting)
        worst = max((-t.priority, t.event_seq) for t in group)
        if waiting and waiting[0] < worst:
            errors.append(f"event {worst[1]} dispatched at {now:.3f} s while event "
                          f"{waiting[0][1]} of higher rank was waiting")
            if len(errors) >= 5:
                break
    return errors


def check_simulation(result, plan, scenario, events, theta_max: float) -> list[str]:
    """Per-event stage times, dispatch order, UAV availability and the sign
    of the normal-service impact, recomputed from the scenario."""
    p = scenario.physical
    v = p.v_g
    errors: list[str] = []
    traces = result.traces
    expected = sorted(events, key=lambda e: e.alert_time_s)
    if len(traces) != len(expected):
        return [f"{len(traces)} traces for {len(expected)} events"]
    util = [load / e.capacity_mips
            for load, e in zip(edge_loads(plan, scenario), scenario.edges)]

    busy: dict[int, list[tuple[float, float]]] = {}
    for k, (tr, ev) in enumerate(zip(traces, expected)):
        if (tr.event_seq, tr.sensor_id, tr.alert_time_s) != (k, ev.sensor_id, ev.alert_time_s):
            errors.append(f"trace {k} does not match event {k} in alert order")
            continue
        s = scenario.sensors[tr.sensor_id]
        stages = (tr.t_queue_s, tr.t_dispatch_travel_s, tr.t_tra_s,
                  tr.t_delivery_travel_s, tr.t_exe_s)
        if min(stages) < 0 or not close(sum(stages), tr.response_time_s):
            errors.append(f"trace {k}: response is not the sum of its stage times")
        t_tra = s.request.data_size_mb * MBIT_PER_MB / p.data_rate_mbps
        if tr.sensor_id in plan.assignment.direct_map:
            eid = plan.assignment.direct_map[tr.sensor_id]
            t_del = 0.0
            if tr.uav_id is not None or tr.t_queue_s or tr.t_dispatch_travel_s:
                errors.append(f"trace {k}: a direct sensor was queued or dispatched")
        else:
            eid = _delivery_edge(_xy(s), scenario, util, theta_max)
            t_del = _dist(_xy(s), _xy(scenario.edges[eid])) / v
        t_exe = s.request.compute_mi / scenario.edges[eid].capacity_mips
        if tr.edge_id != eid or not (close(tr.t_tra_s, t_tra) and close(tr.t_exe_s, t_exe)
                                     and close(tr.t_delivery_travel_s, t_del)):
            errors.append(f"trace {k}: edge or t_tra/t_delivery_travel/t_exe differ "
                          "from recomputation")
        if tr.uav_id is None:
            continue
        route = plan.routes[tr.uav_id]
        edge_xy = _xy(scenario.edges[tr.edge_id])
        d = [_dist(edge_xy, _xy(scenario.sensors[i])) for i in route.waypoints]
        widx = min(range(len(d)), key=lambda i: (d[i], i)) if d else None
        if tr.resume_waypoint != widx:
            errors.append(f"trace {k}: resumes at waypoint {tr.resume_waypoint}, "
                          f"nearest is {widx}")
            continue
        start = tr.alert_time_s + tr.t_queue_s
        end = service_end(tr, plan, scenario)
        busy.setdefault(tr.uav_id, []).append((start, end))

    for uav_id, spans in busy.items():
        spans.sort()
        for (s0, e0), (s1, _) in zip(spans, spans[1:]):
            if s1 < e0 - TIME_TOL_S:
                errors.append(f"UAV {uav_id} dispatched at {s1:.3f} s before its "
                              f"previous service ended at {e0:.3f} s")
                break
    errors += dispatch_order_errors(traces)
    impact = result.impact
    if impact.delta_s < -REL_TOL * max(1.0, abs(impact.baseline_mean_s)):
        errors.append(f"normal-service impact delta_s {impact.delta_s} < 0")
    return errors


def service_end(trace, plan, scenario) -> float:
    """Time a dispatched UAV is back on its tour after serving the trace."""
    p = scenario.physical
    route = plan.routes[trace.uav_id]
    edge_xy = _xy(scenario.edges[trace.edge_id])
    if trace.resume_waypoint is None:
        target = _xy(scenario.edges[route.depot_edge_id])
    else:
        target = _xy(scenario.sensors[route.waypoints[trace.resume_waypoint]])
    return (trace.alert_time_s + trace.t_queue_s + trace.t_dispatch_travel_s + trace.t_tra_s
            + trace.t_delivery_travel_s + _dist(edge_xy, target) / p.v_g)


def queue_profile(traces) -> tuple[int, float]:
    """(peak number of alerts waiting for a UAV, longest queue wait), from
    the alert and dispatch instants in the traces."""
    marks = []
    for t in traces:
        if t.uav_id is None:
            continue
        marks.append((t.alert_time_s, 0))                 # arrivals first at ties
        marks.append((t.alert_time_s + t.t_queue_s, 1))
    depth = peak = 0
    for _, kind in sorted(marks):
        depth += 1 if kind == 0 else -1
        peak = max(peak, depth)
    wait = max((t.t_queue_s for t in traces), default=0.0)
    return peak, wait


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_compare(out_dir: str, methods: list[str], n_seeds: int, n_sensors: int) -> list[str]:
    """summary.json, means.csv, cdf.csv and pairwise.csv of one compare run:
    no failures, every seed ok, a monotone pooled CDF ending at 1 whose mean
    is each method's mean response, and pairwise differences equal to the
    differences of the means."""
    errors: list[str] = []
    with open(os.path.join(out_dir, "summary.json")) as f:
        summary = json.load(f)
    if summary["failures"]:
        errors.append(f"{len(summary['failures'])} compare cells failed")
    means = {r["method"]: r for r in _read_csv(os.path.join(out_dir, "means.csv"))}
    if sorted(means) != sorted(methods):
        return errors + [f"means.csv holds methods {sorted(means)}"]
    for meth, row in means.items():
        if int(row["seeds_ok"]) != n_seeds:
            errors.append(f"{meth}: seeds_ok {row['seeds_ok']} != {n_seeds}")

    cdf: dict[str, list[tuple[float, float]]] = {m: [] for m in methods}
    for row in _read_csv(os.path.join(out_dir, "cdf.csv")):
        cdf[row["method"]].append((float(row["response_s"]), float(row["cum_fraction"])))
    for meth, pts in cdf.items():
        if len(pts) != n_seeds * n_sensors:
            errors.append(f"{meth}: CDF has {len(pts)} points, "
                          f"expected {n_seeds * n_sensors}")
            continue
        xs = [x for x, _ in pts]
        fs = [f for _, f in pts]
        if any(b < a for a, b in zip(xs, xs[1:])) or any(b <= a for a, b in zip(fs, fs[1:])):
            errors.append(f"{meth}: pooled CDF is not monotone")
        if fs[-1] != 1.0:
            errors.append(f"{meth}: pooled CDF ends at {fs[-1]}, not 1")
        if not close(sum(xs) / len(xs), float(means[meth]["mean_response_s"])):
            errors.append(f"{meth}: CDF mean differs from the reported mean response")

    pairs = _read_csv(os.path.join(out_dir, "pairwise.csv"))
    if "proposed" in methods and len(pairs) != 3 * (len(methods) - 1):
        errors.append(f"pairwise.csv has {len(pairs)} rows")
    for row in pairs:
        want = (float(means["proposed"][row["metric"]])
                - float(means[row["baseline"]][row["metric"]]))
        if not close(float(row["mean_diff"]), want, 1e-6):
            errors.append(f"pairwise {row['metric']} vs {row['baseline']}: "
                          f"{row['mean_diff']} != difference of means {want}")
    return errors
