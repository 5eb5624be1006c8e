"""Hand-built instances and brute-force oracles shared across test modules."""

from __future__ import annotations

import itertools
import math

import numpy as np

from firewatch import timing
from firewatch.clustering import MAX_ITERS, Clustering, cluster_radius, init_centers, sensor_weight
from firewatch.emergency import select_delivery_edge
from firewatch.model import (EdgeNode, PhysicalParams, Point2D, RequestProfile, Sensor,
                             link_ranges)
from firewatch.routing import tour_length
from firewatch.scenario import Scenario, ScenarioMeta


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
