"""Hand-built instances and brute-force oracles shared across test modules."""

from __future__ import annotations

import itertools
import math

import numpy as np

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
