"""Patrol route construction for one UAV: a closed tour from its edge-node
depot through every cluster member and back.

Tours start nearest-neighbor and are optionally improved with
first-improvement 2-opt (scan restarts after every applied move; the depot
participates in leg costs but never moves).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PhysicalParams, Sensor, MB_TO_MBIT

# strictly-improving moves only; tiny negative guard keeps float noise from
# cycling through equal-length tours
_IMPROVE_EPS = 1e-9


@dataclass(frozen=True)
class Route:
    uav_id: int
    depot_edge_id: int
    waypoints: tuple[int, ...]    # sensor ids in visit order
    length_m: float
    revisit_s: float
    energy_wh: float


def tour_length(depot_xy, xy_ordered: np.ndarray) -> float:
    """Length of the closed tour depot -> points -> depot."""
    if len(xy_ordered) == 0:
        return 0.0
    pts = np.vstack([np.asarray(depot_xy, dtype=float), xy_ordered])
    legs = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
    return float(legs + np.linalg.norm(pts[-1] - pts[0]))


def nearest_neighbor_tour(depot_xy, xy: np.ndarray) -> list[int]:
    """Visit order by repeated nearest neighbor from the depot.

    xy rows must be in ascending sensor-id order; exact distance ties then
    resolve to the lowest id.  Returns indices into xy.
    """
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
        pick = int(np.argmin(d))     # first minimum = lowest id on ties
        order.append(pick)
        remaining[pick] = False
        cur = xy[pick]
    return order


def tour_lower_bound(depot_xy, xy: np.ndarray) -> float:
    """Length of a minimum spanning tree over the depot and the points.

    No closed tour through them is shorter (Held & Karp 1970).  Prim's
    algorithm over one vector of distances to the tree, O(n) memory.
    """
    rest = np.asarray(xy, dtype=float).reshape(-1, 2)
    if len(rest) == 0:
        return 0.0
    to_tree = np.linalg.norm(rest - np.asarray(depot_xy, dtype=float), axis=1)
    total = 0.0
    while len(rest):
        pick = int(np.argmin(to_tree))
        total += float(to_tree[pick])
        cur = rest[pick]
        rest = np.delete(rest, pick, axis=0)
        to_tree = np.minimum(np.delete(to_tree, pick),
                             np.linalg.norm(rest - cur, axis=1))
    return total


def two_opt(depot_xy, xy: np.ndarray, order: list[int]) -> list[int]:
    """First-improvement 2-opt over the closed tour (depot fixed).

    Scans (i, k) pairs in ascending order, applies the first strictly
    improving segment reversal, and restarts until no move improves.  Leg
    costs come from one distance matrix over the depot and the points.
    """
    if len(order) < 2:
        return list(order)
    pts = np.vstack([np.asarray(depot_xy, dtype=float),
                     np.asarray(xy, dtype=float)[order]])
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    n = len(pts)                      # tour positions 0..n-1, 0 = depot
    tour = np.arange(n)
    improved = True
    while improved:
        improved = False
        for i in range(1, n - 1):
            a, b = tour[i - 1], tour[i]
            # candidate second edges (t[k], t[k+1]) for k in i+1 .. n-1
            ks = np.arange(i + 1, n)
            if i == 1 and ks[-1] == n - 1:
                ks = ks[:-1]          # wraparound pair shares the depot
                if ks.size == 0:
                    continue
            c = tour[ks]
            d_next = tour[(ks + 1) % n]
            delta = dist[a, c] + dist[b, d_next] - dist[a, b] - dist[c, d_next]
            hit = np.flatnonzero(delta < -_IMPROVE_EPS)
            if hit.size:
                k = int(ks[hit[0]])
                tour[i:k + 1] = tour[i:k + 1][::-1]
                improved = True
                break

    # map tour positions back to the caller's ordering
    out = [order[t - 1] for t in tour[1:]]
    return out


def route_energy(length_m: float, member_alpha_mb, p: PhysicalParams) -> float:
    """Per-lap energy in Wh: flight power over the lap plus communication
    power over every member upload window (alpha * 8 / data_rate seconds)."""
    if length_m < 0:
        raise ValueError(f"length_m must be >= 0, got {length_m}")
    flight_s = length_m / p.v_g
    comm_s = float(sum(member_alpha_mb)) * MB_TO_MBIT / p.data_rate_mbps
    return (p.p_fly_w * flight_s + p.p_comm_w * comm_s) / 3600.0


def build_route(uav_id: int, depot_edge_id: int, depot_xy,
                members: list[Sensor], p: PhysicalParams,
                use_two_opt: bool = True) -> Route:
    """Nearest-neighbor tour over the members (optionally 2-opt improved),
    packaged with its revisit period and per-lap energy."""
    members = sorted(members, key=lambda s: s.id)
    if not members:
        return Route(uav_id, depot_edge_id, (), 0.0, 0.0, 0.0)
    xy = np.array([[s.pos.x, s.pos.y] for s in members])
    order = nearest_neighbor_tour(depot_xy, xy)
    if use_two_opt:
        order = two_opt(depot_xy, xy, order)
    length = tour_length(depot_xy, xy[order])
    energy = route_energy(length, [s.request.data_size_mb for s in members], p)
    return Route(uav_id=uav_id, depot_edge_id=depot_edge_id,
                 waypoints=tuple(members[i].id for i in order),
                 length_m=length, revisit_s=length / p.v_g, energy_wh=energy)
