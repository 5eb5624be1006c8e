"""Patrol route construction for one UAV: a closed tour from its edge-node
depot through every cluster member and back.

Tours start nearest-neighbor and are optionally improved with
first-improvement 2-opt (scan restarts after every applied move; the depot
participates in leg costs but never moves).  The 2-opt scan evaluates the
deltas of a block of rows at once and takes the first hit in row-major
order, which is the move the row-by-row scan makes.  ``tour_lower_bound``
is Prim's minimum spanning tree over one full-length distance vector, with
the same picks and running sum as Prim over shrinking vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PhysicalParams, MB_TO_MBIT, column_distances

# strictly-improving moves only; tiny negative guard keeps float noise from
# cycling through equal-length tours
_IMPROVE_EPS = 1e-9
# rows i of the 2-opt scan whose deltas are evaluated in one array
_BLOCK = 64


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
    resolve to the lowest id.  Returns indices into xy.  Each step's
    distances are computed on x/y columns into two reused buffers, and a
    visited point leaves the race by moving to x = inf.
    """
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    dx, dy = np.empty(n), np.empty(n)
    order = []
    px, py = float(depot_xy[0]), float(depot_xy[1])
    for _ in range(n):
        # first minimum = lowest id on ties
        pick = int(column_distances(x, y, px, py, dx, dy).argmin())
        order.append(pick)
        px, py = x[pick], y[pick]
        x[pick] = np.inf
    return order


def tour_lower_bound(depot_xy, xy: np.ndarray) -> float:
    """Length of a minimum spanning tree over the depot and the points.

    No closed tour through them is shorter (Held & Karp 1970).  Prim's
    algorithm over one full-length vector of distances to the tree, O(n)
    work and memory per step, each step's distances computed on x/y columns
    into two reused buffers: a point joins the tree by becoming infinitely
    far from everything, so ties still go to the lowest index.
    """
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    dx, dy = np.empty(n), np.empty(n)
    to_tree = column_distances(x, y, float(depot_xy[0]), float(depot_xy[1]), dx, dy).copy()
    total = 0.0
    for _ in range(n):
        pick = int(to_tree.argmin())
        total += float(to_tree[pick])
        px, py = x[pick], y[pick]
        x[pick] = to_tree[pick] = np.inf
        np.minimum(to_tree, column_distances(x, y, px, py, dx, dy), out=to_tree)
    return total


def two_opt(depot_xy, xy: np.ndarray, order: list[int]) -> list[int]:
    """First-improvement 2-opt over the closed tour (depot fixed).

    Scans (i, k) pairs in ascending order, applies the first strictly
    improving segment reversal, and restarts until no move improves.  Leg
    costs come from one distance matrix over the depot and the points; the
    deltas of _BLOCK rows i are evaluated at once, and the first hit in
    row-major order is the move a row-by-row scan would make.
    """
    if len(order) < 2:
        return list(order)
    pts = np.vstack([np.asarray(depot_xy, dtype=float),
                     np.asarray(xy, dtype=float)[order]])
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    n = len(pts)                      # tour positions 0..n-1, 0 = depot
    tour = np.arange(n)
    # row r of a block starting at i0 is i = i0 + r and column j is
    # k = i0 + 1 + j, so k > i is j >= r
    later = ~np.tri(_BLOCK, n, -1, dtype=bool)
    first = later.copy()
    first[0, n - 3] = False           # i = 1, k = n-1: the pair shares the depot
    improved = True
    while improved:
        improved = False
        nxt = np.roll(tour, -1)       # tour[(k + 1) % n]
        legs = dist[tour, nxt]        # dist[t[k], t[k+1]]
        for i0 in range(1, n - 1, _BLOCK):
            i1 = min(i0 + _BLOCK, n - 1)
            a, b = tour[i0 - 1:i1 - 1], tour[i0:i1]
            c, d_next = tour[i0 + 1:], nxt[i0 + 1:]
            # dist[a, c] + dist[b, d] - dist[a, b] - dist[c, d], left to right
            delta = dist[a][:, c]
            delta += dist[b][:, d_next]
            delta -= legs[i0 - 1:i1 - 1, None]
            delta -= legs[i0 + 1:]
            valid = (first if i0 == 1 else later)[:i1 - i0, :n - i0 - 1]
            hit = np.flatnonzero((delta < -_IMPROVE_EPS) & valid)
            if hit.size:
                r, j = divmod(int(hit[0]), n - i0 - 1)
                i, k = i0 + r, i0 + 1 + j
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


def build_route(uav_id: int, depot_edge_id: int, ids, scenario,
                use_two_opt: bool = True) -> Route:
    """Nearest-neighbor tour from the depot edge over the sensors with the
    given ids (optionally 2-opt improved), packaged with its revisit period
    and per-lap energy; upload sizes are summed in id order."""
    ids = np.sort(np.asarray(ids, dtype=int))
    if not len(ids):
        return Route(uav_id, depot_edge_id, (), 0.0, 0.0, 0.0)
    p = scenario.physical
    depot_xy = scenario.edge_xy[depot_edge_id]
    xy = scenario.xy[ids]
    order = nearest_neighbor_tour(depot_xy, xy)
    if use_two_opt:
        order = two_opt(depot_xy, xy, order)
    length = tour_length(depot_xy, xy[order])
    energy = route_energy(length, scenario.alpha_mb[ids].tolist(), p)
    return Route(uav_id=uav_id, depot_edge_id=depot_edge_id,
                 waypoints=tuple(ids[order].tolist()),
                 length_m=length, revisit_s=length / p.v_g, energy_wh=energy)


def ordered_route(uav_id: int, depot_edge_id: int, ids, scenario) -> Route:
    """The closed tour from the depot edge over the sensors with the given
    ids in the given visit order, packaged with its revisit period and
    per-lap energy; upload sizes are summed in that order."""
    ids = np.asarray(ids, dtype=int)
    p = scenario.physical
    length = tour_length(scenario.edge_xy[depot_edge_id], scenario.xy[ids])
    energy = route_energy(length, scenario.alpha_mb[ids].tolist(), p)
    return Route(uav_id, depot_edge_id, tuple(ids.tolist()), length, length / p.v_g, energy)
