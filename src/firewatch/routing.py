"""Patrol route construction for one UAV: a closed tour from its edge-node
depot through every cluster member and back.

Tours start nearest-neighbor and are optionally improved with
first-improvement 2-opt (the depot participates in leg costs but never
moves).  Each move is the first strictly improving pair (i, k) in row-major
order, the move a scan restarted at i = 1 after every reversal makes, but
the scan does not restart: after reversing positions i..k, rows 1..i-1 are
rescanned only in columns i-1..k, the only deltas there the move changed,
and then rows i, i+1, ... in blocks that grow from a few rows, since the
next move is most often a row or two past the last.  Distances are held in
tour order, so a reversal reverses the matrix's rows and columns and each
block's deltas are sums of slices.  ``tour_lower_bound`` is Prim's minimum
spanning tree over one full-length distance vector, with the same picks and
running sum as Prim over shrinking vectors, its distances the complex
modulus ``abs(z - z_pick)`` over the points as one column ``z = x + 1j*y``.
That modulus can differ from the ``np.linalg.norm`` bits of 2-opt, nearest
neighbour and tour lengths in the last bit, which the fleet-sizing loop's
relative margin absorbs.  Given several depots it merges them into one
node, each point's distance to it the nearest depot's: closed tours from any
of those depots, taken together, connect that node to every point, so their
total length is at least the tree's.  The fleet-sizing loop uses this to
skip fleet sizes no plan can meet.

``build_route`` measures its depot and n members once, in one (n+1, n+2)
``route_matrix`` (the depot again as the last column).  The
nearest-neighbour tour walks its rows, each step the current point's row
with visited points held at inf, and 2-opt gathers its rows and columns in
place into tour order.  That is 8 (n+1)(n+2) bytes per route, about 72 MB
at 3,000 members, and a route peaks at about twice that: the matrix and
its build's scratch, its gathered copy, or a long reversal's copy.  Routes
without 2-opt hold the matrix as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PhysicalParams, MB_TO_MBIT, distance_matrix

# strictly-improving moves only; tiny negative guard keeps float noise from
# cycling through equal-length tours
_IMPROVE_EPS = 1e-9
# rows i of the 2-opt scan whose deltas are evaluated in one array: the
# first block after a move, doubling up to the largest
_FIRST_BLOCK = 8
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


def route_matrix(depot_xy, xy: np.ndarray) -> np.ndarray:
    """(n+1, n+2) distances from the depot (row 0) and the n points (rows
    1..n) to the same n+1 points and the depot again as column n+1, with
    the bits of ``np.linalg.norm``: the one matrix a route's
    nearest-neighbour tour reads and 2-opt reorders into tour order."""
    pts = np.vstack([np.reshape(depot_xy, (1, 2)), np.reshape(xy, (-1, 2))])
    return distance_matrix(pts, np.vstack([pts, pts[:1]]))


def nearest_neighbor_tour(depot_xy, xy: np.ndarray, dist=None) -> list[int]:
    """Visit order by repeated nearest neighbor from the depot.

    xy rows must be in ascending sensor-id order; exact distance ties then
    resolve to the lowest id.  Returns indices into xy.  Each step reads
    the current point's row of ``dist``, the ``route_matrix`` over the
    depot and xy (built when not given, never written), plus a vector that
    holds visited points at inf.  (a - b)**2 == (b - a)**2 exactly, so a
    row has the bits of the distances from the current point to every
    other.
    """
    if dist is None:
        dist = route_matrix(depot_xy, xy)
    n = len(dist) - 1
    visited, buf = np.zeros(n), np.empty(n)
    order = []
    row = 0
    for _ in range(n):
        # first minimum = lowest id on ties
        pick = int(np.add(dist[row, 1:-1], visited, out=buf).argmin())
        order.append(pick)
        visited[pick] = np.inf
        row = pick + 1
    return order


def tour_lower_bound(depot_xy, xy: np.ndarray) -> float:
    """Length of a minimum spanning tree over the depot and the points.

    No closed tour through them is shorter (Held & Karp 1970).  ``depot_xy``
    is one (x, y) depot or a (k, 2) array of them, merged into one node at
    each point's nearest depot: no set of closed tours from those depots
    that visits every point is shorter in total.  Prim's algorithm over one
    full-length vector of distances to the tree, O(n) work and memory per
    step.  The points are one complex column ``z = x + 1j*y``, so a step is
    three ufunc calls into reused buffers: the distances to the point that
    just joined, ``abs(z - z_pick)``, and their minimum with the tree's.  A
    point joins the tree by moving to z = inf, infinitely far from
    everything, so ties still go to the lowest index.  The complex modulus
    is not ``column_distances``'s sqrt(dx*dx + dy*dy) and may differ from it
    in the last bit, so the tree may too, by far less than the planner's
    relative margin ``_BOUND_RTOL``.
    """
    pts = np.asarray(xy, dtype=float).reshape(-1, 2)
    n = len(pts)
    z = np.empty(n, dtype=complex)
    z.real, z.imag = pts[:, 0], pts[:, 1]
    buf, d = np.empty(n, dtype=complex), np.empty(n)
    to_tree = np.full(n, np.inf)
    for ex, ey in np.asarray(depot_xy, dtype=float).reshape(-1, 2).tolist():
        np.minimum(to_tree, np.abs(np.subtract(z, complex(ex, ey), out=buf), out=d),
                   out=to_tree)
    total = 0.0
    for _ in range(n):
        pick = int(to_tree.argmin())
        total += float(to_tree[pick])
        z_pick = z[pick]
        z[pick] = to_tree[pick] = np.inf
        np.minimum(to_tree, np.abs(np.subtract(z, z_pick, out=buf), out=d), out=to_tree)
    return total


def two_opt(depot_xy, xy: np.ndarray, order: list[int], dist=None) -> list[int]:
    """First-improvement 2-opt over the closed tour (depot fixed).

    Applies the first strictly improving segment reversal (i, k) in
    row-major order until no move improves: each move is the one a scan
    restarted at i = 1 would find, with the same deltas bit for bit.  The
    scan that found (i, k) saw no improving move in rows 1..i-1, and a
    reversal of positions i..k changes a delta there only in columns
    i-1..k, so those rows are rescanned in that band alone; without a hit
    there, rows i, i+1, ... follow in blocks of _FIRST_BLOCK rows doubling
    up to _BLOCK, whose first hit in row-major order is the move.  ``d``
    holds the distances between tour positions, the depot again as column
    n, reversed with each move, so a block's deltas are sums of slices.
    It is ``dist``, the ``route_matrix`` over the depot and xy (built when
    not given), with its rows and columns gathered in place into tour
    order, so 2-opt holds no second matrix and ``dist`` is overwritten.
    """
    if len(order) < 2:
        return list(order)
    if dist is None:
        dist = route_matrix(depot_xy, xy)
    rows = np.concatenate([[0], np.add(order, 1)])
    n = len(rows)                     # tour positions 0..n-1, 0 = depot
    d = dist
    d[...] = d[np.ix_(rows, np.append(rows, 0))]
    legs = d.diagonal(1)              # legs[k] = d[k, k + 1], a view of d
    tour = np.arange(n)
    # row r of a block starting at i0 is i = i0 + r and column j is
    # k = i0 + 1 + j, so k > i is j >= r
    later = ~np.tri(_BLOCK, n, -1, dtype=bool)
    first = later.copy()
    first[0, n - 3] = False           # i = 1, k = n-1: the pair shares the depot
    start = lo = hi = 1               # rows 1..start-1 to rescan in columns lo..hi
    while True:
        # d[i-1, k] + d[i, k+1] - d[i-1, i] - d[k, k+1], left to right
        move = None
        if start > 1:
            delta = d[:start - 1, lo:hi + 1] + d[1:start, lo + 1:hi + 2]
            delta -= legs[:start - 1, None]
            delta -= legs[lo:hi + 1]
            delta[-1, 0] = np.inf     # i = k = start - 1
            if hi == n - 1:
                delta[0, -1] = np.inf     # i = 1, k = n-1
            mask = delta < -_IMPROVE_EPS
            hit = int(mask.argmax())  # 0 also when no cell is True
            if mask.flat[hit]:
                r, j = divmod(hit, hi + 1 - lo)
                move = 1 + r, lo + j
        i0, size = start, _FIRST_BLOCK
        while move is None and i0 < n - 1:
            i1 = min(i0 + size, n - 1)
            delta = d[i0 - 1:i1 - 1, i0 + 1:n] + d[i0:i1, i0 + 2:]
            delta -= legs[i0 - 1:i1 - 1, None]
            delta -= legs[i0 + 1:]
            mask = delta < -_IMPROVE_EPS
            mask &= (first if i0 == 1 else later)[:i1 - i0, :n - i0 - 1]
            hit = int(mask.argmax())
            if mask.flat[hit]:
                r, j = divmod(hit, n - i0 - 1)
                move = i0 + r, i0 + 1 + j
            i0, size = i1, min(2 * size, _BLOCK)
        if move is None:
            break
        i, k = move
        tour[i:k + 1] = tour[i:k + 1][::-1]
        d[i:k + 1] = d[i:k + 1][::-1]
        d[:, i:k + 1] = d[:, i:k + 1][:, ::-1]
        start, lo, hi = i, i - 1, k

    # map tour positions back to the caller's ordering
    return [order[t - 1] for t in tour[1:]]


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
    # by keyword: a tracer that keeps the kernels' positional arguments
    # (bench/tracer.py) would otherwise keep every route's matrix
    dist = route_matrix(depot_xy, xy)
    order = nearest_neighbor_tour(depot_xy, xy, dist=dist)
    if use_two_opt:
        order = two_opt(depot_xy, xy, order, dist=dist)
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
