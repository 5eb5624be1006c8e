"""Two-phase assignment of service load onto edge nodes.

Phase 1 maps a sensor to its nearest edge when that edge is in range; the
rest are UAV-served.  Phase 2 reads a clustering as labels, the cluster of
each UAV-served sensor in ascending id, and maps clusters, in ascending
cluster id, to the edge minimizing a blend of normalized mean distance and
prospective utilization (ties to the lowest edge id):

    score = omega_d * (dbar / d_norm) + omega_l * (load + demand) / capacity

where the distance weight omega_d is 1 - omega_l (``AlgoParams.omega_d``).

``cluster_terms`` takes dbar and demand as member sums in ascending id,
whatever the visit order, over the count and the period, for a batch of
labels at once; an empty cluster changes no load, so a run of them takes
one step.  The fleet-sizing loop takes these sums once per fleet size, and
``assign_clusters`` and ``repair_overload`` both read them; GA and PSO run
``assign_batch`` on a whole population.  Overloads are repaired greedily by
moving the smallest-demand cluster off the most overloaded edge; if no edge
can absorb any movable cluster the repair fails and the caller should grow
the fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import distance_matrix, link_ranges


class RepairFailure(Exception):
    """No overload-clearing move exists at the current fleet size."""


@dataclass
class EdgeLoadState:
    loads_mips: list[float]
    capacities_mips: list[float]

    def utilization(self, k: int) -> float:
        return self.loads_mips[k] / self.capacities_mips[k]


@dataclass(frozen=True)
class Assignment:
    direct_map: dict[int, int]    # sensor id -> edge id
    cluster_map: dict[int, int]   # cluster id -> edge id
    load: EdgeLoadState


def assign_direct(scenario) -> tuple[np.ndarray, dict[int, int], EdgeLoadState]:
    """Phase 1, one pass in ascending sensor id: a sensor whose nearest edge
    (ties to the lowest id) is within r_se, inclusive, is direct, joins that
    edge and adds beta / t_period to its load.  Returns the UAV-served ids
    (ascending), the direct sensor -> edge map and the load state."""
    p = scenario.physical
    _, _, r_se = link_ranges(p)
    edges, beta = scenario.edge_xy.tolist(), scenario.beta_mi.tolist()
    load = EdgeLoadState([0.0] * len(edges), scenario.capacity.tolist())
    direct_map, uav_ids = {}, []
    xy = scenario.xy.tolist()
    # one column of distances per edge; each sensor's row is a tuple of them
    cols = [[math.hypot(x - ex, y - ey) for x, y in xy] for ex, ey in edges]
    for i, d in enumerate(zip(*cols) if edges else [()] * len(xy)):
        d_min = min(d, default=math.inf)
        if d_min <= r_se:
            k = d.index(d_min)    # the first minimum, so ties go to the lowest id
            direct_map[i] = k
            load.loads_mips[k] += beta[i] / p.t_period_s
        else:
            uav_ids.append(i)
    return np.array(uav_ids, dtype=int), direct_map, load


def cluster_demand(beta_mi, t_period_s: float) -> float:
    """Steady-state MIPS a cluster adds to its edge: the members' compute
    demands, summed in the order given, over the period."""
    if t_period_s <= 0:
        raise ValueError(f"t_period_s must be > 0, got {t_period_s}")
    return sum(np.asarray(beta_mi, dtype=float).tolist()) / t_period_s


def edge_distances(scenario, ids) -> np.ndarray:
    """(n, edges) distance from each of the sensors ``ids`` to every edge."""
    return distance_matrix(scenario.xy[ids], scenario.edge_xy)


def weight_rows(P: int, beta_mi, d_se, *summed) -> np.ndarray:
    """The rows ``cluster_terms`` bins for a batch of P rows of labels: the
    demands, each edge's distances and each summed column, tiled P times."""
    return np.tile(np.vstack([beta_mi, d_se.T, *summed]), P)


def cluster_terms(labels: np.ndarray, m: int, beta_mi, d_se, omega_d: float,
                  d_norm_m: float, t_period_s: float, *summed, weights=None):
    """Per-cluster phase-2 terms of a (P, n) batch of labels over the
    UAV-served sensors (ascending id), whose compute demands are ``beta_mi``
    and edge distances the (n, edges) ``d_se``: (P, m) member counts and
    demands, (P, m, edges) distance terms ``omega_d * (dbar / d_norm)``, then
    the (P, m) per-cluster sum of each further (n,) column in ``summed``.
    Bin r*m + j is cluster j of row r, and ``np.bincount`` adds in input
    order, so each sum is in id order.  ``weights`` is ``weight_rows`` of
    these columns, for a caller that bins many batches of one size."""
    P, edges = len(labels), d_se.shape[1]
    if weights is None:
        weights = weight_rows(P, beta_mi, d_se, *summed)
    bins = (labels + m * np.arange(P)[:, None]).ravel()
    counts = np.bincount(bins, minlength=P * m).reshape(P, m)
    beta_sum, *sums = (np.bincount(bins, weights=w, minlength=P * m).reshape(P, m)
                       for w in weights)
    dbar = np.stack(sums[:edges], axis=2) / np.maximum(counts, 1)[..., None]
    return (counts, beta_sum / t_period_s, omega_d * (dbar / d_norm_m), *sums[edges:])


def _edge_scores(dist, loads, demand, capacity, omega_l: float):
    """Phase-2 score of each edge for a cluster with distance terms ``dist``:
    ``dist + omega_l * (loads + demand) / capacity``, each step in place on
    the one temporary (IEEE + and * commute exactly)."""
    score = loads + demand
    score *= omega_l
    score /= capacity
    score += dist
    return score


def assign_batch(counts, demands, dist, loads0, capacity, omega_l: float):
    """Phase 2 for a batch of ``cluster_terms``: clusters 0 .. m-1 take their
    edges in turn from ``loads0``, across all rows at once.  Returns the
    (P, m) edges and (P, edges) loads."""
    P, m = counts.shape
    loads = np.tile(np.asarray(loads0, dtype=float), (P, 1))
    # edge k of row r is flat[offset[r] + k]
    flat, offset = loads.ravel(), np.arange(P) * loads.shape[1]
    edge_of = np.empty((P, m), dtype=int)
    # a run of clusters empty in every row: one step, the loads stay as they are
    used = counts.any(axis=0)
    starts = [0] + (np.flatnonzero(used[1:] | used[:-1]) + 1).tolist()
    for a, b in zip(starts, starts[1:] + [m]):
        k = _edge_scores(dist[:, a], loads, demands[:, a, None], capacity, omega_l).argmin(axis=1)
        edge_of[:, a:b] = k[:, None]
        flat[offset + k] += demands[:, a]
    return edge_of, loads


def assign_clusters(counts, demands, dist, loads0, capacity, omega_l: float):
    """Phase 2 for one clustering, its (m,) counts and demands and (m, edges)
    distance terms: the (m,) edges and (edges,) loads."""
    edge_of, loads = assign_batch(counts[None], demands[None], dist[None], loads0, capacity,
                                  omega_l)
    return edge_of[0], loads[0]


def repair_overload(edge_of, demands, dist, loads, capacity, omega_l: float):
    """Clear capacity overloads by moving clusters, least demand first, from
    the most overloaded edge to the lowest-score edge with room (ties by
    lowest id throughout); the inputs are left as they are.

    Every applied move strictly reduces total overload, so the loop
    terminates.  Raises RepairFailure when no movable cluster fits anywhere.
    """
    edge_of, loads = np.array(edge_of), np.array(loads, dtype=float)
    while (loads > capacity).any():
        worst = int((loads - capacity).argmax())
        movable = np.flatnonzero((edge_of == worst) & (demands > 0))
        movable = movable[np.argsort(demands[movable], kind="stable")]
        fits = loads + demands[movable, None] <= capacity
        fits[:, worst] = False
        can = np.flatnonzero(fits.any(axis=1))
        if not can.size:
            raise RepairFailure(f"edge {worst} overloaded by {loads[worst] - capacity[worst]:.3f}"
                                f" MIPS and no cluster can move")
        j, room = movable[can[0]], np.flatnonzero(fits[can[0]])
        k = room[_edge_scores(dist[j, room], loads[room], demands[j], capacity[room],
                              omega_l).argmin()]
        loads[worst] -= demands[j]
        loads[k] += demands[j]
        edge_of[j] = k
    return edge_of, loads
