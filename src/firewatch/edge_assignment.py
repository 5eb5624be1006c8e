"""Two-phase assignment of service load onto edge nodes.

Phase 1 maps a sensor to its nearest edge when that edge is in range; the
rest are UAV-served.  Phase 2 maps clusters, in ascending cluster id, to the
edge minimizing a blend of normalized mean distance and prospective
utilization (ties to the lowest edge id):

    score = omega_d * (dbar / d_norm) + omega_l * (load + demand) / capacity

dbar and demand are member sums in ascending id, whatever the visit order,
over the count and the period; an empty cluster changes no load, so a run of
them takes one step.  The planner and greedy run ``assign_batch`` on one
clustering, GA and PSO on a whole population.  Overloads are repaired
greedily by moving the smallest-demand cluster off the most overloaded edge;
if no edge can absorb any movable cluster the repair fails and the caller
should grow the fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import link_ranges


class RepairFailure(Exception):
    """No overload-clearing move exists at the current fleet size."""


@dataclass
class EdgeLoadState:
    loads_mips: list[float]
    capacities_mips: list[float]

    def utilization(self, k: int) -> float:
        return self.loads_mips[k] / self.capacities_mips[k]

    def overloaded(self) -> list[int]:
        return [k for k, (l, c) in enumerate(zip(self.loads_mips, self.capacities_mips))
                if l > c]


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
    for i, (x, y) in enumerate(scenario.xy.tolist()):
        d = [math.hypot(x - ex, y - ey) for ex, ey in edges]
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


def _cluster_terms(labels: np.ndarray, m: int, beta_mi, d_se, omega_d: float,
                   d_norm_m: float, t_period_s: float):
    """(P, m) member counts and demands and (P, m, edges) distance terms
    ``omega_d * (dbar / d_norm)`` of a (P, n) batch of labels over the
    UAV-served sensors (ascending id).  Bin r*m + j is cluster j of row r,
    and ``np.bincount`` adds in input order, so each sum is in id order."""
    P = len(labels)
    bins = (labels + m * np.arange(P)[:, None]).ravel()
    counts = np.bincount(bins, minlength=P * m).reshape(P, m)

    def sums(w):
        return np.bincount(bins, weights=w, minlength=P * m).reshape(P, m)
    dist_sums = np.stack([sums(w) for w in np.tile(d_se.T, P)], axis=2)
    dbar = dist_sums / np.maximum(counts, 1)[..., None]
    return counts, sums(np.tile(beta_mi, P)) / t_period_s, omega_d * (dbar / d_norm_m)


def _edge_scores(dist, loads, demand, capacity, omega_l: float):
    """Phase-2 score of each edge for a cluster with distance terms ``dist``."""
    return dist + omega_l * (loads + demand) / capacity


def assign_batch(labels: np.ndarray, m: int, beta_mi, d_se, loads0, capacity,
                 omega_d: float, omega_l: float, d_norm_m: float, t_period_s: float):
    """Phase 2 for a batch of labels; ``beta_mi`` and (n, edges) ``d_se`` are
    the sensors'.  Clusters 0 .. m-1 take their edges in turn from ``loads0``,
    across all rows at once.  Returns (P, m) counts and edges, (P, edges) loads."""
    counts, demands, dist = _cluster_terms(labels, m, beta_mi, d_se, omega_d, d_norm_m,
                                           t_period_s)
    rows = np.arange(len(labels))
    loads = np.tile(np.asarray(loads0, dtype=float), (len(labels), 1))
    edge_of = np.empty((len(labels), m), dtype=int)
    # a run of clusters empty in every row: one step, the loads stay as they are
    used = counts.any(axis=0)
    starts = [0] + (np.flatnonzero(used[1:] | used[:-1]) + 1).tolist()
    for a, b in zip(starts, starts[1:] + [m]):
        k = _edge_scores(dist[:, a], loads, demands[:, a, None], capacity, omega_l).argmin(axis=1)
        edge_of[:, a:b] = k[:, None]
        loads[rows, k] += demands[:, a]
    return counts, edge_of, loads


def _one_row(cluster_ids, scenario):
    """Clusters of sensor ids as a batch of one: the (1, n) labels of their
    members in ascending id, and those members' demands and edge distances."""
    ids = np.concatenate(cluster_ids).astype(int, copy=False)
    order = np.argsort(ids, kind="stable")
    labels = np.repeat(np.arange(len(cluster_ids)), [len(c) for c in cluster_ids])[order]
    ids = ids[order]
    d_se = np.linalg.norm(scenario.xy[ids][:, None, :] - scenario.edge_xy[None, :, :], axis=2)
    return labels[None], scenario.beta_mi[ids], d_se


def assign_clusters(cluster_ids, scenario, load: EdgeLoadState, omega_d: float,
                    omega_l: float, d_norm_m: float, t_period_s: float
                    ) -> tuple[dict[int, int], EdgeLoadState]:
    """Phase 2 for one clustering (arrays of sensor ids) from ``load``."""
    labels, beta, d_se = _one_row(cluster_ids, scenario)
    _, edge_of, loads = assign_batch(labels, len(cluster_ids), beta, d_se, load.loads_mips,
                                     scenario.capacity, omega_d, omega_l, d_norm_m, t_period_s)
    return (dict(enumerate(edge_of[0].tolist())),
            EdgeLoadState(loads[0].tolist(), list(load.capacities_mips)))


def repair_overload(cluster_map: dict[int, int], cluster_ids, scenario,
                    load: EdgeLoadState, omega_d: float, omega_l: float,
                    d_norm_m: float, t_period_s: float
                    ) -> tuple[dict[int, int], EdgeLoadState]:
    """Clear capacity overloads by moving clusters, least demand first, from
    the most overloaded edge to the lowest-score edge with room (ties by
    lowest id throughout).

    Every applied move strictly reduces total overload, so the loop
    terminates.  Raises RepairFailure when no movable cluster fits anywhere.
    """
    labels, beta, d_se = _one_row(cluster_ids, scenario)
    _, (demands,), (dist,) = _cluster_terms(labels, len(cluster_ids), beta, d_se, omega_d,
                                            d_norm_m, t_period_s)
    edge_of = np.array([cluster_map[j] for j in range(len(cluster_ids))], dtype=int)
    loads, capacity = np.array(load.loads_mips, dtype=float), scenario.capacity
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
    return dict(enumerate(edge_of.tolist())), EdgeLoadState(loads.tolist(),
                                                            list(load.capacities_mips))
