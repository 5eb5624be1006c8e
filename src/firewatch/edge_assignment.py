"""Two-phase assignment of service load onto edge nodes.

Phase 1 maps a sensor to its nearest edge when that edge is in range; the
rest are UAV-served.  Phase 2 maps clusters, in ascending cluster id, to the
edge minimizing a blend of normalized mean distance and prospective
utilization:

    score = omega_d * (mean_dist / d_norm) + omega_l * (load + demand) / capacity

Overloads are repaired greedily by moving the smallest-demand cluster off the
most overloaded edge; if no edge can absorb any movable cluster the repair
fails and the caller should grow the fleet.
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

    def copy(self) -> "EdgeLoadState":
        return EdgeLoadState(list(self.loads_mips), list(self.capacities_mips))


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


def _mean_dists(cluster_ids, scenario) -> np.ndarray:
    """dbar[j, k] = mean member distance of cluster j to edge k (0 if empty)."""
    edge_xy = scenario.edge_xy
    dbar = np.zeros((len(cluster_ids), len(edge_xy)))
    for j, ids in enumerate(cluster_ids):
        if len(ids):
            xy = scenario.xy[ids]
            dbar[j] = np.linalg.norm(xy[:, None, :] - edge_xy[None, :, :], axis=2).mean(axis=0)
    return dbar


def _score(dbar_jk: float, load: float, demand: float, capacity: float,
           omega_d: float, omega_l: float, d_norm_m: float) -> float:
    return omega_d * (dbar_jk / d_norm_m) + omega_l * (load + demand) / capacity


def assign_clusters(cluster_ids, scenario, load: EdgeLoadState, omega_d: float,
                    omega_l: float, d_norm_m: float, t_period_s: float
                    ) -> tuple[dict[int, int], EdgeLoadState]:
    """Phase 2: clusters (arrays of sensor ids) in ascending cluster id pick
    the lowest-score edge of the scenario (ties by lowest edge id); the load
    state is updated after each pick."""
    load = load.copy()
    dbar = _mean_dists(cluster_ids, scenario)
    capacity = scenario.capacity.tolist()
    cluster_map: dict[int, int] = {}
    for j, ids in enumerate(cluster_ids):
        demand = cluster_demand(scenario.beta_mi[ids], t_period_s)
        scores = [_score(dbar[j, k], load.loads_mips[k], demand, cap,
                         omega_d, omega_l, d_norm_m)
                  for k, cap in enumerate(capacity)]
        k_best = int(np.argmin(scores))
        cluster_map[j] = k_best
        load.loads_mips[k_best] += demand
    return cluster_map, load


def repair_overload(cluster_map: dict[int, int], cluster_ids, scenario,
                    load: EdgeLoadState, omega_d: float, omega_l: float,
                    d_norm_m: float, t_period_s: float
                    ) -> tuple[dict[int, int], EdgeLoadState]:
    """Clear capacity overloads by moving clusters, least demand first, from
    the most overloaded edge to the best-scoring edge with room.

    Every applied move strictly reduces total overload, so the loop
    terminates.  Raises RepairFailure when no movable cluster fits anywhere.
    """
    cluster_map = dict(cluster_map)
    load = load.copy()
    dbar = _mean_dists(cluster_ids, scenario)
    demands = [cluster_demand(scenario.beta_mi[ids], t_period_s) for ids in cluster_ids]
    capacity = scenario.capacity.tolist()

    while True:
        over = load.overloaded()
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
                _score(dbar[j, k], load.loads_mips[k], demands[j],
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
