"""Service response-time model.

A request's response time decomposes into network latency, transmission,
edge execution, expected wait for UAV arrival, and UAV-to-edge ferrying:

    t_total = t_lat + t_tra + t_exe + t_wait + t_moving

Direct sensors reach an edge in one hop and never wait; UAV-served sensors
see two hops, the half-lap expected wait of their cluster's patrol, and the
cluster-center-to-edge ferry leg.

``all_responses`` is the one implementation of this model: an (n, 5) table of
every sensor's terms that ``response_time``, ``mean_response`` and the
emergency simulator read.  The table is memoized per (plan, scenario) pair,
in one slot compared with ``is`` (plans and scenarios are frozen; a copy or a
reloaded file is another object and gets a fresh table), and its arrays are
read-only, so a repeated pair -- a drill's simulate calls on one deployed
plan, or ``mean_response`` and then the table on the same plan -- builds it
once.  It is the one check of "the same pair": the emergency simulator
keeps its plan-only state with the table it was built from and rebuilds
that state whenever this function returns another array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MB_TO_MBIT, PhysicalParams, link_ranges


@dataclass(frozen=True)
class ResponseBreakdown:
    sensor_id: int
    path_kind: str      # "direct" or "uav"
    t_lat_s: float
    t_tra_s: float
    t_exe_s: float
    t_wait_s: float
    t_moving_s: float

    @property
    def t_total_s(self) -> float:
        return self.t_lat_s + self.t_tra_s + self.t_exe_s + self.t_wait_s + self.t_moving_s


def transmission_time(alpha_mb: float, data_rate_mbps: float) -> float:
    """Upload seconds for alpha megabytes at the given link rate."""
    if data_rate_mbps <= 0:
        raise ValueError(f"data_rate_mbps must be > 0, got {data_rate_mbps}")
    if alpha_mb < 0:
        raise ValueError(f"alpha_mb must be >= 0, got {alpha_mb}")
    return alpha_mb * MB_TO_MBIT / data_rate_mbps


def execution_time(beta_mi: float, capacity_mips: float) -> float:
    """Edge compute seconds for beta million instructions."""
    if capacity_mips <= 0:
        raise ValueError(f"capacity_mips must be > 0, got {capacity_mips}")
    if beta_mi < 0:
        raise ValueError(f"beta_mi must be >= 0, got {beta_mi}")
    return beta_mi / capacity_mips


def expected_wait(route_length_m: float, p: PhysicalParams) -> float:
    """Expected wait for the patrolling UAV: half the revisit period net of
    the in-contact window, floored at zero."""
    if route_length_m < 0:
        raise ValueError(f"route_length_m must be >= 0, got {route_length_m}")
    r_sg, _, _ = link_ranges(p)
    revisit = route_length_m / p.v_g
    contact = 2.0 * r_sg / p.v_g
    return max(0.0, (revisit - contact) / 2.0)


def moving_time(d_m: float, v_g: float) -> float:
    """Ferry seconds over d_m meters at UAV cruise speed."""
    if v_g <= 0:
        raise ValueError(f"v_g must be > 0, got {v_g}")
    if d_m < 0:
        raise ValueError(f"d_m must be >= 0, got {d_m}")
    return d_m / v_g


# one slot: (plan, scenario, terms, cluster) of the last table built
_last_table: tuple | None = None


def all_responses(plan, scenario) -> tuple[np.ndarray, np.ndarray]:
    """Every sensor's response terms under a plan, from the scenario's
    columns: an (n, 5) array whose row i is sensor i's (t_lat, t_tra,
    t_exe, t_wait, t_moving), and each sensor's cluster index (-1 for a
    direct sensor).  The wait and ferry terms depend only on the cluster and
    are computed once per cluster.  Both arrays are read-only and shared by
    every call on the same (plan, scenario) pair of objects while it is the
    last pair built; a call that raises stores nothing."""
    global _last_table
    # read once and replaced whole, so a check never mixes two pairs' fields
    last = _last_table
    if last is not None and last[0] is plan and last[1] is scenario:
        return last[2], last[3]
    p = scenario.physical
    uav, direct = plan.clustering.assignment, plan.assignment.direct_map
    cluster = np.full(len(scenario.xy), -1)
    cluster[list(uav)] = list(uav.values())
    cluster[list(direct)] = -1
    # per-cluster lists end with the entry that cluster -1 (direct) reads
    cluster_edge = [plan.assignment.cluster_map[j] for j in range(len(plan.routes))]
    edge = np.array(cluster_edge + [-1])[cluster]
    edge[list(direct)] = list(direct.values())
    if (edge < 0).any():
        raise ValueError(f"sensor {np.argmax(edge < 0)} is not assigned in the plan")
    wait = [expected_wait(r.length_m, p) for r in plan.routes] + [0.0]
    edge_xy = scenario.edge_xy.tolist()
    ferry = [moving_time(math.hypot(cx - edge_xy[k][0], cy - edge_xy[k][1]), p.v_g)
             for (cx, cy), k in zip(plan.clustering.centers, cluster_edge)] + [0.0]
    terms = np.column_stack([
        np.where(cluster >= 0, 2.0 * p.per_hop_latency_s, p.per_hop_latency_s),
        scenario.alpha_mb * MB_TO_MBIT / p.data_rate_mbps,
        scenario.beta_mi / scenario.capacity[edge],
        np.array(wait)[cluster], np.array(ferry)[cluster]])
    terms.setflags(write=False)
    cluster.setflags(write=False)
    _last_table = (plan, scenario, terms, cluster)
    return terms, cluster


def totals(terms: np.ndarray) -> np.ndarray:
    """Per-sensor response totals, the five terms added left to right."""
    return terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3] + terms[:, 4]


def response_time(sensor_id: int, plan, scenario) -> ResponseBreakdown:
    """Full response breakdown for one sensor under a plan."""
    terms, cluster = all_responses(plan, scenario)
    return ResponseBreakdown(sensor_id, "uav" if cluster[sensor_id] >= 0 else "direct",
                             *terms[sensor_id].tolist())


def mean_response(plan, scenario) -> float:
    t = totals(all_responses(plan, scenario)[0]).tolist()
    return sum(t) / len(t)
