"""Service response-time model.

A request's response time decomposes into network latency, transmission,
edge execution, expected wait for UAV arrival, and UAV-to-edge ferrying:

    t_total = t_lat + t_tra + t_exe + t_wait + t_moving

Direct sensors reach an edge in one hop and never wait; UAV-served sensors
see two hops, the half-lap expected wait of their cluster's patrol, and the
cluster-center-to-edge ferry leg.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import MB_TO_MBIT, PhysicalParams, Point2D, distance, link_ranges


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


def response_time(sensor_id: int, plan, scenario) -> ResponseBreakdown:
    """Full response breakdown for one sensor under a plan."""
    p = scenario.physical
    s = scenario.sensor_by_id(sensor_id)
    t_tra = transmission_time(s.request.data_size_mb, p.data_rate_mbps)

    if sensor_id in plan.assignment.direct_map:
        edge = scenario.edge_by_id(plan.assignment.direct_map[sensor_id])
        return ResponseBreakdown(
            sensor_id=sensor_id, path_kind="direct",
            t_lat_s=p.per_hop_latency_s,
            t_tra_s=t_tra,
            t_exe_s=execution_time(s.request.compute_mi, edge.capacity_mips),
            t_wait_s=0.0, t_moving_s=0.0)

    if sensor_id not in plan.clustering.assignment:
        raise ValueError(f"sensor {sensor_id} is not assigned in the plan")
    j = plan.clustering.assignment[sensor_id]
    route = plan.routes[j]
    edge = scenario.edge_by_id(plan.assignment.cluster_map[j])
    cx, cy = plan.clustering.centers[j]
    ferry = distance(Point2D(cx, cy), edge.pos)
    return ResponseBreakdown(
        sensor_id=sensor_id, path_kind="uav",
        t_lat_s=2.0 * p.per_hop_latency_s,
        t_tra_s=t_tra,
        t_exe_s=execution_time(s.request.compute_mi, edge.capacity_mips),
        t_wait_s=expected_wait(route.length_m, p),
        t_moving_s=moving_time(ferry, p.v_g))


def all_responses(plan, scenario) -> list[ResponseBreakdown]:
    return [response_time(s.id, plan, scenario) for s in scenario.sensors]


def mean_response(plan, scenario) -> float:
    rs = all_responses(plan, scenario)
    return sum(r.t_total_s for r in rs) / len(rs)
