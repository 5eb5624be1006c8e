"""Adaptive fleet sizing and plan assembly.

One sizing loop, ``size_fleet``, serves this planner and every baseline: it
starts from the configured initial fleet size and grows it by one whenever
the method has no clusters, edge assignment fails after overload repair, or
a route breaks the revisit/energy limits, up to the fleet ceiling.  Methods
supply only their clusters and route builder.  This planner re-runs
clustering at each fleet size with a deterministic (run seed, m) stream, so
plans are pure functions of (scenario, algo params, variant).

Ablation variants:
    FULL       weighted k-means clusters, 2-opt improved routes
    NO_2OPT    weighted k-means clusters, nearest-neighbor routes only
    NO_KMEANS  uniform-random clusters, 2-opt improved routes
    NO_BOTH    uniform-random clusters, nearest-neighbor routes only
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .clustering import Clustering, sensor_weight, weighted_kmeans
from .edge_assignment import (Assignment, EdgeLoadState, RepairFailure,
                              assign_clusters, assign_direct, cluster_demand,
                              repair_overload)
from .model import (AlgoParams, EdgeNode, FleetInitMode, PhysicalParams, Sensor,
                    Variant, derive_seed, link_ranges, partition_sensors)
from .routing import Route, build_route, route_energy, tour_length, tour_lower_bound

PLAN_SCHEMA_VERSION = 1

# a fleet size is skipped only when the tour bound breaks a limit by more
# than this relative margin, so rounding never rejects a feasible m
_BOUND_RTOL = 1e-9


class InfeasibleError(Exception):
    """No feasible plan exists within the fleet ceiling."""

    def __init__(self, m_max: int, binding: list[str]):
        self.m_max = m_max
        self.binding = binding
        super().__init__(
            f"infeasible at fleet ceiling m_max={m_max}; binding: {', '.join(binding)}")


@dataclass(frozen=True)
class Plan:
    m: int
    clustering: Clustering
    assignment: Assignment
    routes: tuple[Route, ...]
    planning_time_s: float
    method: str
    variant: str
    seed: int


@dataclass(frozen=True)
class ConstraintCheck:
    ok: bool
    margin: float   # positive = slack, negative = violation


@dataclass(frozen=True)
class ConstraintReport:
    revisit: ConstraintCheck
    energy: ConstraintCheck
    capacity: ConstraintCheck
    fleet: ConstraintCheck

    @property
    def all_ok(self) -> bool:
        return (self.revisit.ok and self.energy.ok and self.capacity.ok
                and self.fleet.ok)


def initial_fleet_size(p: PhysicalParams, mode: FleetInitMode) -> int:
    """Starting fleet size: 1, or the disc-coverage count clamped to
    [1, m_max]."""
    if mode == FleetInitMode.ONE:
        return 1
    r_sg, _, _ = link_ranges(p)
    count = math.ceil(p.area_m2 / (math.pi * r_sg * r_sg))
    return max(1, min(count, p.m_max))


def split_and_assign_direct(scenario):
    """Phase-1 work shared by the planner and all baselines: sensor
    partition plus the direct-sensor edge map and its load state."""
    p = scenario.physical
    direct_ids, uav_ids = partition_sensors(scenario.sensors, scenario.edges, p)
    direct_sensors = [scenario.sensor_by_id(i) for i in direct_ids]
    uav_sensors = [scenario.sensor_by_id(i) for i in uav_ids]
    direct_map, load0 = assign_direct(direct_sensors, scenario.edges, p)
    return direct_sensors, uav_sensors, direct_map, load0


def _weighted_centroid(members: list[Sensor], omega_h: float) -> tuple[float, float]:
    w = np.array([sensor_weight(s.fire_history, omega_h) for s in members])
    xy = np.array([[s.pos.x, s.pos.y] for s in members])
    c = (xy * w[:, None]).sum(axis=0) / w.sum()
    return float(c[0]), float(c[1])


def _random_clusters(uav_sensors: list[Sensor], m: int, seed: int) -> dict[int, int]:
    """Uniform-random sensor -> cluster assignment; one re-roll if any
    cluster comes up empty, then accepted as-is."""
    rng = np.random.default_rng(derive_seed(seed, f"random-clusters-m{m}"))
    genes = rng.integers(0, m, size=len(uav_sensors))
    if len(uav_sensors) >= m and np.bincount(genes, minlength=m).min() == 0:
        genes = rng.integers(0, m, size=len(uav_sensors))
    return {s.id: int(g) for s, g in zip(uav_sensors, genes)}


def _cluster_for_m(uav_sensors, m, scenario, algo: AlgoParams, variant: Variant):
    """Cluster UAV-served sensors into m id-ordered member lists (empty lists
    allowed when sensors are scarce or the random arm rolls them), plus the
    k-means iteration count."""
    if variant in (Variant.NO_KMEANS, Variant.NO_BOTH):
        assignment = _random_clusters(uav_sensors, m, algo.seed)
        iterations = 0
    elif not uav_sensors:
        assignment = {}
        iterations = 0
    else:
        m_eff = min(m, len(uav_sensors))
        edge_xy = np.array([[e.pos.x, e.pos.y] for e in scenario.edges])
        rng = np.random.default_rng(derive_seed(algo.seed, f"kmeans-m{m}"))
        sub = weighted_kmeans(uav_sensors, m_eff, edge_xy, algo.omega_h,
                              algo.epsilon_m, rng)
        assignment = sub.assignment
        iterations = sub.iterations_run

    by_id = {s.id: s for s in uav_sensors}
    members = [[by_id[i] for i in sorted(sid for sid, c in assignment.items() if c == j)]
               for j in range(m)]
    return members, iterations


def nn_route(uav_id: int, depot: EdgeNode, members: list[Sensor],
             p: PhysicalParams) -> Route:
    """Route builder for size_fleet: nearest-neighbor tour from the depot."""
    return build_route(uav_id, depot.id, (depot.pos.x, depot.pos.y), members, p,
                       use_two_opt=False)


def two_opt_route(uav_id: int, depot: EdgeNode, members: list[Sensor],
                  p: PhysicalParams) -> Route:
    """Route builder for size_fleet: nearest-neighbor tour improved by 2-opt."""
    return build_route(uav_id, depot.id, (depot.pos.x, depot.pos.y), members, p)


def _bound_breaks(depot: EdgeNode, members: list[Sensor], p: PhysicalParams) -> bool:
    """True when no tour over the members from the depot can meet the revisit
    or energy limit: the spanning-tree bound already breaks one by more than
    float noise."""
    if not members:
        return False
    xy = np.array([[s.pos.x, s.pos.y] for s in members])
    lb = tour_lower_bound((depot.pos.x, depot.pos.y), xy)
    energy = route_energy(lb, [s.request.data_size_mb for s in members], p)
    return (lb / p.v_g > p.t_max_s * (1 + _BOUND_RTOL)
            or energy > p.e_max_wh * (1 + _BOUND_RTOL))


def size_fleet(scenario, algo: AlgoParams, direct_map: dict[int, int],
               load0: EdgeLoadState, clusters_at, route, *, method: str, seed: int,
               t0: float, variant: str, at_m: int | None,
               binding: list[str] | None) -> Plan:
    """The fleet-sizing loop shared by every planning method.

    For each m from the initial fleet size to m_max, ``clusters_at(m)`` gives
    ``(members, iterations)``, the method's clusters with members in visit
    order, or None for no candidate at this m.  The clusters are assigned to
    edges (members in id order) and overloads repaired; each is routed with
    ``route(j, depot, members, p)``; the first m whose routes meet the revisit
    and energy limits becomes the Plan, idle UAVs parked at their edge.
    Below m_max an m is dropped without routing when a cluster's spanning-tree
    bound (``tour_lower_bound``) already breaks a limit, and its routing stops
    at the first route that breaks one; m_max is always routed in full, so
    the binding constraints come from complete routes.  ``at_m`` builds the
    plan at that one m without the gate (a failed repair keeps the
    unrepaired assignment; route limits go unchecked).  Raises
    InfeasibleError naming the constraints the last m failed, or ``binding``
    when given.
    """
    p = scenario.physical
    gate = at_m is None
    sizes = (range(initial_fleet_size(p, algo.fleet_init_mode), p.m_max + 1)
             if gate else (at_m,))
    failed: list[str] = []
    for m in sizes:
        clusters = clusters_at(m)
        if clusters is None:
            continue
        members, iterations = clusters
        by_id = [sorted(ms, key=lambda s: s.id) for ms in members]
        cluster_map, load = assign_clusters(
            by_id, scenario.edges, load0, algo.omega_d, algo.omega_l,
            p.diag_m, p.t_period_s)
        if load.overloaded():
            try:
                cluster_map, load = repair_overload(
                    cluster_map, by_id, scenario.edges, load, algo.omega_d,
                    algo.omega_l, p.diag_m, p.t_period_s)
            except RepairFailure:
                if gate:
                    failed = ["edge capacity"]
                    continue

        depots = [scenario.edge_by_id(cluster_map[j]) for j in range(m)]
        # below the ceiling a failed m only leads on to m + 1, so skip it as
        # soon as one cluster cannot meet the limits
        prune = gate and m < p.m_max
        if prune and any(_bound_breaks(depots[j], members[j], p) for j in range(m)):
            continue
        routes = []
        for j in range(m):
            r = route(j, depots[j], members[j], p)
            routes.append(r)
            if prune and (r.revisit_s > p.t_max_s or r.energy_wh > p.e_max_wh):
                break
        routes = tuple(routes)
        failed = []
        if any(r.revisit_s > p.t_max_s for r in routes):
            failed.append("revisit period")
        if any(r.energy_wh > p.e_max_wh for r in routes):
            failed.append("energy budget")
        if gate and failed:
            continue

        centers = tuple(_weighted_centroid(ms, algo.omega_h) if ms
                        else (depots[j].pos.x, depots[j].pos.y)
                        for j, ms in enumerate(members))
        clustering = Clustering(m=m, assignment={s.id: j for j, ms in enumerate(members)
                                                 for s in ms},
                                centers=centers, iterations_run=iterations)
        return Plan(m=m, clustering=clustering,
                    assignment=Assignment(direct_map=direct_map,
                                          cluster_map=cluster_map, load=load),
                    routes=routes, planning_time_s=time.perf_counter() - t0,
                    method=method, variant=variant, seed=seed)
    raise InfeasibleError(p.m_max, binding or failed)


def plan(scenario, algo: AlgoParams, variant: Variant = Variant.FULL) -> Plan:
    """Run the fleet-sizing loop and return the first feasible plan.

    Raises InfeasibleError with the binding constraints when the fleet
    ceiling is reached without a feasible plan.
    """
    return _proposed(scenario, algo, variant, at_m=None)


def plan_at_fleet(scenario, algo: AlgoParams, m: int,
                  variant: Variant = Variant.FULL) -> Plan:
    """Run one pass of the planning pipeline at a fixed fleet size, without
    the feasibility gate.

    Used for component ablations at a common operating fleet; the returned
    plan may violate revisit/energy/capacity constraints (validate_plan
    reports them), which plan() itself would never emit.
    """
    return _proposed(scenario, algo, variant, at_m=m)


def _proposed(scenario, algo: AlgoParams, variant: Variant, at_m: int | None) -> Plan:
    t0 = time.perf_counter()
    _, uav_sensors, direct_map, load0 = split_and_assign_direct(scenario)
    route = two_opt_route if variant in (Variant.FULL, Variant.NO_KMEANS) else nn_route
    return size_fleet(scenario, algo, direct_map, load0,
                      lambda m: _cluster_for_m(uav_sensors, m, scenario, algo, variant),
                      route, method="proposed", seed=algo.seed, t0=t0,
                      variant=variant.value, at_m=at_m, binding=None)


def validate_plan(pl: Plan, scenario) -> ConstraintReport:
    """Re-check every constraint from scratch (route lengths, energies and
    edge loads are all recomputed from positions and request profiles)."""
    p = scenario.physical

    revisit_margin, energy_margin = p.t_max_s, p.e_max_wh
    for r in pl.routes:
        wps = [scenario.sensor_by_id(i) for i in r.waypoints]
        depot = scenario.edge_by_id(r.depot_edge_id)
        xy = np.array([[s.pos.x, s.pos.y] for s in wps]).reshape(len(wps), 2)
        length = tour_length((depot.pos.x, depot.pos.y), xy)
        energy = route_energy(length, [s.request.data_size_mb for s in wps], p)
        revisit_margin = min(revisit_margin, p.t_max_s - length / p.v_g)
        energy_margin = min(energy_margin, p.e_max_wh - energy)

    loads = [0.0] * len(scenario.edges)
    for sid, eid in pl.assignment.direct_map.items():
        loads[eid] += scenario.sensor_by_id(sid).request.compute_mi / p.t_period_s
    for j, eid in pl.assignment.cluster_map.items():
        members = [scenario.sensor_by_id(i) for i in pl.routes[j].waypoints]
        loads[eid] += cluster_demand(members, p.t_period_s)
    capacity_margin = min(e.capacity_mips - loads[e.id] for e in scenario.edges)

    fleet_margin = float(p.m_max - pl.m)
    return ConstraintReport(
        revisit=ConstraintCheck(revisit_margin >= 0, revisit_margin),
        energy=ConstraintCheck(energy_margin >= 0, energy_margin),
        capacity=ConstraintCheck(capacity_margin >= 0, capacity_margin),
        fleet=ConstraintCheck(fleet_margin >= 0, fleet_margin),
    )


def plan_to_doc(pl: Plan, scenario) -> dict:
    """JSON document for a plan.  Deliberately excludes planning_time_s so
    repeated runs are byte-identical; timing lives in the metrics CSV."""
    return {
        "schema_version": PLAN_SCHEMA_VERSION,
        "method": pl.method,
        "variant": pl.variant,
        "seed": pl.seed,
        "m": pl.m,
        "clustering": {
            "assignment": {str(k): v for k, v in sorted(pl.clustering.assignment.items())},
            "centers": [list(c) for c in pl.clustering.centers],
            "iterations_run": pl.clustering.iterations_run,
        },
        "assignment": {
            "direct_map": {str(k): v for k, v in sorted(pl.assignment.direct_map.items())},
            "cluster_map": {str(k): v for k, v in sorted(pl.assignment.cluster_map.items())},
            "loads_mips": list(pl.assignment.load.loads_mips),
        },
        "routes": [
            {
                "uav_id": r.uav_id,
                "depot_edge_id": r.depot_edge_id,
                "waypoints": list(r.waypoints),
                "waypoint_xy": [[scenario.sensor_by_id(i).pos.x,
                                 scenario.sensor_by_id(i).pos.y] for i in r.waypoints],
                "length_m": r.length_m,
                "revisit_s": r.revisit_s,
                "energy_wh": r.energy_wh,
            }
            for r in pl.routes
        ],
    }


def save_plan(pl: Plan, scenario, path: str) -> None:
    with open(path, "w") as f:
        json.dump(plan_to_doc(pl, scenario), f, indent=1)
        f.write("\n")


def load_plan(path: str, scenario) -> Plan:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") != PLAN_SCHEMA_VERSION:
        raise ValueError(f"unsupported plan schema_version {doc.get('schema_version')!r}")
    clustering = Clustering(
        m=doc["m"],
        assignment={int(k): v for k, v in doc["clustering"]["assignment"].items()},
        centers=tuple(tuple(c) for c in doc["clustering"]["centers"]),
        iterations_run=doc["clustering"]["iterations_run"],
    )
    load = EdgeLoadState(list(doc["assignment"]["loads_mips"]),
                         [e.capacity_mips for e in scenario.edges])
    assignment = Assignment(
        direct_map={int(k): v for k, v in doc["assignment"]["direct_map"].items()},
        cluster_map={int(k): v for k, v in doc["assignment"]["cluster_map"].items()},
        load=load,
    )
    routes = tuple(
        Route(uav_id=r["uav_id"], depot_edge_id=r["depot_edge_id"],
              waypoints=tuple(r["waypoints"]), length_m=r["length_m"],
              revisit_s=r["revisit_s"], energy_wh=r["energy_wh"])
        for r in doc["routes"])
    return Plan(m=doc["m"], clustering=clustering, assignment=assignment,
                routes=routes, planning_time_s=0.0, method=doc["method"],
                variant=doc["variant"], seed=doc["seed"])


def route_geometry_rows(pl: Plan, scenario) -> list[dict]:
    """One CSV row per tour leg: uav_id, leg index, endpoints."""
    rows = []
    for r in pl.routes:
        depot = scenario.edge_by_id(r.depot_edge_id)
        pts = [(depot.pos.x, depot.pos.y)]
        pts += [(scenario.sensor_by_id(i).pos.x, scenario.sensor_by_id(i).pos.y)
                for i in r.waypoints]
        if len(pts) > 1:
            pts.append(pts[0])
        for leg, (a, b) in enumerate(zip(pts[:-1], pts[1:])):
            rows.append({"uav_id": r.uav_id, "leg": leg,
                         "x1": a[0], "y1": a[1], "x2": b[0], "y2": b[1]})
    return rows


def write_route_csv(pl: Plan, scenario, path: str) -> None:
    rows = route_geometry_rows(pl, scenario)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=["uav_id", "leg", "x1", "y1", "x2", "y2"])
        writer.writeheader()
        writer.writerows(rows)
