"""Adaptive fleet sizing and plan assembly.

One sizing loop, ``size_fleet``, serves this planner and every baseline: it
starts from the configured initial fleet size, or from the fleet lower bound
when that is larger, and grows it by one whenever the method has no clusters,
edge assignment fails after overload repair, or a route breaks the
revisit/energy limits, up to the fleet ceiling.  The m tours of any plan,
their depots merged into one node, connect it to every UAV-served sensor, so
in total they are at least the spanning tree over those sensors and the
merged edges (``tour_lower_bound``); below the fleet lower bound that tree
already exceeds m revisit periods or m energy budgets, so every plan has a
route over a limit.  Each fleet size draws from its own seed stream, so
skipping those changes no plan.  Methods supply only a route builder and
their clusters as labels, one cluster index per UAV-served sensor, with a
visit order; the loop builds the sensors' edge distances once per call, the
phase-2 sums once per fleet size, and arrays of sensor ids only for a fleet
size whose edge assignment holds.  Every layer reads positions, request
sizes and fire histories from the scenario's columns by id.  This
planner re-runs clustering at each fleet size with a deterministic (run
seed, m) stream, so plans are pure functions of (scenario, algo params,
variant).

Ablation variants:
    FULL       weighted k-means clusters, 2-opt improved routes
    NO_2OPT    weighted k-means clusters, nearest-neighbor routes only
    NO_KMEANS  uniform-random clusters, 2-opt improved routes
    NO_BOTH    uniform-random clusters, nearest-neighbor routes only
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .clustering import Clustering, check_omega_h, sensor_weight, weighted_kmeans
from .edge_assignment import (Assignment, EdgeLoadState, RepairFailure,
                              assign_clusters, assign_direct, cluster_demand, cluster_terms,
                              edge_distances, repair_overload)
from .model import AlgoParams, FleetInitMode, PhysicalParams, Variant, derive_seed, link_ranges
from .reader import Doc, InputError, read, shown, write_csv, write_json
from .routing import Route, build_route, ordered_route, route_energy, tour_lower_bound

PLAN_SCHEMA_VERSION = 1

# a fleet size is skipped only when the tour bound breaks a limit by more
# than this relative margin.  The bound's distances (a complex modulus) and
# the routes' (np.linalg.norm's bits) may round apart by an ulp each, far
# less: a feasible m's tours are at least the exact tree, so no feasible m
# is skipped, and an m skipped under either rounding has a route over a
# limit, so the rounding changes no plan
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


def initial_fleet_size(p: PhysicalParams, mode: FleetInitMode) -> int:
    """Starting fleet size: 1, or the disc-coverage count clamped to
    [1, m_max]."""
    if mode == FleetInitMode.ONE:
        return 1
    r_sg, _, _ = link_ranges(p)
    count = math.ceil(p.area_m2 / (math.pi * r_sg * r_sg))
    return max(1, min(count, p.m_max))


def _weighted_centroid(ids: np.ndarray, scenario, omega_h: float) -> tuple[float, float]:
    w = sensor_weight(scenario.fire_history[ids], omega_h)
    c = (scenario.xy[ids] * w[:, None]).sum(axis=0) / w.sum()
    return float(c[0]), float(c[1])


def _cluster_for_m(uav_ids: np.ndarray, m: int, scenario, algo: AlgoParams,
                   variant: Variant):
    """size_fleet clusters of the UAV-served sensors at m (empty ones allowed
    when sensors are scarce or the random arm rolls them).  The random arm
    rolls a uniform cluster per sensor, once more if a cluster comes up
    empty, then accepts it as-is."""
    n, iterations = len(uav_ids), 0
    labels = np.zeros(n, dtype=int)
    if variant in (Variant.NO_KMEANS, Variant.NO_BOTH):
        rng = np.random.default_rng(derive_seed(algo.seed, f"random-clusters-m{m}"))
        labels = rng.integers(0, m, size=n)
        if n >= m and np.bincount(labels, minlength=m).min() == 0:
            labels = rng.integers(0, m, size=n)
    elif n:
        rng = np.random.default_rng(derive_seed(algo.seed, f"kmeans-m{m}"))
        sub = weighted_kmeans(scenario, uav_ids, min(m, n), algo.omega_h,
                              algo.epsilon_m, rng)
        labels = np.array([sub.assignment[i] for i in uav_ids.tolist()])
        iterations = sub.iterations_run
    # a stable sort visits each cluster's members in ascending id
    return labels, np.argsort(labels, kind="stable"), iterations


def _over_limits(lb: float, alpha_mb, p: PhysicalParams, m: int = 1) -> bool:
    """True when m routes at least ``lb`` long in total, with these uploads,
    must include one over the revisit or energy limit by more than float
    noise."""
    return (lb / p.v_g > m * p.t_max_s * (1 + _BOUND_RTOL)
            or route_energy(lb, alpha_mb, p) > m * p.e_max_wh * (1 + _BOUND_RTOL))


def _bound_breaks(depot_edge_id: int, ids: np.ndarray, scenario) -> bool:
    """True when no tour over the sensors from the depot can meet the revisit
    or energy limit: the spanning-tree bound already breaks one."""
    if not len(ids):
        return False
    lb = tour_lower_bound(scenario.edge_xy[depot_edge_id], scenario.xy[ids])
    return _over_limits(lb, scenario.alpha_mb[ids].tolist(), scenario.physical)


def _largest_first(members) -> list[int]:
    """Cluster indices, most members first, ties by index: the order the
    sizing loop takes the clusters' bounds in, the likeliest to break a
    limit first.  ``any`` over the bounds answers the same in any order."""
    return sorted(range(len(members)), key=lambda j: -len(members[j]))


def _fleet_lower_bound(scenario, direct_map: dict[int, int], first: int) -> int:
    """The smallest fleet size from ``first`` up to m_max at which the
    spanning tree over the UAV-served sensors and every edge merged into one
    depot flies within m revisit periods and, with every member's upload,
    within m energy budgets."""
    p = scenario.physical
    uav = np.ones(len(scenario.xy), dtype=bool)
    uav[list(direct_map)] = False
    lb = tour_lower_bound(scenario.edge_xy, scenario.xy[uav])
    # every upload summed once, not once per m
    alpha = [sum(scenario.alpha_mb[uav].tolist())]
    m = first
    while m < p.m_max and _over_limits(lb, alpha, p, m):
        m += 1
    return m


def size_fleet(scenario, algo: AlgoParams, uav_ids: np.ndarray, direct_map: dict[int, int],
               load0: EdgeLoadState, clusters_at, route, *, method: str,
               t0: float, variant: str, at_m: int | None,
               binding: list[str] | None) -> Plan:
    """The fleet-sizing loop shared by every planning method.

    ``uav_ids``, ``direct_map`` and ``load0`` are phase 1's.  For each m
    from the initial fleet size to m_max, ``clusters_at(m)`` gives
    ``(labels, order, iterations)``, or None for no candidate at this m:
    the (n,) cluster of each sensor in ``uav_ids``, and those positions
    grouped by cluster in visit order.  The sensors' edge distances are
    built once per call and the phase-2 sums once per m, read by both the
    edge assignment and the overload repair.  Only an m whose assignment
    holds gets its clusters as id arrays, slices of ``uav_ids[order]``, each
    routed with ``route(j, depot_edge_id, ids, scenario)``; the first m whose
    routes meet the revisit and energy limits becomes the Plan, idle UAVs
    parked at their edge.
    The loop starts at the fleet lower bound (``_fleet_lower_bound``) instead
    when that is larger: the m tours of any plan, their depots merged, connect
    the UAV-served sensors and the merged edges, so in total they are at
    least the spanning tree over them, and below the bound that tree exceeds
    m revisit periods or m energy budgets.  Each m has its own clusters, so
    skipping these changes no plan.
    Below m_max an m is dropped without routing when a cluster's spanning-tree
    bound already breaks a limit, the bounds taken largest cluster first (ties
    by index), which decides the same as any order; its routing stops at the
    first route that breaks one; m_max is always tried and routed in full, so
    the binding constraints come from complete routes.  ``at_m`` builds the
    plan at that one m without the gate (a failed repair keeps the
    unrepaired assignment; route limits go unchecked).  Raises
    InfeasibleError naming the constraints the last m failed, or ``binding``
    when given, and an OmegaHError before any m when ``algo.omega_h`` fails
    ``check_omega_h`` on the scenario.
    """
    check_omega_h(scenario, algo.omega_h)
    p = scenario.physical
    gate = at_m is None
    sizes = (range(_fleet_lower_bound(scenario, direct_map,
                                      initial_fleet_size(p, algo.fleet_init_mode)),
                   p.m_max + 1)
             if gate else (at_m,))
    failed: list[str] = []
    beta, d_se = scenario.beta_mi[uav_ids], edge_distances(scenario, uav_ids)
    capacity = scenario.capacity
    for m in sizes:
        clusters = clusters_at(m)
        if clusters is None:
            continue
        labels, order, iterations = clusters
        (counts,), (demands,), (dist,) = cluster_terms(labels[None], m, beta, d_se, algo.omega_d,
                                                       p.diag_m, p.t_period_s)
        edge_of, loads = assign_clusters(counts, demands, dist, load0.loads_mips, capacity,
                                         algo.omega_l)
        if (loads > capacity).any():
            try:
                edge_of, loads = repair_overload(edge_of, demands, dist, loads, capacity,
                                                 algo.omega_l)
            except RepairFailure:
                if gate:
                    failed = ["edge capacity"]
                    continue
        edges, ends = edge_of.tolist(), np.cumsum(counts).tolist()
        ids = uav_ids[order]
        members = [ids[a:b] for a, b in zip([0] + ends[:-1], ends)]

        # below the ceiling a failed m only leads on to m + 1, so skip it as
        # soon as one cluster cannot meet the limits
        prune = gate and m < p.m_max
        if prune and any(_bound_breaks(edges[j], members[j], scenario)
                         for j in _largest_first(members)):
            continue
        routes = []
        for j in range(m):
            r = route(j, edges[j], members[j], scenario)
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

        centers = tuple(_weighted_centroid(ids, scenario, algo.omega_h) if len(ids)
                        else tuple(scenario.edge_xy[edges[j]].tolist())
                        for j, ids in enumerate(members))
        clustering = Clustering(m=m, assignment={i: j for j, ids in enumerate(members)
                                                 for i in ids.tolist()},
                                centers=centers, iterations_run=iterations)
        load = EdgeLoadState(loads.tolist(), list(load0.capacities_mips))
        return Plan(m=m, clustering=clustering,
                    assignment=Assignment(direct_map=direct_map,
                                          cluster_map=dict(enumerate(edges)), load=load),
                    routes=routes, planning_time_s=time.perf_counter() - t0,
                    method=method, variant=variant, seed=algo.seed)
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
    plan may break the revisit, energy, capacity or fleet-ceiling limits,
    which plan() itself would never emit.
    """
    return _proposed(scenario, algo, variant, at_m=m)


def _proposed(scenario, algo: AlgoParams, variant: Variant, at_m: int | None) -> Plan:
    t0 = time.perf_counter()
    uav_ids, direct_map, load0 = assign_direct(scenario)
    route = build_route
    if variant in (Variant.NO_2OPT, Variant.NO_BOTH):
        route = functools.partial(build_route, use_two_opt=False)
    return size_fleet(scenario, algo, uav_ids, direct_map, load0,
                      lambda m: _cluster_for_m(uav_ids, m, scenario, algo, variant),
                      route, method="proposed", t0=t0,
                      variant=variant.value, at_m=at_m, binding=None)


def _edge_loads(assignment: Assignment, routes, scenario) -> list[float]:
    """Each edge's load recomputed from the direct and cluster maps: a direct
    sensor's demand, then each cluster's summed in its route's visit order."""
    p = scenario.physical
    beta = scenario.beta_mi.tolist()
    loads = [0.0] * len(scenario.edge_xy)
    for sid, eid in assignment.direct_map.items():
        loads[eid] += beta[sid] / p.t_period_s
    for j, eid in assignment.cluster_map.items():
        loads[eid] += cluster_demand(scenario.beta_mi[list(routes[j].waypoints)],
                                     p.t_period_s)
    return loads


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
                "waypoint_xy": scenario.xy[list(r.waypoints)].tolist(),
                "length_m": r.length_m,
                "revisit_s": r.revisit_s,
                "energy_wh": r.energy_wh,
            }
            for r in pl.routes
        ],
    }


def save_plan(pl: Plan, scenario, path: str) -> None:
    write_json(path, plan_to_doc(pl, scenario))


def _check_structure(clustering: Clustering, assignment: Assignment, routes, scenario) -> None:
    """Reject a plan whose parts disagree: every sensor served exactly once,
    directly (within r_se of its edge, phase 1's test) or by one cluster;
    route j starting at cluster j's edge and visiting exactly cluster j's
    members; stored route lengths, revisit periods and energies equal to a
    recomputation up to a relative 1e-9, which absorbs a different
    summation order of the upload sizes."""
    if sorted(assignment.cluster_map) != list(range(len(routes))):
        raise InputError(f"plan assignment.cluster_map: keys must be the clusters "
                         f"0..{len(routes) - 1}")
    direct, uav = assignment.direct_map.keys(), clustering.assignment.keys()
    if direct & uav:
        raise InputError(f"plan assignment.direct_map: sensor {min(direct & uav)} is "
                         f"also in clustering.assignment")
    unserved = set(range(len(scenario.xy))) - direct - uav
    if unserved:
        raise InputError(f"plan clustering.assignment: sensor {min(unserved)} is in neither "
                         f"clustering.assignment nor assignment.direct_map")
    _, _, r_se = link_ranges(scenario.physical)
    sensors, edges = scenario.xy.tolist(), scenario.edge_xy.tolist()
    for sid, eid in sorted(assignment.direct_map.items()):
        (x, y), (ex, ey) = sensors[sid], edges[eid]
        d = math.hypot(x - ex, y - ey)
        if not d <= r_se:
            raise InputError(f'plan assignment.direct_map["{sid}"]: sensor {sid} is {d:.0f} m '
                             f"from edge {eid}, beyond r_se = {r_se:g} m")
    members: list[list[int]] = [[] for _ in routes]
    for sid, j in sorted(clustering.assignment.items()):
        members[j].append(sid)
    for j, r in enumerate(routes):
        if r.depot_edge_id != assignment.cluster_map[j]:
            raise InputError(f"plan routes[{j}].depot_edge_id: {r.depot_edge_id} is not "
                             f"assignment.cluster_map[{j}] = {assignment.cluster_map[j]}")
        if sorted(r.waypoints) != members[j]:
            raise InputError(f"plan routes[{j}].waypoints: must visit the members of "
                             f"cluster {j} once each")
        again = ordered_route(r.uav_id, r.depot_edge_id, r.waypoints, scenario)
        for field in ("length_m", "revisit_s", "energy_wh"):
            got, want = getattr(r, field), getattr(again, field)
            if not math.isclose(got, want, rel_tol=1e-9):
                raise InputError(f"plan routes[{j}].{field}: {got!r} differs from "
                                 f"{want!r} recomputed from the waypoints")


def _pair(row: Doc) -> tuple[float, float]:
    xy = tuple(v.number() for v in row.rows())
    if len(xy) != 2:
        row.fail(f"expected an [x, y] pair, got {shown(row.value)}")
    return xy


def _check_waypoint_xy(doc: Doc, waypoints: tuple[int, ...], scenario) -> None:
    """A route's ``waypoint_xy`` must be its waypoints' scenario positions,
    exactly: ``save_plan`` writes those floats and JSON keeps them."""
    rows = doc.rows()
    if len(rows) != len(waypoints):
        doc.fail(f"{len(rows)} points for {len(waypoints)} waypoints")
    for row, sid, want in zip(rows, waypoints, scenario.xy[list(waypoints)].tolist()):
        if list(_pair(row)) != want:
            row.fail(f"{row.value!r} is not sensor {sid}'s position {want}")


def load_plan(path: str, scenario) -> Plan:
    """Read a plan file made for ``scenario``.  A malformed field, an id
    outside the scenario or parts that disagree raise InputError naming the
    plan field."""
    doc = read(path, PLAN_SCHEMA_VERSION, "plan ")
    n, p, m = len(scenario.xy), len(scenario.edge_xy), doc["m"].integer(1)
    clust = doc["clustering"]
    centers = tuple(_pair(c) for c in clust["centers"].rows())
    if len(centers) != m:
        clust["centers"].fail(f"expected m = {m} centers")
    clustering = Clustering(m=m, assignment=clust["assignment"].id_map(n, m),
                            centers=centers,
                            iterations_run=clust["iterations_run"].integer(0))
    assign = doc["assignment"]
    load_rows = assign["loads_mips"].rows()
    loads = [v.number() for v in load_rows]
    if len(loads) != p:
        assign["loads_mips"].fail(f"{len(loads)} loads for {p} edges")
    assignment = Assignment(direct_map=assign["direct_map"].id_map(n, p),
                            cluster_map=assign["cluster_map"].id_map(m, p),
                            load=EdgeLoadState(loads, scenario.capacity.tolist()))
    rows = doc["routes"].rows()
    if len(rows) != m:
        doc["routes"].fail(f"expected a list of m = {m} routes")
    routes = []
    for j, r in enumerate(rows):
        if r["uav_id"].integer() != j:
            r["uav_id"].fail(f"expected {j}, got {r['uav_id'].value!r}")
        routes.append(Route(uav_id=j, depot_edge_id=r["depot_edge_id"].id(p),
                            waypoints=tuple(w.id(n) for w in r["waypoints"].rows()),
                            length_m=r["length_m"].number(),
                            revisit_s=r["revisit_s"].number(),
                            energy_wh=r["energy_wh"].number()))
    routes = tuple(routes)
    _check_structure(clustering, assignment, routes, scenario)
    # after the structure checks, so a wrong waypoint list is named as such
    for r, route in zip(rows, routes):
        _check_waypoint_xy(r["waypoint_xy"], route.waypoints, scenario)
    # the capacity-scaled part absorbs a repair move's residue on an emptied edge
    for row, got, want, cap in zip(load_rows, loads, _edge_loads(assignment, routes, scenario),
                                   scenario.capacity.tolist()):
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9 * cap):
            row.fail(f"{got!r} differs from {want!r} recomputed from the direct and "
                     f"cluster maps")
    return Plan(m=m, clustering=clustering, assignment=assignment, routes=routes,
                planning_time_s=0.0, method=doc["method"].string(),
                variant=doc["variant"].string(), seed=doc["seed"].integer())


def write_route_csv(pl: Plan, scenario, path: str) -> None:
    """Write one CSV row per tour leg: uav_id, leg index, endpoints."""
    rows = []
    for r in pl.routes:
        pts = [scenario.edge_xy[r.depot_edge_id].tolist()]
        pts += scenario.xy[list(r.waypoints)].tolist()
        if len(pts) > 1:
            pts.append(pts[0])
        for leg, (a, b) in enumerate(zip(pts[:-1], pts[1:])):
            rows.append({"uav_id": r.uav_id, "leg": leg,
                         "x1": a[0], "y1": a[1], "x2": b[0], "y2": b[1]})
    write_csv(path, ["uav_id", "leg", "x1", "y1", "x2", "y2"], rows)
