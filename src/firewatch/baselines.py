"""Comparison planners: genetic algorithm, particle swarm, and a greedy
nearest-route-end constructor.

All three share the main planner's phase-1 direct assignment and run inside
its fleet-sizing loop (``planner.size_fleet``), which does cluster-to-edge
assignment with overload repair, the constraint checks and plan assembly for
every method; they supply only how clusters and visit orders are produced,
each cluster an array of sensor ids into the scenario's columns.
Greedy routes nearest-neighbor.  GA and PSO search each fleet size with a
penalty (1e6 per violated route/edge constraint) and hand the best
zero-violation individual, routed in its evolved visit order, to the loop;
a fleet size with none is rejected.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

# assign_clusters and repair_overload stay importable here: bench/tracer.py
# wraps them under this module's name
from .edge_assignment import assign_clusters, repair_overload  # noqa: F401
from .model import MB_TO_MBIT, AlgoParams, derive_seed
from .planner import Plan, size_fleet, split_and_assign_direct
from .routing import Route, build_route, route_energy, tour_length
from .timing import execution_time, transmission_time

PENALTY = 1e6
# GA operators: one-point crossover rate, per-gene mutation rate, tournament size
CROSSOVER_RATE = 0.8
MUTATION_RATE = 0.1
TOURNAMENT_SIZE = 3
# PSO velocity update: inertia and the cognitive and social weights
INERTIA = 0.7
C1 = 1.5
C2 = 1.5


@dataclass(frozen=True)
class GaConfig:
    population: int = 50
    generations: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")


@dataclass(frozen=True)
class PsoConfig:
    swarm: int = 30
    iterations: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.swarm < 2:
            raise ValueError("swarm must be >= 2")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")


class _Workspace:
    """GA/PSO state shared by every candidate evaluation.  Genes index the
    UAV-served sensors ``uav_ids`` (ascending); ``alpha``, ``beta``, ``d_se``
    and ``d_ss`` are their upload sizes, compute demands and distances to
    every edge and to each other."""

    def __init__(self, scenario, algo: AlgoParams):
        self.algo = algo
        self.p = p = scenario.physical
        self.uav_ids, self.direct_map, self.load0 = split_and_assign_direct(scenario)
        self.n = len(self.uav_ids)
        xy = scenario.xy[self.uav_ids]
        self.alpha = scenario.alpha_mb[self.uav_ids]
        self.beta = scenario.beta_mi[self.uav_ids]
        self.cap = scenario.capacity
        self.d_se = np.linalg.norm(xy[:, None, :] - scenario.edge_xy[None, :, :], axis=2)
        self.d_ss = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=2)
        self.base_loads = np.array(self.load0.loads_mips)
        self.t_tra = self.alpha * MB_TO_MBIT / p.data_rate_mbps
        # direct sensors contribute a constant to the service-time objective
        alpha, beta, cap = (c.tolist() for c in (scenario.alpha_mb, scenario.beta_mi,
                                                  scenario.capacity))
        self.direct_service = sum(
            transmission_time(alpha[i], p.data_rate_mbps) + execution_time(beta[i], cap[k])
            for i, k in self.direct_map.items())

    def assign_edges(self, genes: np.ndarray, m: int):
        """Sequential lowest-score edge per cluster (same score as the shared
        phase-2 op).  Returns (member counts, demands, edge index) per
        cluster."""
        a = self.algo
        counts = np.bincount(genes, minlength=m)
        demands = np.bincount(genes, weights=self.beta, minlength=m) / self.p.t_period_s
        dbar_sum = np.zeros((m, self.d_se.shape[1]))
        np.add.at(dbar_sum, genes, self.d_se)
        dbar = np.divide(dbar_sum, np.maximum(counts, 1)[:, None])
        d_norm = self.p.diag_m
        loads = self.base_loads.copy()
        out = np.zeros(m, dtype=int)
        for j in range(m):
            scores = a.omega_d * dbar[j] / d_norm + a.omega_l * (loads + demands[j]) / self.cap
            k = int(np.argmin(scores))
            out[j] = k
            loads[k] += demands[j]
        return counts, demands, out

    def eval_clusters(self, genes: np.ndarray, order: np.ndarray, m: int):
        """Objective + violation count for a clustering with a fixed visit
        order (`order` = sensor indices grouped by cluster, in visit order).

        Returns (fitness, violations, edge_of_cluster, lengths)."""
        p = self.p
        counts, demands, edge_of = self.assign_edges(genes, m)

        # tour lengths: inner legs along the order, broken at cluster
        # boundaries, plus the two depot legs per non-empty cluster
        lengths = np.zeros(m)
        og = genes[order]
        seg = self.d_ss[order[:-1], order[1:]]
        same = og[1:] == og[:-1]
        np.add.at(lengths, og[1:][same], seg[same])
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        for j in range(m):
            if counts[j] == 0:
                continue
            first = order[starts[j]]
            last = order[starts[j] + counts[j] - 1]
            lengths[j] += self.d_se[first, edge_of[j]] + self.d_se[last, edge_of[j]]

        revisit = lengths / p.v_g
        alpha_sum = np.bincount(genes, weights=self.alpha, minlength=m)
        energy = (p.p_fly_w * revisit + p.p_comm_w * alpha_sum * MB_TO_MBIT
                  / p.data_rate_mbps) / 3600.0
        loads = self.base_loads.copy()
        np.add.at(loads, edge_of, demands)

        violations = int((revisit > p.t_max_s).sum())
        violations += int((energy > p.e_max_wh).sum())
        violations += int((loads > self.cap).sum())

        service = float(self.t_tra.sum() + (self.beta / self.cap[edge_of[genes]]).sum())
        objective = float(lengths.sum()) + self.algo.lam * (service + self.direct_service)
        fitness = objective + PENALTY * violations
        return fitness, violations, edge_of, lengths

    def nn_order(self, members: np.ndarray, edge_k: int) -> np.ndarray:
        """Nearest-neighbor visit order (indices into the workspace arrays)
        starting from the given edge; ties resolve to the lowest sensor id
        because members are id-ordered."""
        if len(members) == 0:
            return members
        d_edge = self.d_se[members, edge_k]
        sub = self.d_ss[np.ix_(members, members)]
        n_m = len(members)
        remaining = np.ones(n_m, dtype=bool)
        order = np.empty(n_m, dtype=int)
        cur = int(np.argmin(d_edge))
        order[0] = cur
        remaining[cur] = False
        for t in range(1, n_m):
            d = sub[cur].copy()
            d[~remaining] = np.inf
            cur = int(np.argmin(d))
            order[t] = cur
            remaining[cur] = False
        return members[order]

    def clusters(self, genes: np.ndarray, order: np.ndarray, m: int):
        """size_fleet clusters of one individual: per-cluster sensor ids in
        visit order (`order` = workspace indices grouped by cluster)."""
        return [self.uav_ids[order[genes[order] == j]] for j in range(m)], 0


def evolved_route(uav_id: int, depot_edge_id: int, ids: np.ndarray, scenario) -> Route:
    """Route builder for size_fleet: the sensors in the visit order the
    search evolved; upload sizes are summed in that order."""
    p = scenario.physical
    length = tour_length(scenario.edge_xy[depot_edge_id], scenario.xy[ids])
    energy = route_energy(length, scenario.alpha_mb[ids].tolist(), p)
    return Route(uav_id, depot_edge_id, tuple(ids.tolist()), length, length / p.v_g, energy)


def _order_by_priority(genes: np.ndarray, priorities: np.ndarray) -> np.ndarray:
    """Sensor indices grouped by cluster, each group by ascending priority
    (ties by index)."""
    n = len(genes)
    return np.lexsort((np.arange(n), priorities, genes))


def _ga_search(ws: _Workspace, cfg: GaConfig, m: int):
    """Evolve m-cluster chromosomes; the best zero-violation individual as
    size_fleet clusters, or None."""
    n = ws.n
    rng = np.random.default_rng(derive_seed(cfg.seed, f"ga-m{m}"))
    genes = rng.integers(0, m, size=(cfg.population, n))
    prios = rng.random((cfg.population, n))

    def evaluate(g, pr):
        order = _order_by_priority(g, pr)
        fit, viol, _, _ = ws.eval_clusters(g, order, m)
        return fit, viol

    fits = np.empty(cfg.population)
    viols = np.empty(cfg.population, dtype=int)
    for i in range(cfg.population):
        fits[i], viols[i] = evaluate(genes[i], prios[i])

    for _ in range(cfg.generations):
        elite = int(np.argmin(fits))
        new_genes = [genes[elite].copy()]
        new_prios = [prios[elite].copy()]
        while len(new_genes) < cfg.population:
            pair = []
            for _ in range(2):
                contenders = rng.integers(0, cfg.population, size=TOURNAMENT_SIZE)
                pair.append(contenders[np.argmin(fits[contenders])])
            g1, g2 = genes[pair[0]].copy(), genes[pair[1]].copy()
            p1, p2 = prios[pair[0]].copy(), prios[pair[1]].copy()
            if n and rng.random() < CROSSOVER_RATE:
                cut = int(rng.integers(1, 2 * n))
                flat1 = np.concatenate([g1.astype(float), p1])
                flat2 = np.concatenate([g2.astype(float), p2])
                flat1[cut:], flat2[cut:] = flat2[cut:].copy(), flat1[cut:].copy()
                g1, p1 = flat1[:n].astype(int), flat1[n:]
                g2, p2 = flat2[:n].astype(int), flat2[n:]
            for g, pr in ((g1, p1), (g2, p2)):
                if n:
                    mask = rng.random(n) < MUTATION_RATE
                    g[mask] = rng.integers(0, m, size=int(mask.sum()))
                    mask = rng.random(n) < MUTATION_RATE
                    pr[mask] = rng.random(int(mask.sum()))
                new_genes.append(g)
                new_prios.append(pr)
        genes = np.array(new_genes[:cfg.population])
        prios = np.array(new_prios[:cfg.population])
        for i in range(cfg.population):
            fits[i], viols[i] = evaluate(genes[i], prios[i])

    feasible = np.flatnonzero(viols == 0)
    if not feasible.size:
        return None
    best = int(feasible[np.argmin(fits[feasible])])
    return ws.clusters(genes[best], _order_by_priority(genes[best], prios[best]), m)


def ga_plan(scenario, algo: AlgoParams, cfg: GaConfig | None = None) -> Plan:
    """Genetic-algorithm baseline: joint cluster-assignment + visit-priority
    chromosome per fleet size, penalty-driven feasibility."""
    cfg = cfg if cfg is not None else GaConfig(seed=algo.seed)
    t0 = time.perf_counter()
    ws = _Workspace(scenario, algo)
    return size_fleet(scenario, algo, ws.direct_map, ws.load0,
                      lambda m: _ga_search(ws, cfg, m), evolved_route,
                      method="ga", seed=cfg.seed, t0=t0, variant="-", at_m=None,
                      binding=["revisit period, energy budget, or edge capacity"])


def _pso_search(ws: _Workspace, cfg: PsoConfig, m: int):
    """Fly an m-cluster swarm; the global best as size_fleet clusters if it
    has no violation, else None."""
    n = ws.n
    rng = np.random.default_rng(derive_seed(cfg.seed, f"pso-m{m}"))
    pos = rng.uniform(1.0, m, size=(cfg.swarm, n))
    vel = rng.uniform(-1.0, 1.0, size=(cfg.swarm, n))

    def decode(x):
        return np.clip(np.floor(x + 0.5).astype(int) - 1, 0, m - 1)

    def evaluate(x):
        g = decode(x)
        # order: NN within each cluster from its phase-2 edge, so edge
        # assignment runs before routing
        counts, _, edge_of = ws.assign_edges(g, m)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        order = np.empty(n, dtype=int)
        by_cluster = np.argsort(g, kind="stable")
        for j in range(m):
            idx = by_cluster[starts[j]:starts[j] + counts[j]]
            order[starts[j]:starts[j] + counts[j]] = ws.nn_order(idx, edge_of[j])
        fit, viol, _, _ = ws.eval_clusters(g, order, m)
        return fit, viol, order

    fits = np.empty(cfg.swarm)
    viols = np.empty(cfg.swarm, dtype=int)
    orders = [None] * cfg.swarm
    for i in range(cfg.swarm):
        fits[i], viols[i], orders[i] = evaluate(pos[i])
    pbest = pos.copy()
    pbest_fit = fits.copy()
    g_i = int(np.argmin(fits))
    gbest, gbest_fit, gbest_viol, gbest_order = (pos[g_i].copy(), fits[g_i],
                                                 viols[g_i], orders[g_i])

    for _ in range(cfg.iterations):
        r1 = rng.random((cfg.swarm, n))
        r2 = rng.random((cfg.swarm, n))
        vel = INERTIA * vel + C1 * r1 * (pbest - pos) + C2 * r2 * (gbest - pos)
        pos = np.clip(pos + vel, 1.0, m)
        for i in range(cfg.swarm):
            fits[i], viols[i], orders[i] = evaluate(pos[i])
            if fits[i] < pbest_fit[i]:
                pbest[i] = pos[i].copy()
                pbest_fit[i] = fits[i]
            if fits[i] < gbest_fit:
                gbest, gbest_fit = pos[i].copy(), fits[i]
                gbest_viol, gbest_order = viols[i], orders[i]

    if gbest_viol != 0:
        return None
    return ws.clusters(decode(gbest), gbest_order, m)


def pso_plan(scenario, algo: AlgoParams, cfg: PsoConfig | None = None) -> Plan:
    """Particle-swarm baseline: continuous cluster-assignment positions with
    round-half-up decode and nearest-neighbor visit orders."""
    cfg = cfg if cfg is not None else PsoConfig(seed=algo.seed)
    t0 = time.perf_counter()
    ws = _Workspace(scenario, algo)
    return size_fleet(scenario, algo, ws.direct_map, ws.load0,
                      lambda m: _pso_search(ws, cfg, m), evolved_route,
                      method="pso", seed=cfg.seed, t0=t0, variant="-", at_m=None,
                      binding=["no feasible particle"])


def greedy_plan(scenario, algo: AlgoParams) -> Plan:
    """Greedy baseline: seed one cluster per UAV at the first m edge
    positions (cycling), append each sensor in id order to the cluster whose
    current route end is nearest, then route nearest-neighbor only."""
    t0 = time.perf_counter()
    uav_ids, direct_map, load0 = split_and_assign_direct(scenario)
    xy = scenario.xy[uav_ids]

    def clusters_at(m):
        ends = scenario.edge_xy[np.arange(m) % len(scenario.edges)]
        labels = np.empty(len(uav_ids), dtype=int)
        for i in range(len(uav_ids)):   # uav_ids ascend
            k = int(np.argmin(np.linalg.norm(ends - xy[i], axis=1)))
            labels[i] = k
            ends[k] = xy[i]
        return [uav_ids[labels == j] for j in range(m)], 0

    return size_fleet(scenario, algo, direct_map, load0, clusters_at,
                      functools.partial(build_route, use_two_opt=False),
                      method="greedy", seed=algo.seed, t0=t0, variant="-", at_m=None,
                      binding=None)
