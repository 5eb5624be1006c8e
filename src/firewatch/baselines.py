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
a fleet size with none is rejected.  Each GA generation and PSO step is
evaluated as one population: (P, n) gene and visit-order arrays, with the
per-row sums, edge choices and nearest-neighbor steps vectorised across rows
and every per-cluster sum taken in the same order as for one individual, so
each row gets the numbers it would get on its own.

GA children are built a generation at a time from the values a loop over
the pairs of children would draw from the search's numpy Generator, one
call per tournament, crossover and mutation, in that order.  ``_Stream``
replays those draws from blocks of the PCG64 bit generator's raw 64-bit
outputs (``random_raw``) by numpy's rules: a double is ``(raw >> 11) *
2**-53``; a 32-bit draw takes the low half of a raw output, then its high
half, which waits across calls and is skipped by doubles; ``integers(0, r)``
is ``(u32 * r) >> 32``, drawn again while ``(u32 * r) mod 2**32 < 2**32 mod
r`` (Lemire 2019); r == 1 and size 0 draw nothing.  A generation first walks
the loop for positions only, then builds every child with whole-population
array operations, so the plans are those of the loop.  If numpy changes its
Generator stream, ``tests/test_baselines.py::test_stream_replays_the_generator``
fails first.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import planner
# assign_clusters and repair_overload stay importable here, and phase 1 is
# looked up as planner.assign_direct: bench/tracer.py wraps those names
from .edge_assignment import assign_clusters, repair_overload  # noqa: F401
from .model import MB_TO_MBIT, AlgoParams, derive_seed
from .planner import Plan, size_fleet
from .routing import build_route, ordered_route
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
    """GA/PSO state shared by every population evaluation.  Genes index the
    UAV-served sensors ``uav_ids`` (ascending); ``alpha``, ``beta``, ``d_se``
    and ``d_ss`` are their upload sizes, compute demands and distances to
    every edge and to each other.  Every method takes a whole population:
    (P, n) gene and visit-order arrays, one row per individual."""

    def __init__(self, scenario, algo: AlgoParams):
        self.algo = algo
        self.p = p = scenario.physical
        self.uav_ids, self.direct_map, self.load0 = planner.assign_direct(scenario)
        self.n = len(self.uav_ids)
        xy = scenario.xy[self.uav_ids]
        self.alpha = scenario.alpha_mb[self.uav_ids]
        self.beta = scenario.beta_mi[self.uav_ids]
        self.cap = scenario.capacity
        self.d_se = np.linalg.norm(xy[:, None, :] - scenario.edge_xy[None, :, :], axis=2)
        self.d_ss = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=2)
        # the per-sensor values assign_edges sums by cluster, one per row
        self.gene_columns = np.vstack([self.beta, self.alpha, self.d_se.T])
        self.base_loads = np.array(self.load0.loads_mips)
        self.t_tra_sum = (self.alpha * MB_TO_MBIT / p.data_rate_mbps).sum()
        # direct sensors contribute a constant to the service-time objective
        alpha, beta, cap = (c.tolist() for c in (scenario.alpha_mb, scenario.beta_mi,
                                                  scenario.capacity))
        self.direct_service = sum(
            transmission_time(alpha[i], p.data_rate_mbps) + execution_time(beta[i], cap[k])
            for i, k in self.direct_map.items())

    def assign_edges(self, genes: np.ndarray, m: int):
        """Sequential lowest-score edge per cluster (same score as the shared
        phase-2 op), each step across all rows.  Returns the (P, m) member
        counts, upload sums and edge indices and the (P, edges) loads."""
        a = self.algo
        P, n = genes.shape
        # bin r*m + j is cluster j of row r, so each bin sums its members in
        # id order, as a per-row bincount would
        bins = (genes + m * np.arange(P)[:, None]).ravel()
        beta_sum, alpha_sum, *edge_sums = (
            np.bincount(bins, weights=w, minlength=P * m).reshape(P, m)
            for w in np.tile(self.gene_columns, P))
        counts = np.bincount(bins, minlength=P * m).reshape(P, m)
        demands = beta_sum / self.p.t_period_s
        dbar = np.divide(np.stack(edge_sums, axis=2), np.maximum(counts, 1)[..., None])
        distance_term = a.omega_d * dbar / self.p.diag_m
        rows = np.arange(P)
        loads = np.tile(self.base_loads, (P, 1))
        edge_of = np.empty((P, m), dtype=int)
        for j in range(m):
            scores = distance_term[:, j] + a.omega_l * (loads + demands[:, j, None]) / self.cap
            edge_of[:, j] = k = scores.argmin(axis=1)
            loads[rows, k] += demands[:, j]
        return counts, alpha_sum, edge_of, loads

    def evaluate(self, genes: np.ndarray, orders: np.ndarray, assigned):
        """Objective + violation count per row for clusterings with fixed
        visit orders (each row of `orders` = sensor indices grouped by
        cluster, in visit order) and their ``assign_edges`` result.

        Returns the (P,) fitness and violations and the (P, m) tour lengths."""
        p = self.p
        counts, alpha_sum, edge_of, loads = assigned
        P, m = counts.shape
        rows = np.arange(P)[:, None]

        # tour lengths: inner legs along the order, broken at cluster
        # boundaries, plus the two depot legs per non-empty cluster
        og = genes[rows, orders]
        seg = self.d_ss[orders[:, :-1], orders[:, 1:]]
        same = og[:, 1:] == og[:, :-1]
        # (bincount gives ints when no leg is inside a cluster)
        lengths = np.bincount((og[:, 1:] + m * rows)[same], weights=seg[same],
                              minlength=P * m).reshape(P, m).astype(float, copy=False)
        r, j = np.nonzero(counts)
        starts = (np.cumsum(counts, axis=1) - counts)[r, j]
        first = orders[r, starts]
        last = orders[r, starts + counts[r, j] - 1]
        k = edge_of[r, j]
        lengths[r, j] += self.d_se[first, k] + self.d_se[last, k]

        revisit = lengths / p.v_g
        energy = (p.p_fly_w * revisit + p.p_comm_w * alpha_sum * MB_TO_MBIT
                  / p.data_rate_mbps) / 3600.0
        # assign_edges' loads are the base loads plus each cluster's demand,
        # added in cluster order: the capacity check's loads
        violations = ((revisit > p.t_max_s).sum(axis=1) + (energy > p.e_max_wh).sum(axis=1)
                      + (loads > self.cap).sum(axis=1))

        service = self.t_tra_sum + (self.beta / self.cap[edge_of[rows, genes]]).sum(axis=1)
        objective = lengths.sum(axis=1) + self.algo.lam * (service + self.direct_service)
        return objective + PENALTY * violations, violations, lengths

    def nn_orders(self, genes: np.ndarray, assigned) -> np.ndarray:
        """Nearest-neighbor visit order of every cluster of every row from
        its assigned edge, grouped by cluster; ties go to the lowest sensor
        id.  One step per visit, taken across all P*m clusters at once."""
        counts, _, edge_of, _ = assigned
        P, n = genes.shape
        size = counts.ravel()
        width = int(size.max())
        valid = np.arange(width) < size[:, None]
        # row c = cluster c % m of row c // m: its members in ascending id
        # order, padding after
        members = np.zeros((len(size), width), dtype=int)
        members[valid] = np.argsort(genes, axis=1, kind="stable").ravel()
        # largest clusters first, so step t runs on a leading block of rows
        by_size = np.argsort(-size, kind="stable")
        members, size = members[by_size], size[by_size]
        # inf on padding and visited members, 0 elsewhere: adding it leaves
        # every open distance as it is
        blocked = np.where(valid[by_size], 0.0, np.inf)
        edge = edge_of.ravel()[by_size]
        d_ss = self.d_ss.ravel()
        picks = np.zeros_like(members)
        for t in range(width):
            live = int(np.count_nonzero(size > t))
            rows = np.arange(live)
            if t == 0:
                d = self.d_se[members[:live], edge[:live, None]]
            else:
                d = d_ss.take(members[rows, cur[:live], None] * n + members[:live])
            d += blocked[:live]
            picks[:live, t] = cur = d.argmin(axis=1)
            blocked[rows, cur] = np.inf
        seq = np.empty_like(members)
        seq[by_size] = np.take_along_axis(members, picks, axis=1)
        return seq[valid].reshape(P, n)

    def clusters(self, genes: np.ndarray, order: np.ndarray, m: int):
        """size_fleet clusters of one individual: per-cluster sensor ids in
        visit order (`order` = workspace indices grouped by cluster)."""
        return [self.uav_ids[order[genes[order] == j]] for j in range(m)], 0


def _order_by_priority(genes: np.ndarray, priorities: np.ndarray) -> np.ndarray:
    """Per row: sensor indices grouped by cluster, each group by ascending
    priority (ties by index): one stable lexsort over the whole population."""
    return np.lexsort((priorities, genes), axis=-1)


class _Stream:
    """The ``random()`` and ``integers(0, r)`` draws of a numpy Generator,
    replayed from blocks of its PCG64 bit generator's raw 64-bit outputs.

    The draw methods hand out where each value sits, not the value: a double
    is raw output i, its value ``dbl[i]``; a 32-bit word w is the low (w
    even) or high (w odd) half of raw output w // 2, and ``bounded`` turns
    words into integers.  The rules are numpy's, so the values are those the
    Generator itself would draw, in the same order.  Draws are made in
    passes, through ``replay``."""

    def __init__(self, rng: np.random.Generator):
        self._bitgen = rng.bit_generator
        state = self._bitgen.state
        # a 32-bit draw takes the low half of a raw output and leaves the high
        # half for the next one; after an odd count of them that half waits,
        # and it becomes the high half of a raw output 0
        waiting = [state["uinteger"] << 32] if state["has_uint32"] else []
        self._carry = 0 if waiting else None
        # raw outputs fetched at a time: at least the last pass's use
        self.pos, self._chunk = len(waiting), 1024
        self._exact = self._rejected = False
        self.raw, self.dbl = np.empty(0, dtype=np.uint64), np.empty(0)
        # _below[i]: how many doubles before raw output i are < MUTATION_RATE
        self._below = np.zeros(1, dtype=np.intp)
        self._append(np.array(waiting, dtype=np.uint64))

    def _append(self, raw: np.ndarray) -> None:
        dbl = (raw >> 11) * 2.0 ** -53
        self.raw = np.concatenate([self.raw, raw])
        self.dbl = np.concatenate([self.dbl, dbl])
        self._below = np.concatenate([self._below,
                                      self._below[-1] + np.cumsum(dbl < MUTATION_RATE)])

    def _grow(self) -> None:
        """Make raw outputs up to pos available; appending keeps every
        position already handed out valid."""
        self._append(self._bitgen.random_raw(max(self.pos - len(self.raw), self._chunk)))

    def doubles(self, k: int) -> int:
        """``random(k)`` reads raw outputs start .. start + k - 1; returns
        start.  A double leaves a waiting high half waiting."""
        start = self.pos
        self.pos += k
        if self.pos > len(self.raw):
            self._grow()
        return start

    def mask(self, k: int) -> tuple[int, int]:
        """``random(k) < MUTATION_RATE``: where its doubles start and how
        many of them are below."""
        start = self.doubles(k)
        return start, int(self._below[self.pos] - self._below[start])

    def words(self, k: int, r: int) -> list[int]:
        """The words ``integers(0, r, size=k)`` reads, in order, for
        1 <= r <= 2**32; r == 1 and k == 0 read none.  Lemire's method draws
        again while ``u * r mod 2**32 < 2**32 mod r``: a fast pass assumes it
        never does, and ``replay`` checks that."""
        if r == 1 or not k:
            return []
        if not self._exact:
            return self._take(k)
        out = []
        while len(out) < k:
            w = self._take(1)
            if (int(self._values(w)[0]) * r) & 0xFFFFFFFF >= (2 ** 32 - r) % r:
                out += w
        return out

    def _take(self, k: int) -> list[int]:
        """The next k >= 1 words: a waiting high half first, then both halves
        of new raw outputs, low first; an odd count leaves a half waiting."""
        out = [] if self._carry is None else [2 * self._carry + 1]
        j, pos = k - len(out), self.pos     # j words from new raw outputs
        out += range(2 * pos, 2 * pos + j)
        self.pos += (j + 1) // 2
        self._carry = pos + j // 2 if j % 2 else None
        if self.pos > len(self.raw):
            self._grow()
        return out

    def _values(self, words) -> np.ndarray:
        """The 32-bit values of ``words``, as uint64."""
        w = np.asarray(words, dtype=np.intp)
        raw = self.raw[w >> 1]
        return np.where(w & 1, raw >> 32, raw & 0xFFFFFFFF)

    def bounded(self, words, r: int) -> np.ndarray:
        """The values of ``integers(0, r)`` read from ``words``; a fast pass
        also notes whether Lemire's method rejects any of them."""
        u = self._values(words) * np.uint64(r)
        if not self._exact:
            self._rejected |= bool(((u & 0xFFFFFFFF) < (2 ** 32 - r) % r).any())
        return (u >> 32).astype(np.intp)

    def replay(self, walk):
        """``walk(self)``: one pass of draws (a GA generation, say) made
        through the methods above, which reads every word it draws through
        ``bounded`` before it returns.  If a fast pass read a word that
        Lemire's method rejects, the pass is walked again from its start,
        word by word.  A pass first drops the raw outputs before it, so
        read a pass's doubles before the next one."""
        spent = self.pos if self._carry is None else self._carry
        self.raw, self.dbl, self._below = (a[spent:] for a in (self.raw, self.dbl,
                                                               self._below))
        self.pos -= spent
        if self._carry is not None:
            self._carry = 0
        start, self._rejected = (self.pos, self._carry), False
        out = walk(self)
        if self._rejected:
            (self.pos, self._carry), self._exact = start, True
            out = walk(self)
            self._exact = False
        self._chunk = max(self.pos, 1024)
        return out


def _breed(stream: _Stream, genes: np.ndarray, prios: np.ndarray, fits: np.ndarray,
           m: int):
    """The next generation: the elite, then children in pairs, each pair two
    tournament winners, one-point crossover and per-gene mutation.  The
    draws are those of a loop over the pairs (the last pair's second child
    is dropped when the population is even): a pass walks that loop for
    positions only, then every child is built at once."""
    pop, n = genes.shape
    pairs = pop // 2

    def walk(s: _Stream):
        tour, cross, cuts, gene_at, gene_words, prio_at = [], [], [], [], [], []
        for _ in range(pairs):
            tour += s.words(2 * TOURNAMENT_SIZE, pop)
            if not n:
                continue
            cross.append(s.doubles(1))
            if s.dbl[cross[-1]] < CROSSOVER_RATE:
                cuts += s.words(1, 2 * n - 1)     # integers(1, 2n)
            for _ in range(2):
                start, k = s.mask(n)
                gene_at.append(start)
                gene_words += s.words(k, m)
                start, k = s.mask(n)
                prio_at.append(start)
                s.doubles(k)                      # the new priorities
        return (s.bounded(tour, pop), cross, s.bounded(cuts, 2 * n - 1) if n > 1 else 0,
                gene_at, s.bounded(gene_words, m) if m > 1 else 0, prio_at)

    tour, cross, cuts, gene_at, new_genes, prio_at = stream.replay(walk)
    # two tournaments per pair; the first of the lowest fitness wins
    contenders = tour.reshape(2 * pairs, TOURNAMENT_SIZE)
    parents = contenders[np.arange(2 * pairs), fits[contenders].argmin(axis=1)]
    g, pr = genes[parents], prios[parents]
    if n:
        # one-point crossover of the genes-then-priorities chromosome: the two
        # children swap everything from cut on; cut = 2n swaps nothing
        cut = np.full(pairs, 2 * n)
        cut[stream.dbl[cross] < CROSSOVER_RATE] = 1 + cuts
        col = np.arange(n)
        for x, start in ((g, cut), (pr, cut - n)):
            both = x.reshape(pairs, 2, n)
            both[:] = np.where((col >= start[:, None])[:, None], both[:, ::-1], both)
        # mutation, child by child in row-major (pair, child) order; child
        # i's new priorities follow its n mask doubles
        g[stream.dbl[np.add.outer(gene_at, col)] < MUTATION_RATE] = new_genes
        mask = stream.dbl[np.add.outer(prio_at, col)] < MUTATION_RATE
        counts = mask.sum(axis=1)
        first = np.asarray(prio_at) + n - (np.cumsum(counts) - counts)
        pr[mask] = stream.dbl[np.repeat(first, counts) + np.arange(counts.sum())]
    elite = int(np.argmin(fits))
    return (np.concatenate([genes[elite][None], g])[:pop],
            np.concatenate([prios[elite][None], pr])[:pop])


def _ga_search(ws: _Workspace, cfg: GaConfig, m: int):
    """Evolve m-cluster chromosomes; the best zero-violation individual as
    size_fleet clusters, or None."""
    rng = np.random.default_rng(derive_seed(cfg.seed, f"ga-m{m}"))
    genes = rng.integers(0, m, size=(cfg.population, ws.n))
    prios = rng.random((cfg.population, ws.n))
    stream = _Stream(rng)

    def evaluate(g, pr):
        orders = _order_by_priority(g, pr)
        fits, viols, _ = ws.evaluate(g, orders, ws.assign_edges(g, m))
        return fits, viols, orders

    fits, viols, orders = evaluate(genes, prios)
    for _ in range(cfg.generations):
        genes, prios = _breed(stream, genes, prios, fits, m)
        fits, viols, orders = evaluate(genes, prios)

    feasible = np.flatnonzero(viols == 0)
    if not feasible.size:
        return None
    best = int(feasible[np.argmin(fits[feasible])])
    return ws.clusters(genes[best], orders[best], m)


def ga_plan(scenario, algo: AlgoParams, cfg: GaConfig | None = None) -> Plan:
    """Genetic-algorithm baseline: joint cluster-assignment + visit-priority
    chromosome per fleet size, penalty-driven feasibility."""
    cfg = cfg if cfg is not None else GaConfig(seed=algo.seed)
    t0 = time.perf_counter()
    ws = _Workspace(scenario, algo)
    return size_fleet(scenario, algo, ws.direct_map, ws.load0,
                      lambda m: _ga_search(ws, cfg, m), ordered_route,
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
        assigned = ws.assign_edges(g, m)
        orders = ws.nn_orders(g, assigned)
        fits, viols, _ = ws.evaluate(g, orders, assigned)
        return fits, viols, orders

    fits, viols, orders = evaluate(pos)
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
        fits, viols, orders = evaluate(pos)
        better = fits < pbest_fit
        pbest[better] = pos[better]
        pbest_fit[better] = fits[better]
        # argmin keeps the first of equal minima, as a strict < scan would
        i = int(np.argmin(fits))
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
                      lambda m: _pso_search(ws, cfg, m), ordered_route,
                      method="pso", seed=cfg.seed, t0=t0, variant="-", at_m=None,
                      binding=["no feasible particle"])


def greedy_plan(scenario, algo: AlgoParams) -> Plan:
    """Greedy baseline: seed one cluster per UAV at the first m edge
    positions (cycling), append each sensor in id order to the cluster whose
    current route end is nearest, then route nearest-neighbor only."""
    t0 = time.perf_counter()
    uav_ids, direct_map, load0 = planner.assign_direct(scenario)
    xy = scenario.xy[uav_ids]

    def clusters_at(m):
        ends = scenario.edge_xy[np.arange(m) % len(scenario.edge_xy)]
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
