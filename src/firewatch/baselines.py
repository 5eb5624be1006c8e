"""Comparison planners: genetic algorithm, particle swarm, and a greedy
nearest-route-end constructor.

All three share the main planner's phase-1 direct assignment and run inside
its fleet-sizing loop (``planner.size_fleet``), which does cluster-to-edge
assignment with overload repair, the constraint checks and plan assembly for
every method; they supply only the clusters, as a label per UAV-served
sensor, and the visit orders.
Greedy routes nearest-neighbor.  GA and PSO search each fleet size with a
penalty (1e6 per violated route/edge constraint) and hand the best
zero-violation individual, routed in its evolved visit order, to the loop;
a fleet size with none is rejected.  Each GA generation and PSO step is
evaluated as one population: (P, n) gene and visit-order arrays, with the
per-row sums and nearest-neighbor steps vectorised across rows and every
per-cluster sum taken in the same order as for one individual, so each row
gets the numbers it would get on its own.  Phase 2 is the planner's
(``edge_assignment.cluster_terms``, which also sums the uploads, and
``assign_batch``) run on the population, so fitness scores the edges and
loads the loop then gives the plan.

GA children are built a generation at a time from the values a loop over
the pairs of children would draw from the search's numpy Generator, one
call per tournament, crossover and mutation, in that order.  ``_Stream``
holds the PCG64 bit generator's raw 64-bit outputs (``random_raw``), from
which those draws follow by numpy's rules: a double is ``(raw >> 11) *
2**-53``; a 32-bit draw takes the low half of a raw output, then its high
half, which waits across calls and is skipped by doubles; ``integers(0, r)``
is ``(u32 * r) >> 32``, drawn again while ``(u32 * r) mod 2**32 < 2**32 mod
r`` (Lemire 2019); r == 1 and size 0 draw nothing.  A generation first
reserves the most raw outputs its draws can read, then ``_walk`` steps
through the loop on plain integers for positions only, taking every word as
accepted, and every child is built with whole-population array operations,
so the plans are those of the loop.  A word Lemire's method rejects sends
the generation through the same walk again, word by word.  If numpy changes
its Generator stream,
``tests/test_baselines.py::test_stream_replays_the_generator`` fails first.

Each GA/PSO fleet size is searched from its own seed stream,
``derive_seed(algo.seed, "ga-m{m}")`` (``"pso-m{m}"``), so the sizes after m
can be searched while m is; ``GaConfig`` and ``PsoConfig`` hold only the
search budgets.  ``ga_plan`` and ``pso_plan`` search on a pool of worker
processes, one per usable CPU (W of them), and hand size_fleet m's result.
The call for m submits m's search unless it was submitted already, then
m + 1 .. m + W - 1 (never above m_max) while fewer than W of the search
futures submitted in the whole process are pending (not done): a lone loop
keeps W sizes searching, and loops in several threads (``firewatch
compare``) look ahead only into idle workers.  The queued searches are
cancelled when size_fleet returns or raises.  The plans are those of
searching one size at a time, which is what one usable CPU does, in
process.  The workers are forked at the first search, or by
``start_workers``, and live until the interpreter exits, so they see module
state as it was when they were forked: a test that patches search
internals calls ``_ga_search`` or ``_pso_search`` itself.  A worker that
dies makes that call raise ``BrokenProcessPool``; the next call starts a
fresh pool.  GA evaluates the children of a generation only: the elite
comes first, and its numbers carry over.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import math
import os
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import planner
# assign_clusters and repair_overload stay importable here, and phase 1 is
# looked up as planner.assign_direct: bench/tracer.py wraps those names
from .edge_assignment import (assign_batch, assign_clusters, cluster_terms,  # noqa: F401
                              edge_distances, repair_overload, weight_rows)
from .model import MB_TO_MBIT, AlgoParams, derive_seed, distance_matrix
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

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")


@dataclass(frozen=True)
class PsoConfig:
    swarm: int = 30
    iterations: int = 100

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
        self.d_se = edge_distances(scenario, self.uav_ids)
        self.d_ss = distance_matrix(xy, xy)
        self.t_tra_sum = (self.alpha * MB_TO_MBIT / p.data_rate_mbps).sum()
        # direct sensors contribute a constant to the service-time objective
        alpha, beta, cap = (c.tolist() for c in (scenario.alpha_mb, scenario.beta_mi,
                                                  scenario.capacity))
        self.direct_service = sum(
            transmission_time(alpha[i], p.data_rate_mbps) + execution_time(beta[i], cap[k])
            for i, k in self.direct_map.items())
        self._weights = {}      # population size -> its cluster_terms weight rows

    def assign(self, genes: np.ndarray, m: int):
        """Phase 2 of a population: the (P, m) member counts, upload sums and
        edges and the (P, edges) loads, the sums from one ``cluster_terms``
        over weight rows tiled once per population size."""
        a, p, P = self.algo, self.p, len(genes)
        if P not in self._weights:
            self._weights[P] = weight_rows(P, self.beta, self.d_se, self.alpha)
        counts, demands, dist, alpha_sum = cluster_terms(genes, m, self.beta, self.d_se,
                                                         a.omega_d, p.diag_m, p.t_period_s,
                                                         self.alpha, weights=self._weights[P])
        return (counts, alpha_sum,
                *assign_batch(counts, demands, dist, self.load0.loads_mips, self.cap,
                              a.omega_l))

    def evaluate(self, genes: np.ndarray, orders: np.ndarray, assigned):
        """Objective + violation count per row for clusterings with fixed
        visit orders (each row of `orders` = sensor indices grouped by
        cluster, in visit order) and their ``assign`` result.

        Returns the (P,) fitness and violations and the (P, m) tour lengths."""
        p = self.p
        counts, alpha_sum, edge_of, loads = assigned
        (P, m), n = counts.shape, self.n
        rows = np.arange(P)[:, None]

        # tour lengths: inner legs along the order, broken at cluster
        # boundaries, plus the two depot legs per non-empty cluster; every
        # (row, column) pair is read as one flat offset
        og = genes.ravel().take(orders + n * rows)
        seg = self.d_ss.ravel().take(orders[:, :-1] * n + orders[:, 1:])
        same = og[:, 1:] == og[:, :-1]
        # (bincount gives ints when no leg is inside a cluster)
        lengths = np.bincount((og[:, 1:] + m * rows)[same], weights=seg[same],
                              minlength=P * m).reshape(P, m).astype(float, copy=False)
        r, j = np.nonzero(counts)
        starts = (np.cumsum(counts, axis=1) - counts)[r, j] + n * r
        flat_orders = orders.ravel()
        first = flat_orders[starts]
        last = flat_orders[starts + counts[r, j] - 1]
        k = edge_of[r, j]
        lengths[r, j] += self.d_se[first, k] + self.d_se[last, k]

        revisit = lengths / p.v_g
        energy = (p.p_fly_w * revisit + p.p_comm_w * alpha_sum * MB_TO_MBIT
                  / p.data_rate_mbps) / 3600.0
        # the assigned loads are the base loads plus each cluster's demand,
        # added in cluster order: the capacity check's loads
        violations = ((revisit > p.t_max_s).sum(axis=1) + (energy > p.e_max_wh).sum(axis=1)
                      + (loads > self.cap).sum(axis=1))

        # each sensor's edge capacity: its cluster's, read at flat offset r * m + gene
        cap = self.cap[edge_of].ravel().take(genes + m * rows)
        service = self.t_tra_sum + (self.beta / cap).sum(axis=1)
        objective = lengths.sum(axis=1) + self.algo.lam * (service + self.direct_service)
        return objective + PENALTY * violations, violations, lengths

    def nn_orders(self, genes: np.ndarray, assigned) -> np.ndarray:
        """Nearest-neighbor visit order of every cluster of every row from
        its assigned edge, grouped by cluster; ties go to the lowest sensor
        id.  One step per visit, taken across all P*m clusters at once: the
        clusters are sorted largest first, so step t runs on the leading
        block of those with more than t members, all counts from one
        ``searchsorted``."""
        counts, _, edge_of, _ = assigned
        P, n = genes.shape
        size = counts.ravel()
        width = int(size.max())
        if not width:           # no UAV-served sensor
            return np.empty((P, 0), dtype=int)
        valid = np.arange(width) < size[:, None]
        # row c = cluster c % m of row c // m: its members in ascending id
        # order, padding after
        members = np.zeros((len(size), width), dtype=int)
        members[valid] = np.argsort(genes, axis=1, kind="stable").ravel()
        by_size = np.argsort(-size, kind="stable")
        members, size = members[by_size], size[by_size]
        live = np.searchsorted(-size, -np.arange(width), side="left").tolist()
        valid = valid[by_size]
        # inf on padding and visited members, 0 elsewhere: adding it leaves
        # every open distance as it is
        blocked = np.where(valid, 0.0, np.inf)
        edge = edge_of.ravel()[by_size]
        d_ss = self.d_ss.ravel()
        # slot base[c] + j: member j of row c, in members, blocked and bases;
        # bases holds the members' row offsets into d_ss
        base = np.arange(len(size)) * width
        bases, flat_blocked = (members * n).ravel(), blocked.ravel()
        visits = []             # per step, the slot each live row visits
        for t, rows in enumerate(live):
            if t == 0:
                d = self.d_se[members[:rows], edge[:rows, None]]
            else:
                d = d_ss.take(bases[visits[-1][:rows], None] + members[:rows])
            d += blocked[:rows]
            visits.append(base[:rows] + d.argmin(axis=1))
            flat_blocked[visits[-1]] = np.inf
        # visit t of row c goes to its cluster's start in the output plus t
        step, row = np.nonzero(valid.T)
        start = (np.cumsum(counts) - counts.ravel())[by_size]
        seq = np.empty(P * n, dtype=members.dtype)
        seq[start[row] + step] = members.ravel()[np.concatenate(visits)]
        return seq.reshape(P, n)


# genes below this fit above a 53-bit priority in one int64 key
_KEY_GENES = 2 ** 10


def _order_by_priority(genes: np.ndarray, priorities: np.ndarray) -> np.ndarray:
    """Per row: sensor indices grouped by cluster, each group by ascending
    priority (ties by index).  Priorities are the GA's, numpy doubles
    ``k * 2**-53`` with integer 0 <= k < 2**53, so while every gene is below
    1024 ``(gene << 53) | k`` is one exact int64 key, and a stable argsort
    of it gives lexsort's order.  With a gene of 1024 or more (m > 1024) the
    key would overflow, and one stable ``np.lexsort`` by gene, then
    priority, gives that order."""
    if genes.size and genes.max() >= _KEY_GENES:
        return np.lexsort((priorities, genes), axis=-1)
    key = (genes.astype(np.int64, copy=False) << 53) | (priorities * 2.0 ** 53).astype(np.int64)
    return np.argsort(key, axis=-1, kind="stable")


# a double (raw >> 11) * 2**-53 is < MUTATION_RATE exactly when raw is
# below this: scaling by a power of two is exact, so the double is below the
# rate when the integer raw >> 11 is below ceil(MUTATION_RATE * 2**53)
_LOW_RAW = math.ceil(MUTATION_RATE * 2 ** 53) << 11


class _Stream:
    """The raw 64-bit outputs of a numpy Generator's PCG64 bit generator,
    from which the ``random()`` and ``integers(0, r)`` draws the Generator
    would make are replayed by numpy's rules, in passes.

    A double is raw output i, its value ``(raw[i] >> 11) * 2**-53``.  A
    32-bit word w is the low (w even) or high (w odd) half of raw output
    w // 2, ``half[w]``, and ``bounded`` turns words into integers.  A pass
    starts at raw output ``pos``; ``carry`` is the raw output whose high
    half waits for the next 32-bit draw, or -1."""

    def __init__(self, rng: np.random.Generator):
        self._bitgen = rng.bit_generator
        state = self._bitgen.state
        # a 32-bit draw takes the low half of a raw output and leaves the high
        # half for the next one; after an odd count of them that half waits,
        # and it becomes the high half of a raw output 0
        waiting = [state["uinteger"] << 32] if state["has_uint32"] else []
        self.pos, self.carry = len(waiting), len(waiting) - 1
        self.raw = np.array(waiting, dtype="<u8")

    @property
    def half(self) -> np.ndarray:
        """The 32-bit words, word w at index w."""
        return self.raw.view("<u4")

    def extend(self, k: int) -> None:
        """Append the bit generator's next k raw outputs; every position
        already handed out stays valid."""
        raw = self._bitgen.random_raw(k).astype("<u8", copy=False)
        self.raw = np.concatenate([self.raw, raw])

    def reserve(self, k: int) -> None:
        """Start a pass that reads at most k raw outputs from ``pos``: drop
        the raw outputs before it and fetch the ones missing."""
        spent = self.pos if self.carry < 0 else self.carry
        self.raw = self.raw[spent:]
        self.pos -= spent
        if self.carry >= 0:
            self.carry = 0
        missing = self.pos + k - len(self.raw)
        if missing > 0:
            self.extend(missing)

    def bounded(self, words, r) -> tuple[np.ndarray, bool]:
        """The values of ``integers(0, r)`` read from ``words`` (r one bound,
        or one per word, each 2 <= r <= 2**32), and whether Lemire's method
        rejects any of the words: it draws again while ``u * r mod 2**32 <
        2**32 mod r`` (Lemire 2019)."""
        r = np.asarray(r, dtype=np.uint64)
        u = self.half[np.asarray(words, dtype=np.intp)] * r
        rejected = bool(((u & 0xFFFFFFFF) < (2 ** 32 - r) % r).any())
        return (u >> 32).astype(np.intp), rejected


def _reservation(pop: int, n: int) -> int:
    """The most raw outputs one generation's draws read, when every
    crossover happens, every gene and priority mutates and every word is
    accepted: per pair one crossover double and 3n doubles per child, and
    six tournament words, one cut word and n gene words per child, two
    words to a raw output."""
    pairs = pop // 2
    if not n:               # the tournaments only
        return pairs * TOURNAMENT_SIZE
    return pairs * (1 + 6 * n) + (pairs * (2 * TOURNAMENT_SIZE + 1 + 2 * n) + 1) // 2


def _walk(s: _Stream, pop: int, n: int, m: int, exact: bool):
    """Where the draws of a loop over the pairs of children sit in ``s``,
    from its ``pos`` and ``carry``: per pair the tournament words, the
    crossover double and cut word, then per child its gene mask doubles,
    gene words, priority mask doubles and new priorities.  A fast pass
    (``exact`` false) takes every word as accepted; an exact one reads each
    word and draws again where Lemire's method would, growing ``s`` by one
    raw output per rejected word, so the reservation still covers the rest.

    Returns the end's pos and carry, the tournament, cut and gene word
    lists, the pairs that cross, each child's gene then priority masks (n
    bytes each, 1 where the double is < MUTATION_RATE) and the raw outputs
    of the new priorities, as bytes."""
    pos, carry = s.pos, s.carry
    tour, crossed, cuts, gene_words, masks, new_prios = [], [], [], [], [], []

    def views():
        """The raw outputs and words as native integers for memoryview
        reads (no copy on a little-endian host), the raw outputs' bytes and
        the low flags as bytes."""
        raw = s.raw.astype(np.uint64, copy=False)
        return (memoryview(raw), memoryview(s.raw.view(np.uint8)),
                memoryview(s.half.astype(np.uint32, copy=False)), (raw < _LOW_RAW).tobytes())

    raw, raw_bytes, half, low = views()

    def take(out: list, k: int, r: int) -> None:
        """Append to ``out`` the k >= 1 words ``integers(0, r, size=k)``
        reads: a waiting high half first, then both halves of new raw
        outputs, low first; an odd count leaves a half waiting."""
        nonlocal pos, carry, raw, raw_bytes, half, low
        if not exact:
            if carry >= 0:
                out.append(2 * carry + 1)
                k -= 1
                carry = -1
            out += range(2 * pos, 2 * pos + k)
            pos += k >> 1
            if k & 1:
                carry = pos
                pos += 1
            return
        floor = (2 ** 32 - r) % r
        while k:
            if carry >= 0:
                w, carry = 2 * carry + 1, -1
            else:
                w, carry = 2 * pos, pos
                pos += 1
            if (half[w] * r) & 0xFFFFFFFF >= floor:
                out.append(w)
                k -= 1
            else:
                s.extend(1)
                raw, raw_bytes, half, low = views()

    for pair in range(pop // 2):
        take(tour, 2 * TOURNAMENT_SIZE, pop)
        if not n:
            continue
        pos += 1
        if (raw[pos - 1] >> 11) * 2.0 ** -53 < CROSSOVER_RATE:
            crossed.append(pair)
            if n > 1:
                take(cuts, 1, 2 * n - 1)            # integers(1, 2n)
        for _ in range(2):
            mask = low[pos:pos + n]
            masks.append(mask)
            pos += n
            if m > 1 and (k := mask.count(1)):
                take(gene_words, k, m)
            mask = low[pos:pos + n]
            masks.append(mask)
            pos += n
            if k := mask.count(1):
                new_prios.append(raw_bytes[8 * pos:8 * (pos + k)])
                pos += k
    return pos, carry, tour, cuts, gene_words, crossed, masks, new_prios


def _breed(stream: _Stream, genes: np.ndarray, prios: np.ndarray, fits: np.ndarray,
           m: int):
    """The next generation: the elite, then children in pairs, each pair two
    tournament winners, one-point crossover and per-gene mutation.  The
    draws are those of a loop over the pairs (the last pair's second child
    is dropped when the population is even): ``_walk`` finds where they sit,
    then every child is built at once.  If a word the fast walk read is one
    Lemire's method rejects, the generation is walked again, exactly."""
    pop, n = genes.shape
    pairs = pop // 2
    stream.reserve(_reservation(pop, n))
    for exact in (False, True):
        pos, carry, tour, cuts, gene_words, crossed, masks, new_prios = _walk(stream, pop, n, m,
                                                                              exact)
        bounds = np.repeat([pop, 2 * n - 1, m], [len(tour), len(cuts), len(gene_words)])
        values, rejected = stream.bounded(tour + cuts + gene_words, bounds)
        if exact or not rejected:
            break
    stream.pos, stream.carry = pos, carry
    a, b = len(tour), len(tour) + len(cuts)
    # the elite, then two tournaments per pair; the first of the lowest
    # fitness wins
    contenders = values[:a].reshape(2 * pairs, TOURNAMENT_SIZE)
    rows = np.empty(1 + 2 * pairs, dtype=np.intp)
    rows[0] = np.argmin(fits)
    rows[1:] = contenders[np.arange(2 * pairs), fits[contenders].argmin(axis=1)]
    g, pr = genes[rows], prios[rows]
    if n:
        # one-point crossover of the genes-then-priorities chromosome: the two
        # children swap everything from cut on; cut = 2n swaps nothing
        cut = np.full(pairs, 2 * n)
        cut[crossed] = 1 + values[a:b] if n > 1 else 1
        col = np.arange(n)
        for x, start in ((g, cut), (pr, cut - n)):
            both = x[1:].reshape(pairs, 2, n)
            both[:] = np.where((col >= start[:, None])[:, None], both[:, ::-1], both)
        # mutation, child by child in row-major (pair, child) order
        mutated = np.frombuffer(b"".join(masks), dtype=bool).reshape(2 * pairs, 2, n)
        g[1:][mutated[:, 0]] = values[b:] if m > 1 else 0
        raw = np.frombuffer(b"".join(new_prios), dtype="<u8")
        pr[1:][mutated[:, 1]] = (raw >> 11) * 2.0 ** -53
    return g[:pop], pr[:pop]


def _ga_search(ws: _Workspace, cfg: GaConfig, m: int):
    """Evolve m-cluster chromosomes; the best zero-violation individual as
    size_fleet clusters, or None."""
    rng = np.random.default_rng(derive_seed(ws.algo.seed, f"ga-m{m}"))
    genes = rng.integers(0, m, size=(cfg.population, ws.n))
    prios = rng.random((cfg.population, ws.n))
    stream = _Stream(rng)

    def evaluate(g, pr):
        orders = _order_by_priority(g, pr)
        fits, viols, _ = ws.evaluate(g, orders, ws.assign(g, m))
        return fits, viols, orders

    fits, viols, orders = evaluate(genes, prios)
    for _ in range(cfg.generations):
        # _breed puts the elite first, and a row's numbers do not depend on
        # the rest of the population: its fitness, violations and order
        # carry over, and only the children are evaluated
        elite = int(np.argmin(fits))
        genes, prios = _breed(stream, genes, prios, fits, m)
        kept = fits[elite], viols[elite], orders[elite]
        fits, viols, orders = (np.concatenate(([old], new))
                               for old, new in zip(kept, evaluate(genes[1:], prios[1:])))

    feasible = np.flatnonzero(viols == 0)
    if not feasible.size:
        return None
    best = int(feasible[np.argmin(fits[feasible])])
    return genes[best], orders[best], 0


def search_workers() -> int:
    """W, the worker processes GA and PSO search on: one per usable CPU, or
    1 where there is no fork, which means searching in process."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


_pool = None            # the search workers, forked at the first search
_pool_lock = threading.Lock()
_searches = set()       # the futures of the searches submitted to the workers


def _executor():
    """The process-wide worker pool, W workers, made on first use; it forks
    its workers at its first ``submit``.  Workers ignore SIGINT: an
    interrupt ends the caller, whose exit waits for the searches still
    running and then ends them."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: importing firewatch loads no multiprocessing
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            _pool = ProcessPoolExecutor(
                search_workers(), mp_context=multiprocessing.get_context("fork"),
                initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
        return _pool


def start_workers() -> None:
    """Fork the search workers now, if there are to be any and they are not
    up: a fork copies only the calling thread, so one made while other
    threads run can copy into a worker a lock that one of them holds.  Call
    it before starting threads that plan with GA or PSO."""
    if search_workers() > 1:
        _executor().submit(int)


@atexit.register
def _shutdown_pool(pool=None) -> None:
    """Shut down and join the worker pool (``pool`` only if it is still the
    current one) and drop it, so the next search starts a fresh one."""
    global _pool
    with _pool_lock:
        if _pool is None or (pool is not None and pool is not _pool):
            return
        pool, _pool = _pool, None
    pool.shutdown(wait=True, cancel_futures=True)


def _submit(pool, search, ws: _Workspace, cfg, m: int, ahead: bool, width: int):
    """The future of m's search on ``pool``, kept in ``_searches``; None,
    submitting nothing, when it is a look-ahead (``ahead``) and ``width``
    of the searches there are not done.  The done ones are dropped first,
    and the count and the submission share one hold of ``_pool_lock``."""
    with _pool_lock:
        _searches.difference_update([future for future in _searches if future.done()])
        if ahead and len(_searches) >= width:
            return None
        future = pool.submit(search, ws, cfg, m)
        _searches.add(future)
        return future


@contextlib.contextmanager
def _searched_ahead(search, ws: _Workspace, cfg, m_max: int, stop=None):
    """size_fleet's ``clusters_at`` for ``search(ws, cfg, m)``.  The call for
    m submits m's search to the worker pool, W the usable CPUs, unless it
    is there already, and then m + 1 .. m + W - 1 (never above m_max) while
    fewer than W search futures in the process are pending, so a lone loop
    keeps W sizes searching and loops in several threads leave the workers
    to each other's next sizes; it returns m's result.  Leaving the block
    cancels the searches not yet started.  With ``stop`` set, the next call
    raises CancelledError.  One CPU (or no fork) searches in process, one
    size per call."""
    width = search_workers()
    ahead = {}

    def clusters_at(m):
        if stop is not None and stop.is_set():
            from concurrent.futures import CancelledError
            raise CancelledError(f"stopped before fleet size {m}")
        if width == 1:
            return search(ws, cfg, m)
        from concurrent.futures.process import BrokenProcessPool
        pool = _executor()
        try:
            for k in range(m, min(m + width, m_max + 1)):
                if k not in ahead:
                    future = _submit(pool, search, ws, cfg, k, k > m, width)
                    if future is None:
                        break
                    ahead[k] = future
            return ahead[m].result()
        except BrokenProcessPool:
            _shutdown_pool(pool)
            raise

    try:
        yield clusters_at
    finally:
        for future in ahead.values():
            future.cancel()


def _search_plan(search, scenario, algo: AlgoParams, cfg, method: str,
                 binding: list[str], stop) -> Plan:
    """The fleet-sizing loop over ``search``'s clusters, each routed in the
    order it gives; ``binding`` names what failed at the fleet ceiling."""
    t0 = time.perf_counter()
    ws = _Workspace(scenario, algo)
    with _searched_ahead(search, ws, cfg, scenario.physical.m_max, stop) as clusters_at:
        return size_fleet(scenario, algo, ws.uav_ids, ws.direct_map, ws.load0, clusters_at,
                          ordered_route, method=method, t0=t0, variant="-", at_m=None,
                          binding=binding)


def ga_plan(scenario, algo: AlgoParams, cfg: GaConfig | None = None, *,
            stop: threading.Event | None = None) -> Plan:
    """Genetic-algorithm baseline: joint cluster-assignment + visit-priority
    chromosome per fleet size, penalty-driven feasibility.  Once ``stop``
    is set, the sizing loop raises CancelledError at its next fleet size."""
    return _search_plan(_ga_search, scenario, algo, cfg if cfg is not None else GaConfig(),
                        "ga", ["revisit period, energy budget, or edge capacity"], stop)


def _pso_search(ws: _Workspace, cfg: PsoConfig, m: int):
    """Fly an m-cluster swarm; the global best as size_fleet clusters if it
    has no violation, else None."""
    n = ws.n
    rng = np.random.default_rng(derive_seed(ws.algo.seed, f"pso-m{m}"))
    pos = rng.uniform(1.0, m, size=(cfg.swarm, n))
    vel = rng.uniform(-1.0, 1.0, size=(cfg.swarm, n))

    def decode(x):
        return np.clip(np.floor(x + 0.5).astype(int) - 1, 0, m - 1)

    def evaluate(x):
        g = decode(x)
        # order: NN within each cluster from its phase-2 edge, so edge
        # assignment runs before routing
        assigned = ws.assign(g, m)
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
    return decode(gbest), gbest_order, 0


def pso_plan(scenario, algo: AlgoParams, cfg: PsoConfig | None = None, *,
             stop: threading.Event | None = None) -> Plan:
    """Particle-swarm baseline: continuous cluster-assignment positions with
    round-half-up decode and nearest-neighbor visit orders; ``stop`` as for
    ``ga_plan``."""
    return _search_plan(_pso_search, scenario, algo, cfg if cfg is not None else PsoConfig(),
                        "pso", ["no feasible particle"], stop)


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
        return labels, np.argsort(labels, kind="stable"), 0

    return size_fleet(scenario, algo, uav_ids, direct_map, load0, clusters_at,
                      functools.partial(build_route, use_two_opt=False),
                      method="greedy", t0=t0, variant="-", at_m=None,
                      binding=None)
