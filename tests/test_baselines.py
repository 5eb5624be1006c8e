import functools
import math
import os
import signal
import sys
import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from firewatch import baselines, planner
from firewatch.baselines import (
    CROSSOVER_RATE,
    MUTATION_RATE,
    TOURNAMENT_SIZE,
    GaConfig,
    PsoConfig,
    _LOW_RAW,
    _breed,
    _ga_search,
    _order_by_priority,
    _pso_search,
    _reservation,
    _Stream,
    _Workspace,
    ga_plan,
    greedy_plan,
    pso_plan,
)
from firewatch.model import MB_TO_MBIT, AlgoParams, PhysicalParams, Variant, derive_seed
from firewatch.planner import InfeasibleError, plan, plan_to_doc
from firewatch.routing import nearest_neighbor_tour, tour_length
from firewatch.scenario import GenConfig, generate
from firewatch.timing import all_responses, execution_time, transmission_time
from testutil import (StreamOracle, blob, bound_scenarios, breed_oracle, build_scenario,
                      feasible, fleet_start, fleet_tree_bound, ga_search_all_rows,
                      norm_tour_lower_bound, outcomes, processes_where, unskip_fleet_sizes)

# the GA/PSO budgets of the acceptance soundness sweep, seed 0
GA_SMALL = GaConfig(population=16, generations=12)
PSO_SMALL = PsoConfig(swarm=10, iterations=15)


def _oracle_eval(ws, scenario, algo, genes, order, m):
    """Plain-Python recomputation of the candidate objective."""
    p = scenario.physical
    edges = scenario.edges
    n_edges = len(edges)
    members = [[i for i in order if genes[i] == j] for j in range(m)]

    demands = [sum(ws.beta[i] for i in members[j]) / p.t_period_s
               for j in range(m)]
    loads = list(ws.load0.loads_mips)
    edge_of = []
    for j in range(m):
        def score(k):
            # summed in id order, as phase 2 sums every cluster
            dbar = (sum(ws.d_se[i, k] for i in sorted(members[j])) / len(members[j])
                    if members[j] else 0.0)
            return (algo.omega_d * (dbar / p.diag_m)
                    + algo.omega_l * (loads[k] + demands[j]) / edges[k].capacity_mips)
        k = min(range(n_edges), key=lambda k: (score(k), k))
        edge_of.append(k)
        loads[k] += demands[j]

    lengths, energy = [], []
    for j in range(m):
        if members[j]:
            depot = (edges[edge_of[j]].pos.x, edges[edge_of[j]].pos.y)
            L = tour_length(depot, scenario.xy[ws.uav_ids[members[j]]])
        else:
            L = 0.0
        lengths.append(L)
        alpha_sum = sum(ws.alpha[i] for i in members[j])
        energy.append((p.p_fly_w * L / p.v_g
                       + p.p_comm_w * alpha_sum * 8.0 / p.data_rate_mbps) / 3600.0)

    violations = sum(L / p.v_g > p.t_max_s for L in lengths)
    violations += sum(e > p.e_max_wh for e in energy)
    violations += sum(loads[k] > edges[k].capacity_mips for k in range(n_edges))

    service = sum(transmission_time(ws.alpha[i], p.data_rate_mbps)
                  + execution_time(ws.beta[i],
                                   edges[edge_of[genes[i]]].capacity_mips)
                  for i in range(ws.n))
    direct = sum(
        transmission_time(scenario.sensors[i].request.data_size_mb, p.data_rate_mbps)
        + execution_time(scenario.sensors[i].request.compute_mi,
                         scenario.edges[k].capacity_mips)
        for i, k in ws.direct_map.items())
    obj = sum(lengths) + algo.lam * (service + direct)
    return obj + 1e6 * violations, violations, edge_of, lengths


@pytest.mark.parametrize("m,gene_hi", [(3, 3), (4, 3)])   # second leaves a cluster empty
def test_eval_clusters_matches_oracle(m, gene_hi):
    scenario = generate(GenConfig(n_sensors=30, n_edges=3, seed=13))
    algo = AlgoParams()
    ws = _Workspace(scenario, algo)
    rng = np.random.default_rng(99)
    genes = rng.integers(0, gene_hi, size=(6, ws.n))
    prios = rng.random((6, ws.n))
    orders = _order_by_priority(genes, prios)

    assigned = ws.assign(genes, m)
    edge_of = assigned[2]
    fits, viols, lengths = ws.evaluate(genes, orders, assigned)
    for r in range(len(genes)):
        w_fit, w_viol, w_edge, w_len = _oracle_eval(ws, scenario, algo, genes[r],
                                                    orders[r], m)
        assert viols[r] == w_viol
        assert list(edge_of[r]) == w_edge
        assert lengths[r] == pytest.approx(w_len)
        assert fits[r] == pytest.approx(w_fit, rel=1e-9)


def test_order_by_priority_groups_then_sorts():
    genes = np.array([[1, 0, 1, 0], [0, 0, 1, 1]])
    prios = np.array([[0.9, 0.2, 0.1, 0.5], [0.3, 0.3, 0.2, 0.1]])
    assert _order_by_priority(genes, prios).tolist() == [[1, 3, 2, 0], [0, 1, 3, 2]]


def _order_by_priority_oracle(genes, priorities):
    """Two stable sorts over the population, by priority and then by gene."""
    by_prio = np.argsort(priorities, axis=1, kind="stable")
    by_gene = np.argsort(np.take_along_axis(genes, by_prio, axis=1), axis=1, kind="stable")
    return np.take_along_axis(by_prio, by_gene, axis=1)


# GA priorities are numpy doubles k * 2**-53: small k tie often, so the
# index tie-break shows, and the largest lie next to 1 - 2**-53
_PRIORITY = st.one_of(st.integers(0, 3), st.integers(2**53 - 3, 2**53 - 1)).map(
    lambda k: k * 2.0 ** -53)


@given(st.integers(1, 6), st.integers(0, 40), st.sampled_from([1, 2, 5, 1024, 1025]),
       st.data())
def test_order_by_priority_matches_two_stable_sorts(rows, n, m, data):
    """Over the GA's priorities, on both sides of the 1024-gene key rule."""
    gene = st.sampled_from(sorted(g for g in {0, 1, m - 2, m - 1} if 0 <= g < m))
    genes = np.array(data.draw(st.lists(st.lists(gene, min_size=n, max_size=n),
                                        min_size=rows, max_size=rows)),
                     dtype=int).reshape(rows, n)
    prios = np.array(data.draw(st.lists(st.lists(_PRIORITY, min_size=n, max_size=n),
                                        min_size=rows, max_size=rows)),
                     dtype=float).reshape(rows, n)
    assert (_order_by_priority(genes, prios).tolist()
            == _order_by_priority_oracle(genes, prios).tolist())


@pytest.mark.parametrize("m,lexsorts", [(1024, False), (1025, True)])
def test_order_by_priority_keys_genes_below_1024(m, lexsorts):
    """Genes up to 1023 sort by the int64 key, with the largest gene over
    the largest priority at its top; a gene of 1024 takes np.lexsort.  Both
    give the two stable sorts' order."""
    genes = np.array([[m - 1, 0, m - 1, 1, m - 1, 0]])
    top = (2**53 - 1) * 2.0 ** -53
    prios = np.array([[top, top, 0.5, 2.0 ** -53, top, 0.0]])
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        got = _order_by_priority(genes, prios)
    assert lexsort.called == lexsorts
    assert got.tolist() == _order_by_priority_oracle(genes, prios).tolist() == [
        [5, 1, 3, 2, 0, 4]]


def _ga_search_oracle(ws, cfg, m, generations):
    """GA search with the per-pair child loop drawing straight from the
    Generator; appends each generation's (genes, priorities) to
    ``generations``."""
    n = ws.n
    rng = np.random.default_rng(derive_seed(ws.algo.seed, f"ga-m{m}"))
    genes = rng.integers(0, m, size=(cfg.population, n))
    prios = rng.random((cfg.population, n))

    def evaluate(g, pr):
        orders = _order_by_priority_oracle(g, pr)
        fits, viols, _ = ws.evaluate(g, orders, ws.assign(g, m))
        return fits, viols, orders

    fits, viols, orders = evaluate(genes, prios)
    pop = cfg.population
    for _ in range(cfg.generations):
        kid_genes = np.empty((pop + 1, n), dtype=genes.dtype)
        kid_prios = np.empty((pop + 1, n))
        elite = int(np.argmin(fits))
        kid_genes[0], kid_prios[0] = genes[elite], prios[elite]
        for row in range(1, pop, 2):
            pair = []
            for _ in range(2):
                contenders = rng.integers(0, pop, size=TOURNAMENT_SIZE)
                pair.append(contenders[np.argmin(fits[contenders])])
            g, pr = kid_genes[row:row + 2], kid_prios[row:row + 2]
            g[:], pr[:] = genes[pair], prios[pair]
            if n and rng.random() < CROSSOVER_RATE:
                cut = int(rng.integers(1, 2 * n))
                if cut < n:
                    g[:, cut:] = g[::-1, cut:].copy()
                tail = max(cut - n, 0)
                pr[:, tail:] = pr[::-1, tail:].copy()
            if n:
                for c in range(2):
                    mask = rng.random(n) < MUTATION_RATE
                    g[c, mask] = rng.integers(0, m, size=int(mask.sum()))
                    mask = rng.random(n) < MUTATION_RATE
                    pr[c, mask] = rng.random(int(mask.sum()))
        genes, prios = kid_genes[:pop], kid_prios[:pop]
        generations.append((genes.tolist(), prios.tolist()))
        fits, viols, orders = evaluate(genes, prios)

    feasible = np.flatnonzero(viols == 0)
    if not feasible.size:
        return None
    best = int(feasible[np.argmin(fits[feasible])])
    return genes[best], orders[best], 0


def _breed_seen(seen: list, stream, genes, prios, fits, m):
    """``_breed``, noting the fitnesses it breeds from."""
    seen.append(fits.tolist())
    return _breed(stream, genes, prios, fits, m)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ga_search_carries_the_elite_over_exactly(seed):
    """Each generation evaluates only its children and carries the elite's
    fitness, violations and order over; every generation's fitnesses and
    the result are those of evaluating all P rows, at every fleet size,
    None results included."""
    sc = generate(GenConfig(n_sensors=60, n_edges=3, seed=seed))
    ws = _Workspace(sc, AlgoParams(seed=seed))
    found = set()
    for m in range(1, 8):
        for cfg in (GaConfig(population=2, generations=3), GaConfig(population=7, generations=5),
                    GA_SMALL):
            fits, runs = {"got": [], "want": []}, {}
            for key, search in (("got", _ga_search), ("want", ga_search_all_rows)):
                with mock.patch.object(baselines, "_breed",
                                       functools.partial(_breed_seen, fits[key])):
                    runs[key] = search(ws, cfg, m)
            assert fits["got"] == fits["want"] and len(fits["got"]) == cfg.generations
            got, want = runs["got"], runs["want"]
            found.add(want is None)
            if want is None:
                assert got is None
            else:
                assert [x.tolist() for x in got[:2]] == [x.tolist() for x in want[:2]]
    assert found == {True, False}


def _ga_workspace(n, seed=0):
    """n UAV-served sensors (out of every edge's range, on a coarse grid so
    tours and fitnesses tie) plus one direct sensor; searches seeded with
    ``seed``."""
    points = [(1000.0 + 150.0 * (i % 4), 1000.0 + 150.0 * (i // 4)) for i in range(n)]
    sc = build_scenario([(10.0, 0.0, 5, 1.0, 100.0)]
                        + [(x, y, 10, 1.0, 100.0) for x, y in points],
                        [(0.0, 0.0, 5000.0), (3000.0, 0.0, 5000.0), (0.0, 3000.0, 5000.0)])
    ws = _Workspace(sc, AlgoParams(seed=seed))
    assert ws.n == n
    return ws


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 7, 10, 13]),
       st.sampled_from([0, 1, 2, 5, 9]), st.sampled_from(["one", "two", "past_n"]),
       st.integers(0, 5))
@example(0, 2, 0, "one", 3)
@example(1, 3, 1, "two", 4)
@example(2, 10, 9, "past_n", 5)
def test_ga_search_matches_per_pair_loop(seed, pop, n, m_kind, generations):
    """Every generation's genes and priorities and the search's result equal
    those of the per-pair child loop, bit for bit."""
    ws = _ga_workspace(n, seed)
    m = {"one": 1, "two": 2, "past_n": n + 2}[m_kind]
    cfg = GaConfig(population=pop, generations=generations)
    want_generations = []
    want = _ga_search_oracle(ws, cfg, m, want_generations)

    got_generations = []

    def recording_breed(*args):
        genes, prios = breed(*args)
        got_generations.append((genes.tolist(), prios.tolist()))
        return genes, prios

    breed = baselines._breed
    with mock.patch.object(baselines, "_breed", recording_breed):
        got = _ga_search(ws, cfg, m)
    assert got_generations == want_generations
    if want is None:
        assert got is None
    else:
        assert [a.tolist() for a in got[:2]] == [a.tolist() for a in want[:2]]
        assert got[2] == want[2]


# a bound near 2**31 makes Lemire's method reject about half of all words
_BOUNDS = st.sampled_from([1, 2, 3, 30, 191, 2**31 - 1, 2**31 + 1, 3 * 2**30 + 7])
_DRAW = st.one_of(
    st.tuples(st.just("random"), st.none()),
    st.tuples(st.just("random"), st.integers(0, 9)),
    st.tuples(st.just("mask"), st.integers(0, 40)),
    st.tuples(_BOUNDS, st.none()),
    st.tuples(_BOUNDS, st.integers(0, 9)),
)


def _draw_directly(rng, draw):
    what, size = draw
    if what == "random":
        return np.atleast_1d(rng.random(size)).tolist()
    if what == "mask":
        d = rng.random(size)
        return [d.tolist(), int((d < MUTATION_RATE).sum())]
    return np.atleast_1d(rng.integers(0, what, size=size)).tolist()


def _draw_replayed(s, draws):
    """One pass: every draw placed by numpy's rules from the stream's pos
    and carry, each word checked on its own, then every value read."""
    s.reserve(sum(1 if size is None else size for _, size in draws))
    pos, carry = s.pos, s.carry
    placed = []
    for what, size in draws:
        k = 1 if size is None else size
        if what in ("random", "mask"):
            placed.append(pos)
            pos += k
            continue
        words = []
        while what > 1 and len(words) < k:
            if carry >= 0:
                w, carry = 2 * carry + 1, -1
            else:
                w, carry = 2 * pos, pos
                pos += 1
            if w // 2 >= len(s.raw):            # Lemire rejections drew past the reservation
                s.extend(w // 2 + 1 - len(s.raw))
            if not s.bounded([w], what)[1]:
                words.append(w)
        placed.append(words)
    if pos > len(s.raw):
        s.extend(pos - len(s.raw))
    s.pos, s.carry = pos, carry
    out = []
    for (what, size), at in zip(draws, placed):
        k = 1 if size is None else size
        if what == "random":
            out.append(((s.raw[at:at + k] >> 11) * 2.0 ** -53).tolist())
        elif what == "mask":
            out.append([((s.raw[at:at + k] >> 11) * 2.0 ** -53).tolist(),
                        int((s.raw[at:at + k] < _LOW_RAW).sum())])
        else:
            out.append(s.bounded(at, what)[0].tolist() if what > 1 else [0] * k)
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 5),
       st.lists(st.lists(_DRAW, max_size=12), min_size=1, max_size=4))
@example(7, 3, [[(2**31 + 1, 9), ("random", None), (2**31 + 1, None), (3, 9)],
                [(2**31 + 1, 5), ("mask", 40), (2**31 - 1, 9)]])
def test_stream_replays_the_generator(seed, first, passes):
    """Doubles, masks and bounded integers read in passes from the stream's
    raw outputs and 32-bit words equal the Generator's own draws, after an
    initial integers draw of odd or even size (a waiting 32-bit half or
    none), with r == 1, size 0 and Lemire rejections included; a mask
    counts the raw outputs below ``_LOW_RAW``."""
    direct, replayed = (np.random.default_rng(seed) for _ in range(2))
    for rng in (direct, replayed):
        rng.integers(0, 7, size=first)
    s = _Stream(replayed)
    for draws in passes:
        want = [_draw_directly(direct, d) for d in draws]
        assert _draw_replayed(s, draws) == want


def test_low_raw_outputs_are_the_doubles_below_the_mutation_rate():
    """A raw output is below ``_LOW_RAW`` exactly when numpy's double from
    it is below MUTATION_RATE, at the threshold and next to it too."""
    c = _LOW_RAW >> 11
    edge = [0, (c - 1) << 11, ((c - 1) << 11) | 0x7FF, c << 11, (c << 11) + 1, (c + 1) << 11,
            2**64 - 1]
    raw = np.concatenate([np.array(edge, dtype=np.uint64),
                          np.random.default_rng(0).bit_generator.random_raw(10_000)])
    assert ((raw < _LOW_RAW) == ((raw >> 11) * 2.0 ** -53 < MUTATION_RATE)).all()
    assert (np.array(edge[:3], dtype=np.uint64) < _LOW_RAW).all()


class _RawSource:
    """A stand-in bit generator: raw output i is ``shape(i, raw)`` for the
    i-th raw output ``raw`` of a seeded PCG64, however they are fetched, and
    no 32-bit half waits."""

    def __init__(self, seed, shape):
        self._bitgen, self._shape, self._at = np.random.PCG64(seed), shape, 0
        self.state = {"has_uint32": 0, "uinteger": 0}

    def random_raw(self, k):
        out = self._shape(np.arange(self._at, self._at + k), self._bitgen.random_raw(k))
        self._at += k
        return out.astype(np.uint64)


def _streams(seed, first=0, shape=None):
    """A ``_Stream`` and a ``testutil.StreamOracle`` over the same raw
    outputs: a Generator seeded ``seed`` after an integers draw of size
    ``first``, or a ``_RawSource`` of ``shape``."""
    if shape is None:
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        for rng in rngs:
            rng.integers(0, 7, size=first)
    else:
        rngs = [SimpleNamespace(bit_generator=_RawSource(seed, shape)) for _ in range(2)]
    return _Stream(rngs[0]), StreamOracle(rngs[1])


def _breed_both(seed, pop, n, m, generations, **stream_args):
    """Every generation of ``_breed`` and of ``testutil.breed_oracle`` from
    the same population, fitnesses (ties included) and raw outputs."""
    rng = np.random.default_rng(seed)
    genes, prios = rng.integers(0, m, size=(pop, n)), rng.random((pop, n))
    new, old = _streams(seed + 1, **stream_args)
    got, want = (genes, prios), (genes, prios)
    out = []
    for _ in range(generations):
        fits = rng.integers(0, 3, size=pop).astype(float)
        got, want = _breed(new, *got, fits, m), breed_oracle(old, *want, fits, m)
        out.append(([a.tolist() for a in got], [a.tolist() for a in want]))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 5, 7, 9]),
       st.sampled_from([0, 1, 2, 3, 8, 21]), st.sampled_from(["one", "two", "past_n"]),
       st.integers(0, 3), st.integers(1, 4))
@example(0, 2, 0, "one", 1, 2)
@example(1, 3, 1, "two", 3, 3)
@example(2, 9, 21, "past_n", 1, 4)
def test_breed_matches_the_method_per_draw_walk(seed, pop, n, m_kind, first, generations):
    """Generation after generation, ``_breed`` gives the children that the
    walk with one stream method call per draw gives, bit for bit: population
    2, 3 and odd sizes, n from 0, m of 1, 2 and past n, after a first draw
    that leaves a 32-bit half waiting (odd ``first``) or not."""
    m = {"one": 1, "two": 2, "past_n": n + 2}[m_kind]
    for got, want in _breed_both(seed, pop, n, m, generations, first=first):
        assert got == want


def _rejecting(index, raw):
    """Raw outputs whose low half is 0 in one of every three: u = 0 is
    rejected for every bound r that is not a power of two."""
    return np.where(index % 3 == 1, raw & ~np.uint64(0xFFFFFFFF), raw)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5, 6, 7]), st.sampled_from([2, 3, 5]),
       st.sampled_from([3, 5, 6]), st.integers(1, 4))
def test_breed_walks_again_where_lemire_rejects(seed, pop, n, m, generations):
    """Where a word is rejected the generation is walked again word by word,
    drawing past the reservation as it must, and the children are still
    those of the method-per-draw walk."""
    for got, want in _breed_both(seed, pop, n, m, generations, shape=_rejecting):
        assert got == want


def test_a_reported_rejection_changes_no_child():
    """A fast walk whose words ``bounded`` reports as rejected is walked
    again exactly; no word is rejected, so the generation is unchanged."""
    calls = []
    bounded = _Stream.bounded

    def rejecting(self, words, r):
        calls.append(len(words))
        return bounded(self, words, r)[0], True

    want = _breed_both(4, 7, 9, 4, 3)
    with mock.patch.object(_Stream, "bounded", rejecting):
        got = _breed_both(4, 7, 9, 4, 3)
    assert len(calls) == 6 and calls[::2] == calls[1::2]
    assert [g for g, _ in got] == [g for g, _ in want]


def _worst(index, raw):
    """Every raw output 0x0FFF...F: each double is below the mutation and
    crossover rates and each word is accepted for bounds below 16."""
    return np.full(len(index), 2**60 - 1, dtype=np.uint64)


def _worst_rejecting(index, raw):
    """``_worst``, but every third raw output's low half is 0, a word that
    Lemire's method rejects for every bound that is not a power of two."""
    return np.where(index % 3 == 2, np.uint64(2**60 - 2**32), _worst(index, raw))


@pytest.mark.parametrize("shape,pop,n,m", [(_worst, 2, 2, 2), (_worst, 5, 3, 4),
                                           (_worst, 9, 7, 15), (_worst_rejecting, 5, 3, 3),
                                           (_worst_rejecting, 7, 6, 11)])
def test_the_reservation_covers_the_largest_generation(shape, pop, n, m):
    """When every crossover happens and every gene and priority mutates, a
    fast walk reads exactly the raw outputs ``_reservation`` allows; an
    exact walk draws one more raw output per rejected word, and its
    children are still those of the method-per-draw walk."""
    new, old = _streams(0, shape=shape)
    genes, prios = np.zeros((pop, n), dtype=int), np.full((pop, n), 0.5)
    fits = np.arange(pop, dtype=float)
    got = _breed(new, genes, prios, fits, m)
    if shape is _worst:
        assert new.pos == _reservation(pop, n)
    else:
        assert new.pos > _reservation(pop, n)
    want = breed_oracle(old, genes, prios, fits, m)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


# few distinct coordinates, so points coincide and distances tie
_coord = st.one_of(st.integers(0, 3).map(lambda v: 1000.0 + 200.0 * v),
                   st.floats(1000.0, 1600.0).map(lambda v: round(v, 3)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=12),
       st.integers(1, 5), st.integers(1, 4), st.data())
def test_nn_orders_match_nearest_neighbor_tour(points, m, rows, data):
    """Every cluster of every row, empty and one-member clusters included,
    is visited in routing.nearest_neighbor_tour order from its edge."""
    sc = build_scenario([(x, y, 10, 1.0, 100.0) for x, y in points],
                        [(0.0, 0.0, 5000.0), (3000.0, 0.0, 5000.0), (0.0, 3000.0, 5000.0)])
    ws = _Workspace(sc, AlgoParams())
    assert ws.n == len(points)       # every sensor out of edge range
    genes = np.array(data.draw(st.lists(st.lists(st.integers(0, m - 1), min_size=ws.n,
                                                 max_size=ws.n),
                                        min_size=rows, max_size=rows)))
    assigned = ws.assign(genes, m)
    edge_of = assigned[2]
    orders = ws.nn_orders(genes, assigned)
    for r in range(rows):
        want = []
        for j in range(m):
            members = np.flatnonzero(genes[r] == j)
            depot = sc.edge_xy[edge_of[r, j]]
            want += members[nearest_neighbor_tour(depot, sc.xy[ws.uav_ids[members]])].tolist()
        assert orders[r].tolist() == want


def _blob_scenario():
    pts = blob((3000.0, 3000.0), [(dx * 137.0 % 900.0 - 450.0,
                                   dx * 211.0 % 700.0 - 350.0)
                                  for dx in range(10)])
    return build_scenario([(x, y, 20, 2.0, 200.0) for x, y in pts],
                          [(0.0, 0.0, 5000.0)])


def _plan_objective(pl, scenario, lam):
    """Total route length plus lam-weighted transmission and execution time
    over all requests."""
    terms, _ = all_responses(pl, scenario)
    service = sum((terms[:, 1] + terms[:, 2]).tolist())
    return sum(r.length_m for r in pl.routes) + lam * service


def test_ga_generations_do_not_hurt():
    sc = _blob_scenario()
    algo = AlgoParams(seed=4)
    p0 = ga_plan(sc, algo, GaConfig(population=12, generations=0))
    p8 = ga_plan(sc, algo, GaConfig(population=12, generations=8))
    assert p0.m == p8.m == 1
    assert _plan_objective(p8, sc, algo.lam) <= _plan_objective(p0, sc, algo.lam) + 1e-9


def test_ga_deterministic():
    sc = _blob_scenario()
    algo = AlgoParams()
    a = ga_plan(sc, algo, GA_SMALL)
    b = ga_plan(sc, algo, GA_SMALL)
    assert plan_to_doc(a, sc) == plan_to_doc(b, sc)
    assert a.method == "ga"


def test_pso_deterministic_and_nn_ordered():
    sc = generate(GenConfig(n_sensors=40, n_edges=3, seed=7))
    algo = AlgoParams()
    a = pso_plan(sc, algo, PSO_SMALL)
    b = pso_plan(sc, algo, PSO_SMALL)
    assert plan_to_doc(a, sc) == plan_to_doc(b, sc)
    assert a.method == "pso"
    assert feasible(a, sc)
    for r in a.routes:
        if not r.waypoints:
            continue
        depot = sc.edges[r.depot_edge_id].pos
        members = sorted(r.waypoints)
        xy = np.array([[sc.sensors[i].pos.x, sc.sensors[i].pos.y]
                       for i in members])
        nn = nearest_neighbor_tour((depot.x, depot.y), xy)
        assert tuple(members[i] for i in nn) == r.waypoints


def test_greedy_single_cluster_routes_nearest_neighbor():
    sc = _blob_scenario()
    pl = greedy_plan(sc, AlgoParams())
    assert pl.m == 1
    depot = sc.edges[pl.routes[0].depot_edge_id].pos
    xy = np.array([[s.pos.x, s.pos.y] for s in sc.sensors])
    nn = nearest_neighbor_tour((depot.x, depot.y), xy)
    assert tuple(nn) == pl.routes[0].waypoints
    assert feasible(pl, sc)


def test_greedy_never_beats_proposed_fleet():
    for seed in range(3):
        sc = generate(GenConfig(n_sensors=60, seed=seed))
        algo = AlgoParams(seed=seed)
        assert greedy_plan(sc, algo).m >= plan(sc, algo).m


def test_all_methods_feasible_small():
    sc = generate(GenConfig(n_sensors=40, n_edges=3, seed=7))
    algo = AlgoParams()
    plans = {
        "proposed": plan(sc, algo),
        "greedy": greedy_plan(sc, algo),
        "ga": ga_plan(sc, algo, GaConfig(population=24, generations=25)),
        "pso": pso_plan(sc, algo, PSO_SMALL),
    }
    for name, pl in plans.items():
        assert feasible(pl, sc), name
        assert pl.method == name
        served = set(pl.assignment.direct_map) | set(pl.clustering.assignment)
        assert served == {s.id for s in sc.sensors}, name


def _capacity_wall(m_max: int = 3):
    """Three sensors whose compute no fleet up to m_max = 3 fits on the one
    edge."""
    return build_scenario(
        [(3000.0, 0.0, 0, 1.0, 1e6), (3200.0, 0.0, 0, 1.0, 1e6),
         (3400.0, 0.0, 0, 1.0, 1e6)],
        [(0.0, 0.0, 10.0)], PhysicalParams(m_max=m_max))


def _loaded_capacity_wall(m_max: int = 3):
    """The capacity wall's three sensors on one edge that holds their 833
    MIPS, but not with the 556 MIPS of a direct sensor beside it."""
    return build_scenario(
        [(3000.0, 0.0, 0, 1.0, 1e6), (3200.0, 0.0, 0, 1.0, 1e6),
         (3400.0, 0.0, 0, 1.0, 1e6), (100.0, 0.0, 0, 1.0, 2e6)],
        [(0.0, 0.0, 1000.0)], PhysicalParams(m_max=m_max))


def _split_capacity_wall():
    """The capacity wall's three sensors, 833 MIPS in all, and four edges of
    250 MIPS each: the total capacity suffices, but no sensor's 278 MIPS
    fits on any edge, so every fleet size fails its overload repair."""
    return build_scenario(
        [(3000.0, 0.0, 0, 1.0, 1e6), (3200.0, 0.0, 0, 1.0, 1e6),
         (3400.0, 0.0, 0, 1.0, 1e6)],
        [(0.0, 200.0 * k, 250.0) for k in range(4)], PhysicalParams(m_max=3))


def test_all_methods_raise_on_capacity_wall():
    algo = AlgoParams()
    for sc in (_capacity_wall(), _split_capacity_wall()):
        with pytest.raises(InfeasibleError):
            greedy_plan(sc, algo)
        with pytest.raises(InfeasibleError):
            ga_plan(sc, algo, GaConfig(population=4, generations=2))
        with pytest.raises(InfeasibleError):
            pso_plan(sc, algo, PsoConfig(swarm=4, iterations=2))


_WALL_MAKERS = {
    "proposed": lambda sc: plan(sc, AlgoParams()),
    "greedy": lambda sc: greedy_plan(sc, AlgoParams()),
    "ga": lambda sc: ga_plan(sc, AlgoParams(), GaConfig(population=4, generations=2)),
    "pso": lambda sc: pso_plan(sc, AlgoParams(), PsoConfig(swarm=4, iterations=2)),
}


def _infeasible(make, sc) -> InfeasibleError:
    with pytest.raises(InfeasibleError) as info:
        make(sc)
    return info.value


@pytest.mark.parametrize("wall", [_capacity_wall, _loaded_capacity_wall])
@pytest.mark.parametrize("method", sorted(_WALL_MAKERS))
def test_a_capacity_wall_is_reported_without_clustering(monkeypatch, method, wall):
    """Where phase 1's loads and the UAV-served demand exceed the total
    edge capacity, every method reports at m_max = 30,000 what the loop
    without the capacity check reports at m_max = 3, and clusters no fleet
    size: on the capacity wall, and on one that the sensors' demand makes
    only with a direct sensor's load."""
    make = _WALL_MAKERS[method]
    with monkeypatch.context() as patch:
        patch.setattr(planner, "_over_capacity", lambda *args: False)
        loop = _infeasible(make, wall(3))
    real = planner.size_fleet

    def spy(*args, **kw):
        def clusters_at(m):
            raise AssertionError(f"fleet size {m} clustered")
        return real(*args[:5], clusters_at, *args[6:], **kw)

    monkeypatch.setattr(planner, "size_fleet", spy)
    monkeypatch.setattr(baselines, "size_fleet", spy)
    got = _infeasible(make, wall(30_000))
    assert got.binding == loop.binding
    assert str(got) == str(loop).replace("m_max=3;", "m_max=30000;")


def test_a_total_demand_at_the_total_capacity_still_plans():
    """Two sensors whose demands are exactly their nearest edges'
    capacities: summed in one order they round an ulp above the summed
    capacities, but every method assigns each to its own edge and plans."""
    sc = build_scenario([(1000.0, 0.0, 0, 1.0, 100.0), (9000.0, 0.0, 0, 1.0, 1.0)],
                        [(0.0, 0.0, 100.0 / 3600.0), (10000.0, 0.0, 1.0 / 3600.0)])
    assert sc.physical.t_period_s == 3600.0
    assert 101.0 / 3600.0 > 100.0 / 3600.0 + 1.0 / 3600.0
    for method, make in _WALL_MAKERS.items():
        pl = make(sc)
        assert pl.assignment.load.loads_mips == sc.capacity.tolist(), method


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population=1)
    with pytest.raises(ValueError):
        PsoConfig(swarm=1)
    with pytest.raises(ValueError):
        PsoConfig(iterations=-1)


def test_greedy_fleet_sizes_below_the_bound_break_a_limit(monkeypatch):
    """Greedy's clusters at every fleet size the loop skips, routed and
    assigned as the loop would, have a route over the revisit or energy
    limit and are no shorter in total than the tree."""
    algo, real, seen = AlgoParams(), planner.size_fleet, {}

    def spy(scenario, algo, uav_ids, direct_map, load0, clusters_at, route, **kw):
        seen.update(uav_ids=uav_ids, direct_map=direct_map, load0=load0,
                    clusters_at=clusters_at, route=route)
        return real(scenario, algo, uav_ids, direct_map, load0, clusters_at, route, **kw)

    monkeypatch.setattr(baselines, "size_fleet", spy)
    for name, sc in bound_scenarios().items():
        p, lb = sc.physical, fleet_tree_bound(sc)
        try:
            greedy_plan(sc, algo)
        except InfeasibleError:
            pass
        for m in range(1, fleet_start(sc)):
            pl = real(sc, algo, seen["uav_ids"], seen["direct_map"], seen["load0"],
                      seen["clusters_at"], seen["route"], method="greedy", t0=0.0,
                      variant="-", at_m=m, binding=None)
            assert any(r.revisit_s > p.t_max_s or r.energy_wh > p.e_max_wh
                       for r in pl.routes), (name, m)
            assert sum(r.length_m for r in pl.routes) >= lb, (name, m)


@pytest.mark.parametrize("search", ["ga", "pso"])
def test_search_fleet_sizes_below_the_bound_offer_no_clusters(search):
    """Below the fleet bound GA and PSO find no individual without a
    violation, and no clustering of a random population meets the revisit
    and energy limits or is shorter in total than the tree."""
    algo = AlgoParams()
    rng = np.random.default_rng(5)
    for name, sc in bound_scenarios().items():
        ws, p, lb = _Workspace(sc, algo), sc.physical, fleet_tree_bound(sc)
        for m in range(1, fleet_start(sc)):
            if search == "ga":
                assert _ga_search(ws, GA_SMALL, m) is None, (name, m)
            else:
                assert _pso_search(ws, PSO_SMALL, m) is None, (name, m)
            genes = rng.integers(0, m, size=(20, ws.n))
            assigned = ws.assign(genes, m)
            orders = ws.nn_orders(genes, assigned)
            _, _, lengths = ws.evaluate(genes, orders, assigned)
            alpha_sum = np.array([[sum(ws.alpha[g == j].tolist()) for j in range(m)]
                                  for g in genes])
            energy = (p.p_fly_w * lengths / p.v_g + p.p_comm_w * alpha_sum * MB_TO_MBIT
                      / p.data_rate_mbps) / 3600.0
            assert ((lengths / p.v_g > p.t_max_s) | (energy > p.e_max_wh)).any(axis=1).all()
            assert (lengths.sum(axis=1) >= lb).all(), (name, m)


@pytest.mark.parametrize("method", ["greedy", "ga", "pso"])
def test_skipping_fleet_sizes_changes_no_baseline_plan(monkeypatch, method):
    algo = AlgoParams()
    make_plan = {"greedy": lambda sc: greedy_plan(sc, algo),
                 "ga": lambda sc: ga_plan(sc, algo, GA_SMALL),
                 "pso": lambda sc: pso_plan(sc, algo, PSO_SMALL)}[method]
    got = outcomes(make_plan, bound_scenarios())
    unskip_fleet_sizes(monkeypatch)
    assert outcomes(make_plan, bound_scenarios()) == got


class _Submissions:
    """The worker pool, noting the fleet size of every search submitted
    and, given a ``futures`` list, its future."""

    def __init__(self, pool, sizes: list, futures: list | None = None):
        self.pool, self.sizes, self.futures = pool, sizes, futures

    def submit(self, search, ws, cfg, m):
        self.sizes.append(m)
        future = self.pool.submit(search, ws, cfg, m)
        if self.futures is not None:
            self.futures.append(future)
        return future


def _at_fleet_bound():
    """Bound scenarios with m_max lowered to the fleet size the sizing loop
    starts at, so it tries m_max alone."""
    out = {}
    for name in ("revisit-s0", "energy-s1"):
        sc = bound_scenarios()[name]
        out[f"{name}-m_max-at-bound"] = replace(
            sc, physical=replace(sc.physical, m_max=fleet_start(sc)))
    return out


@pytest.mark.parametrize("method", ["ga", "pso"])
def test_searching_ahead_on_workers_matches_searching_inline(monkeypatch, method):
    """GA and PSO give the same plans and bindings with fleet sizes searched
    ahead on two workers as with one CPU, which searches in process; the
    workers get each size from the loop's start once, none above m_max."""
    algo = AlgoParams()
    make_plan = {"ga": lambda sc: ga_plan(sc, algo, GA_SMALL),
                 "pso": lambda sc: pso_plan(sc, algo, PSO_SMALL)}[method]
    bound = bound_scenarios()
    scenarios = {"feasible-40": generate(GenConfig(n_sensors=40, n_edges=3, seed=7)),
                 "blob": _blob_scenario(), "capacity-wall": _split_capacity_wall(),
                 **{name: bound[name] for name in ("revisit-s0", "energy-s1", "infeasible-s0",
                                                   "rings-energy")},
                 **_at_fleet_bound()}
    pool = baselines._executor

    def run(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        got, sizes = {}, {}
        for name, sc in scenarios.items():
            seen = sizes[name] = []
            monkeypatch.setattr(baselines, "_executor", lambda: _Submissions(pool(), seen))
            got.update(outcomes(make_plan, {name: sc}))
        return got, sizes

    inline, inline_sizes = run(1)
    ahead, ahead_sizes = run(2)
    assert ahead == inline
    assert inline["capacity-wall"] == ["revisit period, energy budget, or edge capacity"
                                       if method == "ga" else "no feasible particle"]
    assert not any(inline_sizes.values())
    for name, sc in scenarios.items():
        sizes, m_max = ahead_sizes[name], sc.physical.m_max
        assert sizes == list(range(fleet_start(sc), max(sizes) + 1)), name
        assert max(sizes) <= m_max, name
    for name, sc in _at_fleet_bound().items():
        assert ahead_sizes[name] == [sc.physical.m_max], name


def _spied(monkeypatch, cpus: int):
    """W patched to ``cpus``; the fleet sizes and futures of every search
    submitted from then on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    pool, sizes, futures = baselines._executor, [], []
    monkeypatch.setattr(baselines, "_executor", lambda: _Submissions(pool(), sizes, futures))
    return sizes, futures


def _pending_once_done(futures=()) -> int:
    """The search futures the look-ahead counts in flight, those in
    ``baselines._searches`` not done, once every one of ``futures`` is."""
    assert not wait(futures, timeout=60).not_done
    return sum(not future.done() for future in baselines._searches)


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_lone_loop_searches_the_next_sizes_ahead(monkeypatch, cpus):
    """With no other search in flight, the call for m submits m .. m + W - 1,
    never above m_max: one loop submits every size from its start to W - 1
    past the fleet it accepts, each once."""
    sc, algo = generate(GenConfig(n_sensors=40, n_edges=3, seed=7)), AlgoParams()
    sizes, futures = _spied(monkeypatch, cpus)
    assert _pending_once_done() == 0
    pl = ga_plan(sc, algo, GA_SMALL)
    assert pl.m > fleet_start(sc)
    assert sizes == list(range(fleet_start(sc), min(pl.m + cpus - 1, sc.physical.m_max) + 1))
    assert _pending_once_done(futures) == 0


def test_a_loop_searches_ahead_only_into_idle_workers(monkeypatch):
    """With W pending search futures in the process already, a loop submits
    only the fleet sizes it asks for."""
    sc, algo = generate(GenConfig(n_sensors=40, n_edges=3, seed=7)), AlgoParams()
    sizes, futures = _spied(monkeypatch, 2)
    monkeypatch.setattr(baselines, "_searches", {Future(), Future()})
    pl = ga_plan(sc, algo, GA_SMALL)
    assert sizes == list(range(fleet_start(sc), pl.m + 1))
    assert _pending_once_done(futures) == 2


def _search_failing(ws, cfg, m):
    raise ValueError(f"no search at {m}")


def _search_slowly(ws, cfg, m):
    time.sleep(0.2)
    return _ga_search(ws, cfg, m)


@pytest.mark.parametrize("case", ["plans", "infeasible", "search-raises", "cancelled"])
def test_the_in_flight_count_returns_to_zero(monkeypatch, case):
    """No search future is left pending once the loop's futures are done
    or cancelled: after a plan, an InfeasibleError, a search that raises,
    and look-aheads cancelled before a worker took them."""
    sc = {"plans": _blob_scenario(), "infeasible": _split_capacity_wall(),
          "search-raises": _blob_scenario(), "cancelled": _blob_scenario()}[case]
    cpus = 2
    if case == "cancelled":
        # two workers and eight sizes submitted: three wait in the call
        # queue, and the rest can be cancelled when the loop ends
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        baselines._shutdown_pool()
        baselines._executor()
        cpus = 8
        monkeypatch.setattr(baselines, "_ga_search", _search_slowly)
    if case == "search-raises":
        monkeypatch.setattr(baselines, "_ga_search", _search_failing)
    sizes, futures = _spied(monkeypatch, cpus)
    want = {"plans": None, "infeasible": InfeasibleError, "search-raises": ValueError,
            "cancelled": None}[case]
    if want is None:
        ga_plan(sc, AlgoParams(), GA_SMALL)
    else:
        with pytest.raises(want):
            ga_plan(sc, AlgoParams(), GA_SMALL)
    assert sizes
    if case == "cancelled":
        assert any(future.cancelled() for future in futures)
    assert _pending_once_done(futures) == 0


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_set_stop_ends_the_loop_at_its_next_fleet_size(monkeypatch, cpus):
    """A loop whose stop is set raises CancelledError at its next fleet
    size: before any search when set before the call, even on the capacity
    wall, which the loop reports without a search, and after the one
    running when set during it."""
    sc, algo = generate(GenConfig(n_sensors=40, n_edges=3, seed=7)), AlgoParams()
    assert ga_plan(sc, algo, GA_SMALL).m > fleet_start(sc)
    sizes, _ = _spied(monkeypatch, cpus)
    stop = threading.Event()
    stop.set()
    with pytest.raises(CancelledError):
        ga_plan(sc, algo, GA_SMALL, stop=stop)
    with pytest.raises(CancelledError):
        ga_plan(_capacity_wall(), algo, GA_SMALL, stop=stop)
    assert sizes == []
    searched = []

    def search_then_stop(ws, cfg, m):
        searched.append(m)
        stop.set()
        return _ga_search(ws, cfg, m)

    stop.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})    # in process
    monkeypatch.setattr(baselines, "_ga_search", search_then_stop)
    with pytest.raises(CancelledError):
        ga_plan(sc, algo, GA_SMALL, stop=stop)
    assert searched == [fleet_start(sc)]


def test_loops_in_more_threads_than_workers_plan_as_alone(monkeypatch):
    """GA and PSO loops on six threads over two workers, the interpreter
    switching threads every microsecond, give the plans and bindings each
    gives alone, and leave no search future pending."""
    algo = AlgoParams()
    bound = bound_scenarios()
    scenarios = {"feasible-40": generate(GenConfig(n_sensors=40, n_edges=3, seed=7)),
                 "capacity-wall": _capacity_wall(), "revisit-s0": bound["revisit-s0"]}
    makers = {"ga": lambda sc: ga_plan(sc, algo, GA_SMALL),
              "pso": lambda sc: pso_plan(sc, algo, PSO_SMALL)}
    cases = [(method, name) for method in makers for name in scenarios]

    def run(case):
        method, name = case
        return outcomes(makers[method], {name: scenarios[name]})

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    alone = [run(case) for case in cases]
    _, futures = _spied(monkeypatch, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as threads:
            together = list(threads.map(run, cases, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert together == alone
    assert _pending_once_done(futures) == 0


_TEST_PID = os.getpid()


def _search_killing_its_worker(ws, cfg, m):
    """``_ga_search``, except that a worker process asked for one UAV kills
    itself."""
    if m == 1 and os.getpid() != _TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return _ga_search(ws, cfg, m)


def test_a_killed_worker_breaks_that_call_only(monkeypatch):
    sc, algo = _blob_scenario(), AlgoParams()
    assert fleet_start(sc) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    inline = planner.plan_to_doc(ga_plan(sc, algo, GA_SMALL), sc)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with monkeypatch.context() as patched:
        patched.setattr(baselines, "_ga_search", _search_killing_its_worker)
        with pytest.raises(BrokenProcessPool):
            ga_plan(sc, algo, GA_SMALL)
    # the broken pool is shut down, its workers joined, and dropped
    assert baselines._pool is None
    assert not processes_where("ppid", os.getpid())
    assert planner.plan_to_doc(ga_plan(sc, algo, GA_SMALL), sc) == inline
    assert baselines._pool is not None


def test_bound_order_changes_no_plan(monkeypatch):
    """The sizing loop takes the clusters' bounds largest first; in index
    order every plan and binding is the same, on the bound scenarios and on
    the capacity wall, for the proposed planner in each variant and greedy."""
    scenarios = {**bound_scenarios(), "capacity-wall": _capacity_wall()}
    makers = [lambda sc, v=v: plan(sc, AlgoParams(), v) for v in Variant]
    makers.append(lambda sc: greedy_plan(sc, AlgoParams()))
    bounds = []
    real = planner.tour_lower_bound
    monkeypatch.setattr(planner, "tour_lower_bound",
                        lambda depot, xy: bounds.append(len(xy)) or real(depot, xy))
    got = [outcomes(make, scenarios) for make in makers]
    largest_first = len(bounds)
    monkeypatch.setattr(planner, "_largest_first", lambda members: range(len(members)))
    assert [outcomes(make, scenarios) for make in makers] == got
    # index order took more bounds (695 against 565), so the orders differed
    assert len(bounds) - largest_first > largest_first


def test_norm_bound_changes_no_plan(monkeypatch):
    """With the norm Prim's bound in place of the complex modulus's, the gate
    sees every bound within a relative 1e-12 and decides the same, and every
    plan and binding is the same: on the bound scenarios, whose rings fly
    within 0.1% of their limits, and on the capacity wall, for the proposed
    planner in each variant and greedy, and on the 600-sensor input
    (generator seed 0, m_max 60)."""
    scenarios = {**bound_scenarios(), "capacity-wall": _capacity_wall()}
    makers = [lambda sc, v=v: plan(sc, AlgoParams(), v) for v in Variant]
    makers.append(lambda sc: greedy_plan(sc, AlgoParams()))
    large = generate(GenConfig(n_sensors=600, seed=0), PhysicalParams(m_max=60))
    real_over_limits, gate = planner._over_limits, []

    def over_limits(lb, *args):
        gate.append((lb, real_over_limits(lb, *args)))
        return gate[-1][1]

    def run():
        gate.clear()
        return ([outcomes(make, scenarios) for make in makers],
                plan_to_doc(plan(large, AlgoParams(seed=0)), large)), list(gate)

    monkeypatch.setattr(planner, "_over_limits", over_limits)
    got, got_gate = run()
    monkeypatch.setattr(planner, "tour_lower_bound", norm_tour_lower_bound)
    want, want_gate = run()
    assert got == want
    assert [skip for _, skip in got_gate] == [skip for _, skip in want_gate]
    assert [lb for lb, _ in got_gate] == pytest.approx([lb for lb, _ in want_gate],
                                                       rel=1e-12, abs=0.0)
    # the gate skips fleet sizes here, so a bound that never skips would fail
    assert any(skip for _, skip in got_gate)
