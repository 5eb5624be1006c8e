"""Span tracing from outside the program.

The tracer replaces public functions at the names their callers look up
(for example ``firewatch.planner.weighted_kmeans``, which the sizing loop
calls) with wrappers that record one span per call: name, start, end, parent
and thread.  Spans stay in memory; ``uninstall`` restores every original.
Nothing under ``src/`` changes.

Self time is attributed over wall time: at each instant, the innermost open
span of every thread that has one shares the instant equally, except a span
whose descendant (through the cross-thread parent link below) is open at
the same instant; it is waiting for that descendant.  So self times plus the
time outside every top-level span add up to the traced wall time, also when
``compare`` runs cells on a thread pool.  A span opened on a worker thread
with nothing open on it takes as parent the innermost span open on the
thread that installed the tracer.
"""

from __future__ import annotations

import csv
import functools
import importlib
import itertools
import math
import threading
import time

from checks import queue_profile

# (module, attribute, span name): every call site the benchmark's workloads
# reach, looked up where the caller looks it up
WRAP_POINTS = (
    ("firewatch.scenario", "generate", "scenario.generate"),
    ("firewatch.cli", "generate", "scenario.generate"),
    ("firewatch.planner", "weighted_kmeans", "clustering.kmeans"),
    ("firewatch.planner", "assign_direct", "edge_assignment.assign_direct"),
    ("firewatch.planner", "assign_clusters", "edge_assignment.assign_clusters"),
    ("firewatch.baselines", "assign_clusters", "edge_assignment.assign_clusters"),
    ("firewatch.planner", "repair_overload", "edge_assignment.repair"),
    ("firewatch.baselines", "repair_overload", "edge_assignment.repair"),
    ("firewatch.planner", "build_route", "routing.build_route"),
    ("firewatch.baselines", "build_route", "routing.build_route"),
    ("firewatch.routing", "nearest_neighbor_tour", "routing.nn_tour"),
    ("firewatch.routing", "two_opt", "routing.two_opt"),
    ("firewatch.planner", "plan", "planner.plan"),
    ("firewatch.cli", "plan_scenario", "planner.plan"),
    ("firewatch.cli", "greedy_plan", "baselines.greedy"),
    ("firewatch.cli", "ga_plan", "baselines.ga"),
    ("firewatch.cli", "pso_plan", "baselines.pso"),
    ("firewatch.timing", "response_time", "timing.response"),
    ("firewatch.emergency", "response_time", "timing.response"),
    ("firewatch.timing", "all_responses", "timing.mean_response"),
    ("firewatch.timing", "mean_response", "timing.mean_response"),
    ("firewatch.cli", "all_responses", "timing.mean_response"),
    ("firewatch.cli", "mean_response", "timing.mean_response"),
    ("firewatch.emergency", "simulate", "emergency.simulate"),
    ("firewatch.emergency", "generate_events", "emergency.generate_events"),
    ("firewatch.emergency", "RouteGeometry.from_route", "emergency.geometry"),
    ("firewatch.emergency", "select_dispatch_uav", "emergency.select"),
    ("firewatch.emergency", "select_delivery_edge", "emergency.select"),
    ("firewatch.emergency", "resume_waypoint", "emergency.select"),
    ("firewatch.cli", "cmd_compare", "cli.compare"),
)

# spans whose arguments and result the per-layer metrics read
KEEP_CALLS = {"clustering.kmeans", "edge_assignment.assign_clusters",
              "routing.two_opt", "planner.plan", "baselines.greedy", "baselines.ga",
              "baselines.pso", "emergency.simulate"}

# one metric per span name: their sum is all the attributed time
SELF_TIME_METRICS = (
    "scenario.generate_s", "clustering.kmeans_s", "edge_assignment.assign_s",
    "edge_assignment.repair_s", "routing.build_route_s", "routing.nn_tour_s",
    "routing.two_opt_s", "planner.plan_s", "baselines.greedy_s", "baselines.ga_s",
    "baselines.pso_s", "timing.response_s", "timing.mean_response_s",
    "emergency.simulate_s", "emergency.geometry_s", "emergency.select_s",
    "emergency.generate_events_s", "cli.compare_s")


class Span:
    __slots__ = ("sid", "name", "t0", "t1", "parent", "tid", "args", "result", "error")

    def __init__(self, sid, name, t0, parent, tid):
        self.sid, self.name, self.t0, self.parent, self.tid = sid, name, t0, parent, tid
        self.t1 = t0
        self.args = self.result = self.error = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        self._main = threading.get_ident()
        for module_name, attr, name in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            self._saved.append((owner, leaf, raw))
            if isinstance(raw, classmethod):
                setattr(owner, leaf, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(owner, leaf, self._wrap(raw, name))

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._saved):
            setattr(owner, leaf, raw)
        self._saved.clear()

    def _wrap(self, fn, name):
        keep = name in KEEP_CALLS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1].sid
            else:
                main = self._stacks.get(self._main)
                parent = main[-1].sid if tid != self._main and main else None
            span = Span(next(self._ids), name, clock(), parent, tid)
            if keep:
                span.args = args
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = exc
                raise
            finally:
                span.t1 = clock()
                stack.pop()
                self.spans.append(span)
            if keep:
                span.result = result
            return result

        return wrapper

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def covered_seconds(spans: list[Span]) -> float:
    """Length of the union of the spans' intervals."""
    total, end = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s.t0):
        if s.t1 > end:
            total += s.t1 - max(s.t0, end)
            end = s.t1
    return total


def _innermost_segments(spans: list[Span]) -> list[tuple[float, float, Span]]:
    """(start, end, span) pieces of one thread's time, each owned by the
    innermost span open then.  Spans of one thread nest."""
    segs: list[tuple[float, float, Span]] = []
    stack: list[Span] = []
    cur = 0.0

    def close_until(t: float) -> None:
        nonlocal cur
        while stack and stack[-1].t1 <= t:
            top = stack.pop()
            if top.t1 > cur:
                segs.append((cur, top.t1, top))
                cur = top.t1
        if stack and t > cur:
            segs.append((cur, t, stack[-1]))
        cur = max(cur, t)

    for s in sorted(spans, key=lambda s: (s.t0, s.sid)):
        if stack:
            close_until(s.t0)
        cur = s.t0
        stack.append(s)
    close_until(float("inf"))
    return segs


def self_times(spans: list[Span]) -> dict[int, float]:
    """Wall-time share of every span (see the module docstring)."""
    by_thread: dict[int, list[Span]] = {}
    for s in spans:
        by_thread.setdefault(s.tid, []).append(s)
    shares = {s.sid: 0.0 for s in spans}
    if len(by_thread) == 1:
        for a, b, s in _innermost_segments(spans):
            shares[s.sid] += b - a
        return shares

    parent = {s.sid: s.parent for s in spans}
    marks = []
    for tid, group in by_thread.items():
        for a, b, s in _innermost_segments(group):
            marks.append((a, 1, tid, s.sid))
            marks.append((b, 0, tid, s.sid))
    marks.sort()
    active: dict[int, int] = {}
    last = None
    for t, kind, tid, sid in marks:
        if active and last is not None and t > last:
            waiting = set()
            for open_sid in active.values():
                p = parent[open_sid]
                while p is not None and p in parent:
                    waiting.add(p)
                    p = parent[p]
            owners = [x for x in active.values() if x not in waiting]
            for x in owners:
                shares[x] += (t - last) / len(owners)
        if kind == 1:
            active[tid] = sid
        elif active.get(tid) == sid:
            del active[tid]
        last = t
    return shares


def write_spans(spans: list[Span], path: str) -> None:
    """One CSV row per span, times in seconds from the first span."""
    origin = min((s.t0 for s in spans), default=0.0)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "name", "start_s", "end_s", "parent", "thread"])
        for s in sorted(spans, key=lambda s: s.sid):
            w.writerow([s.sid, s.name, f"{s.t0 - origin:.9f}", f"{s.t1 - origin:.9f}",
                        "" if s.parent is None else s.parent, s.tid])


def initial_fleet_size(p, mode) -> int:
    """Start of the sizing loop: one UAV, or the disc-coverage count
    ceil(area / (pi r_sg^2)) clamped to [1, m_max]."""
    if getattr(mode, "value", mode) == "one":
        return 1
    r_sg = min(p.r_s, p.r_g)
    return max(1, min(math.ceil(p.area_km2 * 1e6 / (math.pi * r_sg * r_sg)), p.m_max))


def _fleet_sizes_tried(span: Span) -> int:
    """Returned m - initial fleet size + 1; the whole range when the sizing
    loop gave up."""
    scenario, algo = span.args[0], span.args[1]
    p = scenario.physical
    last = p.m_max if span.result is None else span.result.m
    return last - initial_fleet_size(p, algo.fleet_init_mode) + 1


def _rejected_two_opt_s(spans: list[Span], share: dict[int, float]) -> float:
    """2-opt self time inside planner.plan at fleet sizes other than the one
    the plan returned.  The fleet size of a 2-opt call is that of the last
    cluster-to-edge assignment before it in the same plan call."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    total = 0.0
    for top in spans:
        if top.name != "planner.plan":
            continue
        accepted = None if top.result is None else top.result.m
        below, todo = [], [top.sid]
        while todo:
            kids = children.get(todo.pop(), [])
            below += kids
            todo += [k.sid for k in kids]
        m = None
        for s in sorted(below, key=lambda s: (s.t0, s.sid)):
            if s.name == "edge_assignment.assign_clusters":
                m = len(s.args[0])
            elif s.name == "routing.two_opt" and m != accepted:
                total += share[s.sid]
    return total


def pass_metrics(spans: list[Span], run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  Every ``_s`` metric is a self
    time; together with trace.uncovered_s they add up to trace.run_s."""
    share = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(*names):
        return sum(len(by_name.get(n, [])) for n in names)

    def secs(*names):
        return sum(share[s.sid] for n in names for s in by_name.get(n, []))

    def each(name):
        return by_name.get(name, [])

    plans = each("planner.plan")
    plan_tried = sum(_fleet_sizes_tried(s) for s in plans)
    ga_evals = sum(s.args[2].population * (s.args[2].generations + 1) * _fleet_sizes_tried(s)
                   for s in each("baselines.ga"))
    pso_evals = sum(s.args[2].swarm * (s.args[2].iterations + 1) * _fleet_sizes_tried(s)
                    for s in each("baselines.pso"))
    sims = [s.result for s in each("emergency.simulate")]
    sim_incl = sum(s.t1 - s.t0 for s in each("emergency.simulate"))
    events = sum(len(r.traces) for r in sims)
    profiles = [queue_profile(r.traces) for r in sims]
    top = [s for s in spans if s.parent is None]
    workers = {s.tid for s in spans if s.parent is not None and s.tid != top[0].tid} if top else set()

    m = {
        "scenario.generate_s": secs("scenario.generate"),
        "clustering.kmeans_calls": calls("clustering.kmeans"),
        "clustering.kmeans_iters": sum(s.result.iterations_run for s in each("clustering.kmeans")),
        "clustering.kmeans_s": secs("clustering.kmeans"),
        "edge_assignment.assign_calls": calls("edge_assignment.assign_direct",
                                              "edge_assignment.assign_clusters"),
        "edge_assignment.assign_s": secs("edge_assignment.assign_direct",
                                         "edge_assignment.assign_clusters"),
        "edge_assignment.repair_calls": calls("edge_assignment.repair"),
        "edge_assignment.repair_failures": sum(s.error is not None
                                               for s in each("edge_assignment.repair")),
        "edge_assignment.repair_s": secs("edge_assignment.repair"),
        "routing.build_route_calls": calls("routing.build_route"),
        "routing.build_route_s": secs("routing.build_route"),
        "routing.nn_tour_s": secs("routing.nn_tour"),
        "routing.two_opt_calls": calls("routing.two_opt"),
        "routing.two_opt_points": sum(len(s.args[2]) for s in each("routing.two_opt")),
        "routing.two_opt_s": secs("routing.two_opt"),
        "routing.two_opt_rejected_s": _rejected_two_opt_s(spans, share),
        "planner.plan_calls": len(plans),
        "planner.plan_s": secs("planner.plan"),
        "planner.fleet_sizes_tried": plan_tried,
        "planner.accept_ratio": (sum(s.result is not None for s in plans) / plan_tried
                                 if plan_tried else 0.0),
        "baselines.greedy_s": secs("baselines.greedy"),
        "baselines.ga_s": secs("baselines.ga"),
        "baselines.ga_evals": ga_evals,
        "baselines.ga_us_per_eval": secs("baselines.ga") / ga_evals * 1e6 if ga_evals else 0.0,
        "baselines.pso_s": secs("baselines.pso"),
        "baselines.pso_evals": pso_evals,
        "baselines.pso_us_per_eval": (secs("baselines.pso") / pso_evals * 1e6
                                      if pso_evals else 0.0),
        "baselines.fleet_sizes_tried": sum(_fleet_sizes_tried(s) for n in
                                           ("baselines.greedy", "baselines.ga", "baselines.pso")
                                           for s in each(n)),
        "timing.response_calls": calls("timing.response"),
        "timing.response_s": secs("timing.response"),
        "timing.mean_response_s": secs("timing.mean_response"),
        "emergency.simulate_calls": len(sims),
        "emergency.simulate_s": secs("emergency.simulate"),
        "emergency.geometry_s": secs("emergency.geometry"),
        "emergency.select_s": secs("emergency.select"),
        "emergency.generate_events_s": secs("emergency.generate_events"),
        "emergency.events": events,
        "emergency.events_per_s": events / sim_incl if sim_incl else 0.0,
        "emergency.dispatches": sum(t.uav_id is not None for r in sims for t in r.traces),
        "emergency.queued_events": sum(t.t_queue_s > 0 for r in sims for t in r.traces),
        "emergency.peak_pending": max((p for p, _ in profiles), default=0),
        "emergency.max_queue_wait_s": max((w for _, w in profiles), default=0.0),
        "cli.compare_s": secs("cli.compare"),
        "cli.threads": len(workers),
        "trace.spans": len(spans),
        "trace.run_s": run_s,
        "trace.uncovered_s": run_s - covered_seconds(top),
    }
    attributed = sum(share.values())
    if abs(attributed - covered_seconds(top)) > 1e-6 * max(1.0, run_s):
        raise RuntimeError(f"self times add up to {attributed} s, the top-level spans "
                           f"cover {covered_seconds(top)} s")
    named = sum(m[k] for k in SELF_TIME_METRICS)
    if abs(named - attributed) > 1e-6 * max(1.0, run_s):
        raise RuntimeError(f"per-layer self times {named} s miss part of the "
                           f"attributed {attributed} s")
    return m


def simulate_durations_ms(spans: list[Span]) -> list[float]:
    return [(s.t1 - s.t0) * 1e3 for s in spans if s.name == "emergency.simulate"]
