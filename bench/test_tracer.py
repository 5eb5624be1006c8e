"""Self-time attribution and patching of the benchmark's tracer."""

from __future__ import annotations

import pytest

import tracer
from firewatch import planner, routing
from firewatch import scenario as fw_scenario
from firewatch.emergency import RouteGeometry
from firewatch.model import AlgoParams
from firewatch.scenario import GenConfig


def _span(sid, t0, t1, parent=None, tid=1, name="x.y"):
    s = tracer.Span(sid, name, t0, parent, tid)
    s.t1 = t1
    return s


def test_self_time_subtracts_children_on_one_thread():
    spans = [_span(0, 0.0, 10.0), _span(1, 2.0, 5.0, parent=0), _span(2, 3.0, 4.0, parent=1)]
    assert tracer.self_times(spans) == pytest.approx({0: 7.0, 1: 2.0, 2: 1.0})


def test_worker_threads_share_wall_time_and_their_parent_waits():
    # main span 0 waits on worker spans 1 (thread 2) and 2 (thread 3)
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 4.0, parent=0, tid=2),
             _span(2, 2.0, 6.0, parent=0, tid=3)]
    shares = tracer.self_times(spans)
    assert shares == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0})
    assert sum(shares.values()) == pytest.approx(tracer.covered_seconds([spans[0]]))


def test_install_records_nested_spans_and_uninstall_restores():
    originals = (planner.plan, routing.two_opt, RouteGeometry.__dict__["from_route"])
    rec = tracer.Tracer()
    rec.install()
    try:
        sc = fw_scenario.generate(GenConfig(n_sensors=40, n_edges=3, seed=7))
        pl = planner.plan(sc, AlgoParams(seed=7))
    finally:
        rec.uninstall()
    assert (planner.plan, routing.two_opt, RouteGeometry.__dict__["from_route"]) == originals
    spans = rec.take()
    by_sid = {s.sid: s for s in spans}
    top = [s for s in spans if s.parent is None]
    assert {s.name for s in top} == {"scenario.generate", "planner.plan"}
    two_opt = [s for s in spans if s.name == "routing.two_opt"]
    assert two_opt and all(by_sid[by_sid[s.parent].parent].name == "planner.plan"
                           for s in two_opt)
    run_s = top[-1].t1 - top[0].t0
    m = tracer.pass_metrics(spans, run_s)
    assert m["planner.plan_calls"] == 1
    assert m["planner.fleet_sizes_tried"] == pl.m
    assert m["routing.two_opt_calls"] == len(two_opt)
    assert m["trace.uncovered_s"] == pytest.approx(
        run_s - sum(s.t1 - s.t0 for s in top))
