"""Run one benchmark workload and print its result as one JSON line.

    python3 bench/run.py --workload plan-large --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics listed in
``BENCHMARK.json``, measured untraced.  With ``--trace 1`` it prints the
per-layer metrics: it times untraced passes for half the time, then traced
passes, and writes the set-up spans and the fastest traced pass's spans to
``bench/out/spans-<workload>.csv``.

``setup_s``, and ``run_s`` of the workloads that run on one thread, are
rescaled to a fixed host speed.  On a shared
host the speed of a core swings by up to 1.7x in phases of seconds to
minutes, as other tenants' load comes and goes (one ``drill`` pass takes
0.9 s or 1.6 s).  So a fixed pure-Python probe loop is timed right before and
right after every timed interval, and the interval is reported as the time it
would take on a host where the probe takes ``PROBE_REF_S``.  The program's
own changes in cost show fully; the host's swings cancel.  The raw wall
times are printed to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
PROBE_REF_S = 0.005      # probe time on the reference host in its fast state


def _probe() -> float:
    """Fastest of three runs of a fixed pure-Python loop: how fast the host
    runs this process right now."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(60000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def _timed(fn):
    """(result, wall seconds, factor from this host's current speed to the
    reference speed), with the probe timed right before and after the call."""
    before = _probe()
    t0 = time.perf_counter()
    result = fn()
    dt = time.perf_counter() - t0
    return result, dt, PROBE_REF_S * 2 / (before + _probe())


def _units(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _passes(wl, st, seconds: float, tracer=None):
    """Run passes while another one of the same length still ends within
    `seconds` (at least one).  Yields (output, wall seconds, seconds at the
    reference host speed, spans of the pass)."""
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.install()
        try:
            out, dt, scale = _timed(lambda: wl.run(st))
        finally:
            if tracer is not None:
                tracer.uninstall()
        yield out, dt, dt * scale, (tracer.take() if tracer is not None else None)
        if time.perf_counter() - start + dt > seconds:
            return


def _fresh_setup_s(wl, seed: int) -> tuple[float, float]:
    """Median of SETUP_REPEATS set-ups, each in a fresh interpreter timing the
    imports plus the workload's set-up: (wall seconds, seconds at the
    reference host speed)."""
    walls, refs = [], []
    for _ in range(SETUP_REPEATS):
        child, _, scale = _timed(lambda: subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", wl.name,
             "--seed", str(seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True))
        walls.append(float(child.stdout.split()[-1]))
        refs.append(walls[-1] * scale)
    return statistics.median(walls), statistics.median(refs)


def _tally(wl, st, out, totals: list[int], errors: list[str]) -> None:
    a, f = wl.ops(st, out)
    totals[0] += a
    totals[1] += f
    errors += wl.check(st, out)


def run_untraced(wl, seed: int, seconds: float):
    setup_wall, setup_s = _fresh_setup_s(wl, seed)
    st = wl.setup(seed)
    errors = wl.check_setup(st)
    totals = [0, 0]
    walls, refs, first = [], [], None
    for out, dt, ref_dt, _ in _passes(wl, st, seconds):
        _tally(wl, st, out, totals, errors)
        walls.append(dt)
        refs.append(ref_dt)
        first = out if first is None else first
    quality, more = wl.quality(st, first)
    print(f"wall seconds: set-up {setup_wall:.4f}, pass median {statistics.median(walls):.4f} "
          f"over {len(walls)} passes", file=sys.stderr)
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.median(refs if wl.rescaled else walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **quality,
    }
    return metrics, totals, errors + more


def run_traced(wl, seed: int, seconds: float):
    import tracer as tr

    rec = tr.Tracer()
    rec.install()
    try:
        st = wl.setup(seed)
    finally:
        rec.uninstall()
    setup_spans = rec.take()
    errors = wl.check_setup(st)
    totals = [0, 0]
    untraced = []
    for out, dt, ref_dt, _ in _passes(wl, st, seconds / 2):
        _tally(wl, st, out, totals, errors)
        untraced.append(ref_dt if wl.rescaled else dt)
    best, seen = None, set()
    for out, dt, ref_dt, spans in _passes(wl, st, seconds / 2, rec):
        _tally(wl, st, out, totals, errors)
        seen |= {s.layer for s in spans}
        t = ref_dt if wl.rescaled else dt
        if best is None or t < best[0]:
            best = (t, tr.pass_metrics(spans, dt), spans)

    seen |= {s.layer for s in setup_spans}
    missing = sorted(wl.layers - seen)
    if missing:
        raise RuntimeError(f"coverage: layers {missing} recorded no span on {wl.name}; "
                           "a wrap point no longer matches the name its caller looks up")

    best_t, metrics, spans = best
    setup_share = tr.self_times(setup_spans)
    for key, name in (("scenario.generate_s", "scenario.generate"),
                      ("emergency.generate_events_s", "emergency.generate_events")):
        metrics[key] += sum(setup_share[s.sid] for s in setup_spans if s.name == name)
    durations = tr.simulate_durations_ms(spans)
    metrics["emergency.simulate_p50_ms"] = statistics.median(durations) if durations else 0.0
    metrics["emergency.simulate_p95_ms"] = (statistics.quantiles(durations, n=20)[-1]
                                            if len(durations) > 1 else sum(durations))
    metrics["trace.overhead_s"] = best_t - statistics.median(untraced)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tr.write_spans(setup_spans + spans, os.path.join(HERE, "out", f"spans-{wl.name}.csv"))
    return metrics, totals, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["plan-large", "search", "surge", "drill"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print the seconds one import plus set-up takes, and stop")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "firewatch", "__init__.py")):
        print(f"error: no firewatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import workloads                      # numpy, scipy and every firewatch module
    import firewatch
    if not os.path.abspath(firewatch.__file__).startswith(SRC + os.sep):
        print(f"error: firewatch imported from {firewatch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]()
    if args.setup_only:
        wl.setup(args.seed)
        print(time.perf_counter() - t0)
        return 0
    units = _units(bool(args.trace))
    if args.trace:
        metrics, (attempted, failed), errors = run_traced(wl, args.seed, args.seconds)
    else:
        metrics, (attempted, failed), errors = run_untraced(wl, args.seed, args.seconds)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    absent = sorted(set(units) - set(metrics))
    if absent:
        raise RuntimeError(f"metrics not measured: {absent}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
