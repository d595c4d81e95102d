"""Seeded closed-loop benchmark for the sigma_product library.

Usage (from the repository root):

    python3 perfbench/run.py --workload line_products --seed 1 --seconds 10 --trace 0

One client sends one query at a time; the next query is generated only
after the previous one returned.  Each query's inputs are generated, and
its answer checked, outside the timed interval, so the rates measure the
library alone.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
start with ``#`` and give raw figures and sample counts.

Timings are corrected for drift in machine speed.  Every PROBE_EVERY_S
seconds, between queries, the run times a fixed pure-Python probe (the
benchmark's own membership test on fixed sets, no library code).  A
query's latency is scaled by PROBE_NOMINAL_NS over the median of the
probes taken around it, so it reads as the latency on a machine where
the probe takes exactly PROBE_NOMINAL_NS; set-up time is scaled the same
way.  On a shared host the speed of one core can change by a factor of
two within seconds, which the raw figures (printed on the ``#`` lines)
carry and the corrected ones largely do not.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same query stream twice, untraced and then traced, and reports the
per-layer metrics plus ``trace.overhead`` (traced rate over untraced rate
on the same queries); spans are written under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, WORK_DIR, Query, import_library, purge_library  # noqa: E402
from linetree import member, rand_tree, sample_points  # noqa: E402

WORKLOADS = (
    ("wl_line", "LineProducts"),
    ("wl_fubini", "FubiniReuse"),
    ("wl_rings", "FiniteRings"),
    ("wl_cli", "CliSpecs"),
)
SETUP_REPS = 15
WARMUP_S = 0.5
PROBE_EVERY_S = 0.1
PROBE_NOMINAL_NS = 500_000
PROBE_WINDOW = 10  # probes on each side of a query that set its speed
PROBE_TREES = tuple(rand_tree(random.Random("perfbench:probe"), 2) for _ in range(3))
PROBE_POINTS = tuple(sample_points(PROBE_TREES))

# Layers a workload must never enter (checked on traced runs).
BYPASS = {
    "finite_rings": ("lineset.ops",),
    "line_products": ("sigma.rings",),
}


def workload_classes():
    classes = (getattr(importlib.import_module(m), c) for m, c in WORKLOADS)
    return {cls.name: cls for cls in classes}


def probe() -> int:
    """Duration of a fixed computation with the library's mix of work
    (Fraction comparisons, tuples, calls), in ns."""
    t0 = perf_counter_ns()
    for tree in PROBE_TREES:
        for x in PROBE_POINTS:
            member(tree, x)
    return perf_counter_ns() - t0


def setup_library(wl):
    """Import the package and build the workload's fixed objects, several
    times from a clean import.  Returns the library, the raw median set-up
    time and that time corrected by the probes taken around the set-ups."""
    if not os.path.isdir(os.path.join(ROOT, "src", "sigma_product")):
        raise SystemExit(f"error: no library sources under {ROOT}/src")
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    times, probes = [], []
    lib = None
    for _ in range(SETUP_REPS):
        purge_library()
        gc.collect()
        probes.append(probe())
        t0 = perf_counter_ns()
        lib = import_library(wl.uses_cli)
        wl.setup(lib)
        times.append(perf_counter_ns() - t0)
        probes.append(probe())
    gc.collect()
    gc.freeze()  # keep the fixed objects out of later collections
    raw = statistics.median(times) / 1e9
    return lib, raw, raw * PROBE_NOMINAL_NS / statistics.median(probes)


class Outcome:
    """Latencies, speed probes and correctness of one pass."""

    def __init__(self):
        self.latencies = []
        self.probes = []  # (number of latencies recorded before it, ns)
        self.attempted = 0
        self.failed = 0
        self.first_failures = []

    def fail(self, q, reason):
        self.failed += 1
        if len(self.first_failures) < 5:
            self.first_failures.append(f"query {q.index} ({q.kind}): {reason}")

    def corrected(self):
        """Latencies scaled to the nominal probe speed."""
        anchors = [a for a, _ in self.probes]
        values = [ns for _, ns in self.probes]
        out = []
        for i, lat in enumerate(self.latencies):
            j = max(bisect.bisect_right(anchors, i) - 1, 0)
            window = values[max(0, j - PROBE_WINDOW + 1): j + PROBE_WINDOW + 1]
            out.append(lat * PROBE_NOMINAL_NS / statistics.median(window))
        return out


def run_one(wl, q, outcome, error_base, record, tracer=None):
    """Run, time and check a single query; a tracer sees only the run."""
    wl.prepare(q)
    result, exc, crash = None, None, None
    if tracer is not None:
        tracer.query_id = q.index
        tracer.enabled = True
    t0 = perf_counter_ns()
    try:
        result = wl.run(q)
    except error_base as caught:  # library errors may be the expected answer
        exc = caught
    except Exception:
        crash = traceback.format_exc(limit=3).replace("\n", " | ")
    t1 = perf_counter_ns()
    if tracer is not None:
        tracer.enabled = False
    outcome.attempted += 1
    if crash is not None:
        outcome.fail(q, crash)
        return
    try:
        reason = wl.check(q, result, exc)
    except Exception:
        reason = "checker raised: " + traceback.format_exc(limit=3).replace("\n", " | ")
    if reason is not None:
        outcome.fail(q, reason)
    if record:
        outcome.latencies.append(t1 - t0)


def closed_loop(wl, lib, seconds, replay=None, tracer=None):
    """Run the workload's queries for ``seconds``, or replay a list.  The
    first WARMUP_S seconds are checked but not timed.  Returns the outcome
    and the timed queries."""
    outcome = Outcome()
    error_base = lib.errors.SigmaProductError
    timed = []
    stream = iter(replay) if replay is not None else wl.queries()
    start = perf_counter()
    warm_until = start if replay is not None else start + min(WARMUP_S, seconds / 10)
    next_probe = warm_until
    while True:
        now = perf_counter()
        if replay is None and now >= start + seconds:
            break
        q = next(stream, None)
        if q is None:
            break
        record = now >= warm_until
        if record and now >= next_probe:
            outcome.probes.append((len(outcome.latencies), probe()))
            next_probe = now + PROBE_EVERY_S
        run_one(wl, q, outcome, error_base, record, tracer)
        if record:
            timed.append(q)
    outcome.probes.append((len(outcome.latencies), probe()))
    return outcome, timed


def tail_latency(sorted_ns):
    """The highest percentile, at most p99, with ten samples beyond it;
    returns the latency, the percentile and the samples beyond it."""
    n = len(sorted_ns)
    beyond = max(math.ceil(0.01 * n), 10)
    if n <= beyond:
        raise SystemExit(f"error: only {n} timed queries; run longer")
    return sorted_ns[n - 1 - beyond], 1 - beyond / n, beyond


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(outcome, setup_raw, setup_s):
    lat = sorted(outcome.corrected())
    raw = sorted(outcome.latencies)
    p99, level, beyond = tail_latency(lat)
    error_rate = outcome.failed / outcome.attempted
    probe_ms = statistics.median(ns for _, ns in outcome.probes) / 1e6
    print(f"# queries timed={len(lat)} attempted={outcome.attempted} failed={outcome.failed} "
          f"error_rate={error_rate}")
    print(f"# latency_p99_ms is p{100 * level:.2f} with {beyond} of {len(lat)} samples beyond it")
    print(f"# raw ops_per_s={len(raw) / (sum(raw) / 1e9):.3f} "
          f"latency_p50_ms={statistics.median(raw) / 1e6:.4f} "
          f"latency_p99_ms={tail_latency(raw)[0] / 1e6:.4f} setup_s={setup_raw:.5f} "
          f"probe_ms={probe_ms:.4f} (nominal {PROBE_NOMINAL_NS / 1e6})")
    return {
        "ops_per_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "latency_p99_ms": (p99 / 1e6, "ms"),
        "success_rate": (1 - error_rate, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def unit_of(name):
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_ratio", "ratio"),
                         ("_per_op", "ratio"), ("_per_rect", "ratio"), ("overhead", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def traced(wl, lib, seconds):
    from tracer import Tracer

    base, queries = closed_loop(wl, lib, seconds / 2)
    tracer = Tracer(lib)
    tracer.install()
    try:
        traced_outcome, _ = closed_loop(wl, lib, 0, replay=queries, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead"] = sum(base.corrected()) / sum(traced_outcome.corrected())
    metrics["trace.queries"] = len(queries)
    os.makedirs(WORK_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(WORK_DIR, f"spans-{wl.name}.jsonl.gz"))
    merged = Outcome()
    merged.attempted = base.attempted + traced_outcome.attempted
    merged.failed = base.failed + traced_outcome.failed
    merged.first_failures = base.first_failures + traced_outcome.first_failures
    for name in BYPASS.get(wl.name, ()):
        if metrics[name] != 0:
            merged.fail(Query(-1, "bypass", None), f"{name} = {metrics[name]}, expected 0")
    return merged, {k: (v, unit_of(k)) for k, v in metrics.items()}


def main(argv=None):
    classes = workload_classes()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(classes))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = classes[args.workload](args.seed)
    lib, setup_raw, setup_s = setup_library(wl)
    if args.trace:
        outcome, metrics = traced(wl, lib, args.seconds)
    else:
        outcome, _ = closed_loop(wl, lib, args.seconds)
    problem = wl.finish()
    if problem:
        outcome.fail(Query(-1, "workload", None), problem)
    if not args.trace:
        metrics = end_to_end(outcome, setup_raw, setup_s)
    for line in outcome.first_failures:
        print(f"# FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
