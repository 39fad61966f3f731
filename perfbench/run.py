#!/usr/bin/env python3
"""The relcon benchmark.

Run from the root of a relcon checkout:

    python3 perfbench/run.py --workload proof-search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Each run sets relcon up several times (a fresh import plus the fixtures and
oracles each time) and reports the median set-up time, and runs a fixed
number of rounds of generated queries in this one process and thread: the
number follows from ``--seconds`` and each workload's nominal round time,
never from how fast the rounds run, so that two versions of relcon answer the
same queries.  Timings are the thread's CPU time at a reference machine
speed, measured by a probe loop while the run goes on (see speed.py).  Every answer is checked
against the answer known in advance; the last line of stdout is one JSON
object.  With ``--trace 0`` it holds the end-to-end metrics.  With
``--trace 1`` the same queries run once untraced and once traced (see
tracer.py), and it holds the per-layer metrics, the layer kernels and the
tracing overhead.  ``--self-test`` runs every workload at a tiny size,
traced and untraced, with all checks on.

Each query runs under a wall-clock limit set with ``signal.setitimer`` on the
main thread.  A query that reaches it is undecided and counts at the limit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
from contextlib import nullcontext
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import kernels  # noqa: E402
import tracer as tracing  # noqa: E402
from speed import Speed, Stopwatch, at_reference  # noqa: E402
from workloads import WORKLOADS, WrongAnswer, work_dir  # noqa: E402

SETUP_REPEATS = 9
TRACED_LIMIT_FACTOR = 4
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
OUT_DIR = ".perfbench-out"

END_TO_END = {"setup_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms",
              "query_tail_ms": "ms", "decided_share": "share", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in tracing.Tracer().metrics():
        if name.endswith("per_s"):
            unit = "1/s"
        elif name.endswith("_s"):
            unit = "s"
        elif name.endswith(("_ratio", "_share")):
            unit = "share"
        else:
            unit = "count"
        units[name] = unit
    for name in kernels.NAMES:
        units[f"kernel.{name}_us"] = "us"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "share"
    return units


class QueryTimeout(BaseException):
    """Raised by the timer signal.  Not an Exception, so that no handler in
    the program (``except Exception``) can swallow it."""


def _alarm(signum, frame):
    raise QueryTimeout()


TIMEOUT = "timeout"


def call_with_limit(fn, limit: float, speed):
    """(span, result, error): error is None, TIMEOUT or what the call raised.

    A query that reaches the limit has no span (see speed.Stopwatch); it
    counts at the limit.
    """
    watch = Stopwatch(speed)
    try:
        with watch:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                result = fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        return watch.span, result, None
    except QueryTimeout:
        return None, None, TIMEOUT
    except Exception as e:  # the program raised: the query failed
        return watch.span, None, e


def _relcon_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "relcon" or k.startswith("relcon.")}


def set_up(workload, root, speed=None):
    """Import relcon afresh and build the workload's fixtures; timed."""
    for name in _relcon_modules():
        del sys.modules[name]
    gc.collect()  # each set-up starts from a collected heap
    with Stopwatch(speed) as watch:
        R = importlib.import_module("relcon")
        importlib.import_module("relcon.cli")
        fx = workload.setup(R, root)
    return watch.span, R, fx


def timed_set_ups(workload, root, speed) -> list[tuple]:
    """SETUP_REPEATS more set-ups, each dropped at once.

    The package the queries use goes back into ``sys.modules`` afterwards, so
    every timed set-up sees the same heap: one relcon package loaded and in
    use, and no earlier copy still referenced.
    """
    in_use = _relcon_modules()
    spans = [set_up(workload, root, speed)[0] for _ in range(SETUP_REPEATS)]
    for name in _relcon_modules():
        del sys.modules[name]
    sys.modules.update(in_use)
    return spans


class Pass:
    """The outcome of running rounds of queries: one record per query."""

    def __init__(self):
        self.latencies: list[float] = []
        self.limited: list[bool] = []  # per query: it hit its limit
        self.decided = 0
        self.timeouts: list[str] = []
        self.failed = 0
        self.problems: list[str] = []
        self.rounds = 0

    def note(self, kind: str, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{kind}: {message}")


def run_query(q, limit, tr, speed, out: Pass):
    """Run and check one query: (its span, or the limit, and the outcome).

    The outcome is "decided", "undecided", "timeout" or "failed".
    """
    paused = tr.pause if tr is not None else nullcontext
    # tracing slows every call; the traced pass measures layers, not verdicts
    limit = min(limit, q.limit) * (TRACED_LIMIT_FACTOR if tr is not None else 1)
    span, result, error = call_with_limit(q.run, limit, speed)
    if tr is not None:
        tr.reset_stack()
    if error is TIMEOUT:
        return limit, "timeout"
    if error is not None:
        out.note(q.kind, f"raised {type(error).__name__}: {error}")
        return span, "failed"
    try:
        with paused():
            decided = q.check(result)
    except WrongAnswer as e:
        out.note(q.kind, f"wrong answer: {e}")
        return span, "failed"
    except Exception as e:
        out.note(q.kind, f"check raised {type(e).__name__}: {e}")
        return span, "failed"
    return span, "decided" if decided else "undecided"


def run_pass(workload, R, fx, rng, size, rounds, *, tr=None, speed=None, traced=False):
    """A fixed number of rounds of queries, each query run and checked once.

    ``tr`` traces the pass; ``traced`` asks the workload for the rounds of the
    traced run, for both of its passes.  With ``speed``, a query's latency is
    its time at the reference speed (see speed.py); a query that reaches its
    limit counts at the limit.
    """
    limit = workload.limit_s[size]
    out = Pass()
    paused = tr.pause if tr is not None else nullcontext
    records = []
    for _ in range(rounds):
        with paused():
            queries = workload.round(R, fx, rng, size, traced=traced)
        # Each round starts from a collected heap, and the objects alive then
        # (the round's inputs, relcon, the fixtures) are kept out of the
        # collector's way, as they would be in a program that reads its
        # inputs one at a time.
        gc.collect()
        gc.freeze()
        try:
            # keep only the outcomes, so that the heap does not grow with the run
            records += [(q.kind, *run_query(q, limit, tr, speed, out)) for q in queries]
        finally:
            gc.unfreeze()
    # scaled only now, when the probes after the last query are in
    for kind, span, outcome in records:
        limited = outcome == "timeout"
        out.latencies.append(span if limited else at_reference(speed, span))
        out.limited.append(limited)
        if outcome == "failed":
            out.failed += 1
        elif outcome == "decided":
            out.decided += 1
        elif limited:
            out.timeouts.append(kind)
    out.rounds = rounds
    return out


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / n


def end_to_end(setups: list[tuple], speed, p: Pass) -> dict:
    n = len(p.latencies)
    tail_value, tail_pct = tail(p.latencies)
    setup_times = [at_reference(speed, span) for span in setups]
    print(f"set-ups (ms, raw / at the reference speed): "
          f"{[(round(s[2] * 1e3, 1), round(t * 1e3, 1)) for s, t in zip(setups, setup_times)]}")
    print(f"queries {n}, rounds {p.rounds}, decided {p.decided}, "
          f"timeouts {sorted(p.timeouts)}, failed {p.failed}; "
          f"tail = p{tail_pct:.2f} of {n} samples")
    print("slowest (ms):", [round(x * 1e3, 1) for x in sorted(p.latencies)[-TAIL_BEYOND - 2:]])
    values = {
        "setup_s": statistics.median(setup_times),
        "queries_per_s": n / sum(p.latencies),
        "query_p50_ms": statistics.median(p.latencies) * 1e3,
        "query_tail_ms": tail_value * 1e3,
        "decided_share": p.decided / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def traced(workload, R, fx, root, seed, size) -> tuple[dict, list[Pass]]:
    """The same queries untraced, then traced on a fresh set-up."""
    t4 = R.load_matrix(os.path.join(root, "fixtures", "t4.mat"))
    values = kernels.run_kernels(R, t4, 0.08 if size == "full" else 0.01)
    rounds = workload.trace_rounds if size == "full" else 1
    plain = run_pass(workload, R, fx, random.Random(seed), size, rounds, traced=True)
    _, R2, fx2 = set_up(workload, root)
    tr = tracing.Tracer()
    tr.install(R2)
    try:
        with_trace = run_pass(workload, R2, fx2, random.Random(seed), size, rounds,
                              tr=tr, traced=True)
    finally:
        tr.uninstall()
    values.update(tr.metrics())
    # over the queries that finished in both passes (the limits differ)
    pairs = [(a, b) for a, b, cut_a, cut_b in zip(plain.latencies, with_trace.latencies,
                                                  plain.limited, with_trace.limited)
             if not (cut_a or cut_b)]
    base = sum(a for a, _ in pairs)
    values["trace.overhead_s"] = sum(b for _, b in pairs) - base
    values["trace.overhead_share"] = values["trace.overhead_s"] / base
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    path = os.path.join(root, OUT_DIR, f"spans-{workload.name}-{seed}.jsonl")
    tr.write_spans(path)
    print(f"spans: {len(tr.spans)} written to {os.path.relpath(path, root)}, "
          f"{tr.dropped} beyond the cap dropped; traced pass: "
          f"{len(with_trace.latencies)} queries, timeouts {sorted(with_trace.timeouts)}")
    units = per_layer_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}, [plain, with_trace]


def run(workload_name, seed, seconds, trace, root, size="full"):
    workload = WORKLOADS[workload_name]
    # the first set-up also warms the import machinery; it is not counted
    _, R, fx = set_up(workload, root)
    if trace:
        metrics, passes = traced(workload, R, fx, root, seed, size)
    else:
        speed = Speed()
        speed.start()
        try:
            setups = timed_set_ups(workload, root, speed)
            rounds = max(1, round(seconds / workload.round_s)) if size == "full" else 1
            passes = [run_pass(workload, R, fx, random.Random(seed), size, rounds,
                               speed=speed)]
        finally:
            speed.stop()
        metrics = end_to_end(setups, speed, passes[0])
    for p in passes:
        for line in p.problems:
            print(f"FAILED {line}")
    return {"correct": not any(p.failed for p in passes),
            "attempted": sum(len(p.latencies) for p in passes),
            "failed": sum(p.failed for p in passes),
            "metrics": metrics}


def self_test(root) -> int:
    """Every workload at a tiny size, untraced and traced, all checks on."""
    ok = True
    declared = _declared_metrics(root)
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run(name, 7, 1, trace, root, size="tiny")
            want = END_TO_END if not trace else per_layer_units()
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            good = result["correct"] and result["failed"] == 0 and got == want
            if declared is not None:
                good = good and got == declared[trace]
            ok = ok and good
            print(f"SELF-TEST {name} trace={trace} {'ok' if good else 'FAILED'} "
                  f"({result['attempted']} queries)")
    return 0 if ok else 1


def _declared_metrics(root):
    """The metric names and units BENCHMARK.json declares, if it is there."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "relcon", "__init__.py")):
        print("error: run from the root of a relcon checkout (no src/relcon here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    signal.signal(signal.SIGALRM, _alarm)
    if args.self_test:
        try:
            return self_test(root)
        finally:
            shutil.rmtree(work_dir(root), ignore_errors=True)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, root)
    finally:
        shutil.rmtree(work_dir(root), ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
