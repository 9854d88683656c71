"""Traced run: per-layer times and counts for one workload, in process.

Spans (name, start, end, parent) are recorded around the benchmark's own
calls into each module's public functions, kept in memory and written to
spans.json at the end. Nothing inside `clocktrace` is instrumented.

The layers, named after the modules:

- tracegen / trace: generate, serialize, parse, validate the trace;
- analyses: `run_analysis` wall time, split into the engine loop
  (`AnalysisRun.elapsed`) and engine set-up (the rest, chiefly allocating
  one owned clock per thread); unordered-pair counting (engine time with
  counting minus without); tracemalloc peak of a run;
- treeclock / vclock: the work counters of a run, and per-operation
  latency from a replay of the run's clock-operation stream that calls
  `TreeClock` and `VectorClock` methods directly.
"""

import contextlib
import gc
import json
import os
import statistics
import time
import tracemalloc

from clocktrace import analyses
from clocktrace.analyses import run_analysis
from clocktrace.metrics import verify_bounds
from clocktrace.trace import parse_trace, serialize_trace, validate_trace
from clocktrace.treeclock import TreeClock
from clocktrace.vclock import VectorClock, WorkCounter
from workloads import (KINDS, Gate, analyze_argv, invoke, make_trace,
                       write_oracle_prefix, write_text)

TREE_OPS = ("join", "monotone_copy", "fresh_copy", "deep_copy", "aux_init")
VECTOR_OPS = ("join", "monotone_copy")


class Tracer:
    """In-memory spans; a span's parent is the span open when it started."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name):
        """Median duration of the spans called name."""
        return statistics.median(s["end"] - s["start"] for s in self.spans
                                 if s["name"] == name)


def analyze_in_process(path, po, kind, tracer=None):
    """What `analyze --clock kind --repeat 1` does, minus printing.
    Returns (trace, run, run_analysis wall time)."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with span("trace.parse"):
        with open(path, encoding="utf-8") as fh:
            trace = parse_trace(fh.read())
    with span("analyses.run_analysis"):
        t0 = time.perf_counter()
        run = run_analysis(trace, po, kind)
        wall = time.perf_counter() - t0
    with span("metrics.verify_bounds"):
        verify_bounds(run)
    return trace, run, wall


def run_counts(run):
    """The counts the gate compares, as `analyze` prints them."""
    return {"events": run.events, "vt_work": run.vt_work, "races": len(run.races),
            "pairs_unordered": run.unordered_pairs, "deep_copies": run.deep_copies}


# --- clock-operation stream ------------------------------------------------

def record_ops(trace, po):
    """The public clock calls an engine run makes, in order, as tuples:
    ("aux", id), ("inc", id), ("join", dst, src), ("copy", dst, src) for
    monotone_copy and ("check", dst, src) for copy_check_monotone. Owned
    clocks have id = thread id; aux clocks are numbered on from k.

    The engine picks its clock class by the module-level name in
    `clocktrace.analyses`; a recording subclass stands in for it during
    the run. The stream is the same for both clock kinds, because the
    engine never branches on the kind.
    """
    ops = []
    next_aux = [trace.thread_count]

    class Recording(VectorClock):
        __slots__ = ("rid",)

        @classmethod
        def owned(cls, tid, size, counter=None):
            clock = cls(size, owner=tid, counter=counter)
            clock.rid = tid
            return clock

        @classmethod
        def aux(cls, size, counter=None):
            clock = cls(size, counter=counter)
            clock.rid = next_aux[0]
            next_aux[0] += 1
            ops.append(("aux", clock.rid))
            return clock

        def increment(self, amount=1):
            ops.append(("inc", self.rid))
            return super().increment(amount)

        def join(self, src):
            ops.append(("join", self.rid, src.rid))
            return super().join(src)

        def monotone_copy(self, src):
            ops.append(("copy", self.rid, src.rid))
            return super().monotone_copy(src)

        def copy_check_monotone(self, src):
            ops.append(("check", self.rid, src.rid))
            return super().copy_check_monotone(src)

    saved = analyses.VectorClock
    analyses.VectorClock = Recording
    try:
        run_analysis(trace, po, "vector", count_unordered=False)
    finally:
        analyses.VectorClock = saved
    return ops


def replay(ops, k, cls):
    """Run the stream on fresh clocks of class cls, timing each join,
    copy and aux allocation. Returns (samples by op kind in ns, joins
    that raised vt_work)."""
    counter = WorkCounter()
    clocks = [cls.owned(t, k, counter) for t in range(k)]
    written = set()
    samples = {op: [] for op in TREE_OPS}
    useful = 0
    now = time.perf_counter_ns
    for op in ops:
        code = op[0]
        if code == "inc":
            clocks[op[1]].increment()
            continue
        if code == "aux":
            t0 = now()
            clock = cls.aux(k, counter)
            samples["aux_init"].append(now() - t0)
            clocks.append(clock)
            continue
        dst, src = clocks[op[1]], clocks[op[2]]
        if code == "join":
            vt0 = counter.vt_work
            t0 = now()
            dst.join(src)
            samples["join"].append(now() - t0)
            useful += counter.vt_work > vt0
            continue
        t0 = now()
        status = dst.copy_check_monotone(src) if code == "check" else dst.monotone_copy(src)
        dt = now() - t0
        if op[1] not in written:
            written.add(op[1])
            samples["fresh_copy"].append(dt)
        elif status == "deep":
            samples["deep_copy"].append(dt)
        else:
            samples["monotone_copy"].append(dt)
    return samples, useful


def percentiles(name, values):
    """Median and the highest of p99.9/p99/p90 that has at least ten
    samples above it (the median when none has), with the sample count.
    All 0 when there are no samples."""
    values = sorted(values)
    n = len(values)
    p50 = statistics.median(values) if values else 0
    tail, pct = p50, 50 if values else 0
    for q in (99.9, 99, 90):
        if n * (100 - q) / 100 >= 10:
            tail, pct = values[min(n - 1, int(n * q / 100))], q
            break
    return {f"{name}.p50": (p50, "ns"), f"{name}.tail": (tail, "ns"),
            f"{name}.tail_pct": (pct, "pct"), f"{name}.n": (n, "count")}


# --- the traced run ------------------------------------------------------------

def traced_run(w, seed, out_dir, pinned):
    """Per-layer metrics of one workload. Returns (gate, metrics, extra)."""
    tr = Tracer()
    path = os.path.join(out_dir, "trace.txt")
    with tr.span("workload"):
        with tr.span("setup"):
            with tr.span("tracegen.generate"):
                trace = make_trace(w, seed)
            with tr.span("trace.serialize"):
                text = serialize_trace(trace)
            write_text(path, text)
        gate = Gate(len(trace), pinned)
        prefix = os.path.join(out_dir, "prefix.txt")
        write_oracle_prefix(trace, prefix)
        with tr.span("oracle_prefix"):
            gate.check_oracle(invoke(analyze_argv(w.po, "both", prefix, "--oracle")))
        del trace, text
        try:
            layers = {kind: _analyses_layer(tr, gate, path, w.po, kind) for kind in KINDS}
        except AssertionError as exc:
            gate.attempted += 1
            gate.fail(f"verify_bounds: {exc}")
            layers = None
        if layers is not None:
            parsed = layers["tree"]["trace"]
            with tr.span("replay.record"):
                ops = record_ops(parsed, w.po)
            replays = {}
            for kind, cls in (("tree", TreeClock), ("vector", VectorClock)):
                with tr.span(f"replay.{kind}"):
                    replays[kind] = replay(ops, parsed.thread_count, cls)

    with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump(tr.spans, fh)

    m = {
        "trace.parse_s": (tr.seconds("trace.parse"), "s"),
        "tracegen.generate_s": (tr.seconds("tracegen.generate"), "s"),
        "trace.serialize_s": (tr.seconds("trace.serialize"), "s"),
    }
    if layers is None:
        return gate, m, {"spans": len(tr.spans)}
    m["trace.validate_s"] = (tr.seconds("trace.validate"), "s")
    for kind in KINDS:
        lay = layers[kind]
        m[f"analyses.engine_s.{kind}"] = (lay["engine_s"], "s")
        m[f"analyses.engine_init_s.{kind}"] = (lay["init_s"], "s")
        m[f"analyses.unordered_count_s.{kind}"] = (lay["engine_s"] - lay["nocount"].elapsed, "s")
        m[f"analyses.tracemalloc_peak_mb.{kind}"] = (lay["peak_mb"], "MB")
    tree, vector = layers["tree"]["nocount"], layers["vector"]["nocount"]
    m.update({
        "analyses.races": (len(tree.races), "count"),
        "analyses.unordered_pairs": (layers["tree"]["pairs"], "count"),
        "analyses.deep_copies": (tree.deep_copies, "count"),
        "analyses.fresh_copies": (tree.fresh_copies, "count"),
        "treeclock.vt_work": (tree.vt_work, "count"),
        "treeclock.impl_work": (tree.impl_work, "count"),
        "treeclock.joins": (tree.counter.joins, "count"),
        "treeclock.copies": (tree.counter.copies, "count"),
        "treeclock.increments": (tree.counter.increments, "count"),
        "treeclock.impl_per_vt": (tree.impl_work / tree.vt_work, "ratio"),
        "treeclock.ns_per_impl_work": (tree.elapsed * 1e9 / tree.impl_work, "ns"),
    })
    samples, useful = replays["tree"]
    joins = len(samples["join"])
    m["treeclock.join_useful_fraction"] = (useful / joins if joins else 0.0, "ratio")
    for op in TREE_OPS:
        m.update(percentiles(f"treeclock.{op}_ns", samples[op]))
    m["vclock.impl_work"] = (vector.impl_work, "count")
    m["vclock.ns_per_impl_work"] = (vector.elapsed * 1e9 / vector.impl_work, "ns")
    samples, _ = replays["vector"]
    # a vector copy costs the same whatever the target held
    samples["monotone_copy"] += samples.pop("fresh_copy") + samples.pop("deep_copy")
    for op in VECTOR_OPS:
        m.update(percentiles(f"vclock.{op}_ns", samples[op]))
    overhead = sum(tr.seconds(f"analyze.{kind}") - layers[kind]["untraced_s"]
                   for kind in KINDS)
    m["bench.tracing_overhead_s"] = (overhead, "s")
    return gate, m, {"spans": len(tr.spans), "clock_ops": len(ops)}


def _analyses_layer(tr, gate, path, po, kind):
    """The analyze pipeline for one clock kind, traced and then untraced,
    plus the engine without unordered-pair counting and under tracemalloc.
    Each run starts from a collected heap, so one run's garbage does not
    land in the next one's time."""
    gc.collect()
    with tr.span(f"analyze.{kind}"):
        trace, run, wall = analyze_in_process(path, po, kind, tr)
    gate.check_counts(f"{kind} traced", run_counts(run))
    out = {"trace": trace, "engine_s": run.elapsed, "init_s": wall - run.elapsed,
           "pairs": run.unordered_pairs}
    del run
    gc.collect()
    t0 = time.perf_counter()
    _, run, _ = analyze_in_process(path, po, kind)
    out["untraced_s"] = time.perf_counter() - t0
    gate.check_counts(f"{kind} untraced", run_counts(run))
    del run
    # timed only: both generators already reject a trace that fails it
    with tr.span("trace.validate"):
        validate_trace(trace)
    gc.collect()
    with tr.span(f"analyses.run_analysis.nocount.{kind}"):
        out["nocount"] = run_analysis(trace, po, kind, count_unordered=False)
    gc.collect()
    tracemalloc.start()
    try:
        with tr.span(f"analyses.run_analysis.tracemalloc.{kind}"):
            run_analysis(trace, po, kind)
        out["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return out
