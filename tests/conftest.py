"""Shared test helpers: deterministic random traces of varying shape,
per-event views of an engine run, and faults injected into the
cross-check of the clock kinds and the oracle."""

from clocktrace import metrics
from clocktrace.analyses import Engine
from clocktrace.tracegen import SplitMix64, random_trace
from clocktrace.trace import Trace
from clocktrace.vclock import VectorClock

__all__ = ["random_trace", "corpus_trace", "each_event", "debug_run",
           "engine_timestamps", "inject_fault"]


def each_event(trace, po, debug=False):
    """Drive a tree-clock Engine over the trace, yielding (index, event,
    engine) after each event has been processed."""
    engine = Engine(po, trace.thread_count, "tree", debug=debug)
    for i, ev in enumerate(trace.events):
        engine.process(ev)
        yield i, ev, engine


def debug_run(trace, po, kind="tree"):
    """Drive an Engine with its debug checks on over the whole trace
    and return its AnalysisRun."""
    engine = Engine(po, trace.thread_count, kind, debug=True)
    for ev in trace.events:
        engine.process(ev)
    return engine.record(trace)


def engine_timestamps(trace, po, kind):
    """Each event's timestamp, as Engine.process reports it."""
    engine = Engine(po, trace.thread_count, kind)
    return [engine.process(ev).flatten() for ev in trace.events]


def corpus_trace(seed, max_events=500, max_threads=8, max_locks=4, max_vars=6):
    """One deterministic trace with shape parameters drawn from the seed:
    2..max_threads threads, 0..max_locks locks, 0..max_vars variables,
    and between max_events/10 and max_events events."""
    rng = SplitMix64(seed ^ 0xC0FFEE)
    threads = 2 + rng.below(max_threads - 1)
    locks = rng.below(max_locks + 1)
    variables = rng.below(max_vars + 1)
    lo = max(4, max_events // 10)
    events = lo + rng.below(max_events - lo + 1)
    if locks == 0 and variables == 0:
        variables = 1
    return random_trace(
        seed, events=events, threads=threads, locks=locks, variables=variables
    )


def inject_fault(monkeypatch, fault, trace, po):
    """Make metrics.cross_check on (trace, po) see one fault: in the
    vector engine's "vector timestamps", "vector races" (its last race
    dropped) or "vector vt_work" (one more), or in the oracle's "oracle
    timestamps" (the last one raised), "oracle races" (the last dropped)
    or "oracle vt_work" (one more). Each fault reaches no other check,
    but for "oracle timestamps": the oracle's vt_work recount reads the
    same doctored list, so it moves as well."""
    work = metrics.vtwork(trace, po)
    real_ts, real_races = metrics.oracle_timestamps, metrics.oracle_races

    class Doctored(Engine):
        def record(self, trace, elapsed=0.0):
            run = super().record(trace, elapsed)
            if self.clock_kind == "vector" and fault == "vector races":
                run.races.pop()
            if self.clock_kind == "vector" and fault == "vector vt_work":
                run.counter.vt_work += 1
            return run

    def doctored_ts(trace, po):
        stamps = real_ts(trace, po)
        stamps[-1] = tuple(v + 1 for v in stamps[-1])
        return stamps

    monkeypatch.setattr(metrics, "Engine", Doctored)
    if fault == "vector timestamps":  # hb engines never flatten themselves
        real_flatten = VectorClock.flatten
        monkeypatch.setattr(VectorClock, "flatten",
                            lambda self: tuple(v + 1 for v in real_flatten(self)))
    if fault == "oracle timestamps":
        monkeypatch.setattr(metrics, "oracle_timestamps", doctored_ts)
    if fault == "oracle races":
        monkeypatch.setattr(metrics, "oracle_races",
                            lambda trace, po: real_races(trace, po)[:-1])
    if fault == "oracle vt_work":
        monkeypatch.setattr(metrics, "vtwork",
                            lambda trace, po, stamps=None: work + 1)
