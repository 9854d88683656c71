"""Shared test helpers: deterministic random traces of varying shape, and
per-event views of an engine run."""

from clocktrace.analyses import Engine
from clocktrace.tracegen import SplitMix64, random_trace
from clocktrace.trace import Trace

__all__ = ["random_trace", "corpus_trace", "each_event", "engine_timestamps"]


def each_event(trace, po, debug=False):
    """Drive a tree-clock Engine over the trace, yielding (index, event,
    engine) after each event has been processed."""
    engine = Engine(po, trace.thread_count, "tree", debug=debug)
    for i, ev in enumerate(trace.events):
        engine.process(ev)
        yield i, ev, engine


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
