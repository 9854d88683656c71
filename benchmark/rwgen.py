"""Seeded read/write trace generator for the benchmark.

`clocktrace.tracegen` emits lock events only, so the `shb` and `maz`
workloads need traces with accesses. Each step picks a thread uniformly.
With probability 1/4 the step is a critical section: acquire one of
`locks` locks, make 1-3 accesses, release. Otherwise it is one access
outside any lock. Half of all variable draws go to a hot set (the first
HOT_FRACTION of the variables), the other half uniformly to the rest.
Three accesses in four are reads.

A critical section is emitted without interleaving, so lock discipline
holds by construction; `generate_rw` still checks it before returning.
The draws come from `clocktrace.tracegen.SplitMix64`, so a seed gives the
same trace on every platform.
"""

from dataclasses import dataclass

from clocktrace.trace import ACQ, READ, REL, WRITE, Event, Trace, validate_trace
from clocktrace.tracegen import SplitMix64

HOT_FRACTION = 0.05


@dataclass(frozen=True)
class RWSpec:
    threads: int = 64
    events: int = 16_000
    variables: int = 2000
    locks: int = 16


def generate_rw(spec, seed):
    """The trace for spec and seed: at least spec.events events, ending
    with the step that reaches the count."""
    rng = SplitMix64(seed)
    k, n_vars = spec.threads, spec.variables
    hot = max(1, int(n_vars * HOT_FRACTION))
    events = []
    emit = events.append

    def access(t):
        if rng.below(2):
            x = rng.below(hot)
        else:
            x = hot + rng.below(n_vars - hot)
        emit(Event(t, WRITE if rng.below(4) == 0 else READ, x))

    while len(events) < spec.events:
        t = rng.below(k)
        if rng.below(4) == 0:
            lock = rng.below(spec.locks)
            emit(Event(t, ACQ, lock))
            for _ in range(1 + rng.below(3)):
                access(t)
            emit(Event(t, REL, lock))
        else:
            access(t)
    trace = Trace(events, k, spec.locks, n_vars)
    problems = validate_trace(trace)
    if problems:
        raise ValueError(f"r/w generator produced an illegal trace: {problems[0].message}")
    return trace
