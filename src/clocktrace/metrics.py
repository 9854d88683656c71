"""Work accounting for clock-based analyses.

Two cost models for the same run:

- vt_work: how many vector-time entries actually changed. This is the
  intrinsic cost of the analysis — any clock representation must record
  at least these updates. The engines count it incrementally while they
  run; `vtwork` recounts it from the brute-force oracle's timestamps
  (every clock an event sets takes the event's timestamp), which is
  quadratic and capped like the oracle but independent of the clocks and
  the engine, so the two can be cross-checked.
- impl_work: how many entries/nodes the clock representation touched,
  including reads that led to no update. For vectors this is exactly
  thread_count * (joins + copies) + increments, since every join and
  copy scans a full vector. For trees it is the number of nodes pushed,
  tested, detached or attached, which the tree operations count as they
  go; the whole point of the tree representation is keeping this close
  to vt_work.

`verify_bounds` checks the relations that must hold:

- every run: events <= vt_work, since each event increments one entry;
- "hb" runs: vt_work <= events * threads, and on tree runs
  impl_work <= 3 * vt_work. With one thread the ceiling is replaced by
  the exact count vt_work == events + copies: acquires change nothing
  beyond the increment, and every release's copy changes the lock's
  single entry, so the ceiling n*1 would reject every release.

The upper bound is a theorem about the pure lock order only. Under
"shb" it fails outright: two threads alternating writes to one variable
make the last-write clock swing between their unordered clocks, so each
event changes ~3 entries at k=2 (vt_work = 3n - 1 for that family,
above n*k = 2n). Under "maz" each read both gains entries in the
thread clock and mirrors those gains into its reader clock, so the
per-event total can exceed k as well.
"""

from operator import ne

from .analyses import HB, MAZ, AnalysisRun
from .oracle import oracle_timestamps
from .trace import READ, REL, WRITE, Trace


def vtwork(trace: Trace, po: str) -> int:
    """Reference vector-time work, read off the brute-force oracle.

    Every clock an event sets ends the event equal to its timestamp: the
    acting thread's clock; on a release, the lock's clock; on a write
    under "shb"/"maz", the variable's last-write clock; on a read under
    "maz", the (variable, thread) reader clock. Each such clock adds the
    entries in which the timestamp differs from its previous value (all
    zeros the first time), so changes are netted per event: an entry
    raised twice while one event is processed counts once. No clock
    implementation or engine is involved, so this serves as the
    reference for the engines' incremental vt_work counters. Like the
    oracle, it raises ValueError on an unknown order or on a trace of
    more than ORACLE_MAX_EVENTS (5000) events."""
    zeros = (0,) * trace.thread_count
    last = {}  # clock -> its value after the last event that set it
    work = 0
    for ev, stamp in zip(trace.events, oracle_timestamps(trace, po)):
        clocks = [ev.tid]
        if ev.op == REL or (ev.op == WRITE and po != HB):
            clocks.append((ev.op, ev.target))
        elif ev.op == READ and po == MAZ:
            clocks.append((READ, ev.target, ev.tid))
        for key in clocks:
            work += sum(map(ne, last.get(key, zeros), stamp))
            last[key] = stamp
    return work


def verify_bounds(run: AnalysisRun) -> None:
    """Check the work-accounting invariants for a finished run, raising
    AssertionError on a breach. The checks are explicit raises, not
    assert statements, so they hold under python -O as well.

    The lower bound holds for every order; the upper bound (exact with one
    thread) and the 3x optimality bound are theorems about the pure lock
    order (see the module docstring for why the upper bound cannot hold
    under the stronger orders)."""
    n, k = run.events, run.threads
    if n == 0:
        if run.vt_work != 0:
            raise AssertionError(f"empty trace with vt_work={run.vt_work}")
        return
    if run.vt_work < n:
        raise AssertionError(
            f"vt_work={run.vt_work} below event count {n} "
            f"(po={run.po}, clock={run.clock_kind})"
        )
    if run.po != HB:
        return
    if k == 1:
        exact = n + run.counter.copies
        if run.vt_work != exact:
            raise AssertionError(
                f"vt_work={run.vt_work} != events+copies={exact} on a "
                f"one-thread hb run (clock={run.clock_kind})"
            )
    elif run.vt_work > n * k:
        raise AssertionError(
            f"vt_work={run.vt_work} above {n}*{k}={n * k} on an hb run "
            f"(clock={run.clock_kind})"
        )
    if run.clock_kind == "tree" and run.impl_work > 3 * run.vt_work:
        raise AssertionError(
            f"tree impl_work={run.impl_work} exceeds "
            f"3*vt_work={3 * run.vt_work} (events={n}, threads={k})"
        )
