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
  copy reads all k entries on each of its paths: one whose clocks
  differ at most in the acting thread's entry reads them all in the
  list comparison that finds this; a copy into a fresh target, all
  zeros, reads them in the count(0) scans that find this and count the
  source's nonzero entries; and any other join or copy scans them
  entrywise. The first two run at C speed but are still k reads. For
  trees it is the nodes a join or
  monotone copy examined in its gather plus the nodes it relinked,
  1 per early exit or increment, and 2·|source tree| + |target tree|
  per deep copy; the whole point of the tree representation is keeping
  this close to vt_work. A monotone copy into a detached clock (a maz
  reader clock whose tree was dropped) relinks nothing: it copies the
  entries and shares the source's link set, yet counts the nodes it
  would have relinked, as a deep copy counts arrays it shares rather
  than copies. impl_work does not yet tell that O(k) list work apart
  from node work.

`cross_check` is the one comparison of the clock kinds with each other
and with the brute-force oracle; `analyze` and `selfcheck` both run it.

`verify_bounds` checks the relations that must hold:

- every run: events <= vt_work, since each event increments one entry;
- "hb" runs: vt_work <= events * threads, and on tree runs
  impl_work <= 3 * vt_work. With one thread the ceiling is replaced by
  the exact count vt_work == events + copies: acquires change nothing
  beyond the increment, and every release's copy changes the lock's
  single entry, so the ceiling n*1 would reject every release.

The ceiling and the 3x tree bound are theorems about the pure lock
order only, and each fails under each stronger order:

- the ceiling under "shb": two threads alternating writes to one
  variable make the last-write clock swing between their unordered
  clocks, so each event changes ~3 entries at k=2 (vt_work = 3n - 1 for
  that family, above n*k = 2n);
- the ceiling under "maz": each read both gains entries in the thread
  clock and mirrors those gains into its reader clock, so the
  per-event total can exceed k ("t1 w x", "t0 r x" gives 6 > 2*2);
- the 3x tree bound under "shb": after 32 threads sync through one
  lock, 1000 rounds of two alternating unordered writes deep-copy a
  32-node clock each time (impl_work 197,420 > 3 * 7,710);
- the 3x tree bound under "maz": after 4 threads sync, 100 such rounds
  each join the last-write clock and copy back into it, with one
  increment for both (impl_work 1,991 > 3 * 644).

The acceptance suite pins the shb ceiling and both 3x counterexamples
as strict expected failures.
"""

from operator import ne

from .analyses import HB, MAZ, AnalysisRun, Engine, race_event_indices
from .oracle import oracle_races, oracle_timestamps
from .trace import READ, REL, WRITE, Trace


def vtwork(trace: Trace, po: str, stamps=None) -> int:
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
    more than ORACLE_MAX_EVENTS (5000) events. A caller that already
    holds oracle_timestamps(trace, po) passes them as stamps, and the
    oracle is not run again."""
    if stamps is None:
        stamps = oracle_timestamps(trace, po)
    zeros = (0,) * trace.thread_count
    last = {}  # clock -> its value after the last event that set it
    work = 0
    for ev, stamp in zip(trace.events, stamps):
        clocks = [ev.tid]
        if ev.op == REL or (ev.op == WRITE and po != HB):
            clocks.append((ev.op, ev.target))
        elif ev.op == READ and po == MAZ:
            clocks.append((READ, ev.target, ev.tid))
        for key in clocks:
            work += sum(map(ne, last.get(key, zeros), stamp))
            last[key] = stamp
    return work


def cross_check(trace, po, kinds, oracle, debug=False):
    """Replay the trace untimed through one Engine per clock kind in
    lockstep, keeping nothing per event, and compare what they give.

    Returns (runs, kind_problems, oracle_problems): each engine's
    AnalysisRun, in kinds order, and a message per failed check. The
    kinds must agree with each other: every event's timestamp, the race
    reports and vt_work of the first kind against the last. With oracle
    set, the first kind must also agree with the brute-force oracle:
    oracle_timestamps, oracle_races and vtwork, which recounts from the
    same oracle timestamps, so, as the kinds agree, each kind does.
    debug is passed to the engines: this untimed pass is where analyze
    --debug and selfcheck run the debug checks, once per kind."""
    engines = [Engine(po, trace.thread_count, kind, debug=debug,
                      count_unordered=False) for kind in kinds]
    want = oracle_timestamps(trace, po) if oracle else None
    kinds_differ = oracle_differs = False
    for i, ev in enumerate(trace.events):
        stamps = [engine.process(ev).flatten() for engine in engines]
        if stamps[-1] != stamps[0]:
            kinds_differ = True
        if want is not None and stamps[0] != want[i]:
            oracle_differs = True
    runs = [engine.record(trace) for engine in engines]
    a, b = runs[0], runs[-1]

    kind_problems = []
    if kinds_differ:
        kind_problems.append(f"{a.clock_kind} and {b.clock_kind} timestamps differ")
    if a.races != b.races:
        kind_problems.append(f"{a.clock_kind} and {b.clock_kind} race reports differ")
    if a.vt_work != b.vt_work:
        kind_problems.append(f"vt_work differs ({a.clock_kind}={a.vt_work}, "
                             f"{b.clock_kind}={b.vt_work})")

    oracle_problems = []
    if oracle:
        if oracle_differs:
            oracle_problems.append("engine timestamps differ from oracle")
        if race_event_indices(trace, a.races) != oracle_races(trace, po):
            oracle_problems.append("engine races differ from oracle")
        want_work = vtwork(trace, po, want)
        if a.vt_work != want_work:
            oracle_problems.append(f"engine vt_work differs from oracle "
                                   f"(engine={a.vt_work}, oracle={want_work})")
    return runs, kind_problems, oracle_problems


def verify_bounds(run: AnalysisRun) -> None:
    """Check the work-accounting invariants for a finished run, raising
    AssertionError on a breach. The checks are explicit raises, not
    assert statements, so they hold under python -O as well.

    The lower bound holds for every order; the upper bound (exact with one
    thread) and the 3x optimality bound are theorems about the pure lock
    order, and both fail under "shb" and under "maz" (the module
    docstring gives a counterexample for each bound and order), so
    neither is checked there."""
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
