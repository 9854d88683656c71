"""Work accounting for clock-based analyses.

Two cost models for the same run:

- vt_work: how many vector-time entries actually changed. This is the
  intrinsic cost of the analysis — any clock representation must record
  at least these updates. The engines count it incrementally while they
  run; `vtwork` recomputes it here from scratch by snapshotting every
  maintained clock after each event and diffing, which is slow but
  obviously correct, so the two can be cross-checked.
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

from .analyses import HB, MAZ, SHB, AnalysisRun
from .trace import ACQ, READ, REL, WRITE, Trace


def vtwork(trace: Trace, po: str) -> int:
    """Reference vector-time work: run the analysis on plain dicts,
    snapshot every maintained clock after each event, and count the
    entries that changed since the previous snapshot. Independent of the
    clock implementations (no VectorClock/TreeClock involved), so it
    serves as the oracle for the engines' incremental vt_work counters.
    Changes are netted per event: an entry raised twice while one event
    is processed counts once."""
    if po not in (HB, SHB, MAZ):
        raise ValueError(f"unknown partial order: {po!r}")
    k = trace.thread_count
    thread = [{} for _ in range(k)]
    locks = {}
    writes = {}
    read_clocks = {}  # (var, tid) -> clock; persists across writes
    read_since = {}  # var -> tids that read since the last write

    def join(dst, src):
        for t, v in src.items():
            if v > dst.get(t, 0):
                dst[t] = v

    def snapshot():
        snap = {}
        for t in range(k):
            snap["T", t] = dict(thread[t])
        for key, c in locks.items():
            snap["L", key] = dict(c)
        for key, c in writes.items():
            snap["W", key] = dict(c)
        for key, c in read_clocks.items():
            snap["R", key] = dict(c)
        return snap

    prev = snapshot()
    work = 0
    for ev in trace.events:
        t, x = ev.tid, ev.target
        C = thread[t]
        C[t] = C.get(t, 0) + 1
        if ev.op == ACQ:
            if x in locks:
                join(C, locks[x])
        elif ev.op == REL:
            locks[x] = dict(C)
        elif ev.op == READ:
            if po != HB and x in writes:
                join(C, writes[x])
            if po == MAZ:
                read_clocks[x, t] = dict(C)
                read_since.setdefault(x, {})[t] = None
        elif ev.op == WRITE:
            if po == MAZ:
                if x in writes:
                    join(C, writes[x])
                for rt in read_since.get(x, ()):
                    join(C, read_clocks[x, rt])
                read_since[x] = {}
            if po != HB:
                writes[x] = dict(C)
        cur = snapshot()
        for key, new in cur.items():
            old = prev.get(key)
            if old is None:
                work += sum(1 for v in new.values() if v != 0)
            elif old != new:
                keys = old.keys() | new.keys()
                work += sum(1 for u in keys if old.get(u, 0) != new.get(u, 0))
        prev = cur
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
