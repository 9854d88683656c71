"""Streaming partial-order analyses over traces.

Three orders, one engine. Every event first advances its thread's clock by
one, then performs the order-specific joins, then runs a uniform set of
race checks against per-variable epochs, then updates the bookkeeping:

- "hb":  acquires join the lock's clock; releases copy the thread's clock
  into it. Accesses touch no clocks, so conflicting accesses stay
  unordered unless locks order them, and the checks report races.
- "shb": additionally, each read joins the last-write clock of its
  variable, ordering every write before the reads that see it. Races
  between a write and a later read can no longer fire; write-write and
  read-write races still do. Sound first-race reports. A write then
  copies its clock into the last-write clock: a write unordered with the
  last write both races it and forces a deep copy, so deep_copies counts
  the write-write races (and is 0 under hb and maz).
- "maz": additionally, each write joins the last-write clock and the
  clocks of all intervening readers, ordering all conflicting accesses.
  The same checks run but, by construction, nothing ever fires, and no
  unordered pair is counted, because none can be unordered. A
  reader clock (x, t) is set by a copy from t's clock at each read of x
  by t, and read by the next write to x, which joins it. Nothing reads
  it again until t's next read of x copies into it once more, so the
  write calls drop_tree on it right after the join: a tree clock frees
  its link set there and keeps its entries (see treeclock), and a
  vector clock, which has no tree, is left as it is.

Race checks follow the epoch discipline: one (thread, clock) pair per
variable for the last write, one per reader thread since that write. At
most one race is reported per (variable, later access): write-write takes
priority, then the first unordered reader in first-read order. Race kinds
name the earlier access first ("write-read" = earlier write, later read).
"""

import time
from bisect import bisect_right
from collections import namedtuple
from functools import partial
from operator import ne

from .trace import ACQ, REL, READ, WRITE
from .vclock import Epoch, VectorClock, WorkCounter

HB = "hb"
SHB = "shb"
MAZ = "maz"
ORDERS = (HB, SHB, MAZ)

CLOCK_KINDS = ("tree", "vector")

# A variable's access log is scanned flat up to this many entries, then
# kept per thread (Engine._count_unordered). Short logs stay flat: kept
# per thread from the first access, which costs a dict and two lists per
# (variable, thread), the seeded r/w trace under shb (k=64, at most 80
# accesses per variable) lost 10-11% of its events/s and gained 6% peak
# RSS. Longer logs count faster per thread: at k=64, 30 variables of
# about 500 accesses took 145-175 ms at 256, 255-350 ms at 512 and
# 310-490 ms flat.
FLAT_LOG_LIMIT = 256


RaceReport = namedtuple("RaceReport", ("kind", "var", "earlier", "later"))
RaceReport.__doc__ = """One reported race: its kind ("write-write" | "write-read" |
"read-write"), the variable, and the Epochs of the earlier and the later
access. An Epoch (tid, clk) names the clk-th event of thread tid, so it
fixes the access's trace position (race_event_indices)."""


class AnalysisRun(namedtuple("AnalysisRun", (
        "po", "clock_kind", "events", "threads", "locks", "vars", "races",
        "counter", "deep_copies", "fresh_copies", "unordered_pairs", "elapsed"))):
    """One finished run, as Engine.record gives it. counter is the run's
    WorkCounter, and vt_work and impl_work read it. deep_copies (the shb
    write-write races, each forcing a deep copy into a last-write clock,
    else 0) and fresh_copies (the variables given a last-write clock by a
    fresh copy at their first write, 0 under hb) are derived by
    Engine.record. unordered_pairs counts the conflicting access pairs
    (same variable, at least one a write) that the order leaves
    unordered: 0 under maz, which keeps no access log because it orders
    every such pair, and None when not counted. elapsed is the seconds
    spent processing events, parsing excluded."""

    __slots__ = ()

    @property
    def vt_work(self):
        return self.counter.vt_work

    @property
    def impl_work(self):
        return self.counter.impl_work


class Engine:
    """One analysis in progress. Feed events in trace order via process(),
    which returns the acting thread's clock: its flatten() is the event's
    timestamp.

    With count_unordered set, the engine counts unordered conflicting
    pairs as it goes (see _count_unordered) in unordered_pairs. Under
    maz that count is 0 without an access log; with count_unordered
    off it is None.

    With debug set, structural invariants are re-verified after every
    clock operation, and every tree copy must take the path the engine
    predicts (slow; metrics.cross_check runs such engines untimed for
    analyze --debug and selfcheck)."""

    def __init__(self, po, thread_count, clock_kind="tree", *, debug=False,
                 count_unordered=True):
        if po not in ORDERS:
            raise ValueError(f"unknown partial order {po!r}")
        if clock_kind not in CLOCK_KINDS:
            raise ValueError(f"unknown clock kind {clock_kind!r}")
        self.po = po
        self.clock_kind = clock_kind
        self.counter = WorkCounter(debug=debug)
        # import treeclock only for a tree run, and read its TreeClock now
        # (a caller may swap in a subclass); bind the class, not self, so
        # the engine holds no cycle
        if clock_kind == "tree":
            from .treeclock import TreeClock as cls
        else:
            cls = VectorClock
        self._aux = partial(cls.aux, thread_count, self.counter)
        self.thread_clocks = [cls.owned(t, thread_count, self.counter)
                              for t in range(thread_count)]
        self.lock_clocks = {}
        self.write_clocks = {}  # var -> clock of the last write (shb/maz)
        self.read_clocks = {}  # (var, tid) -> clock at that thread's last read (maz)
        self.write_epochs = {}  # var -> Epoch of last write
        self.read_epochs = {}  # var -> {tid: clk since last write}, first-read order
        self.races = []
        self.unordered_pairs = 0 if count_unordered else None
        # var -> its accesses so far (see _count_unordered); under maz no
        # pair is unordered, so nothing is logged
        self._access_log = {} if count_unordered and po != MAZ else None

    def process(self, ev):
        t = ev.tid
        C = self.thread_clocks[t]
        C.increment()
        po = self.po
        dst = None  # the clock that receives a copy of C, if any
        deep = False  # whether the engine's state forces a deep copy
        if ev.op == ACQ:
            L = self.lock_clocks.get(ev.target)
            if L is not None:
                C.join(L)
        elif ev.op == REL:
            dst = self.lock_clocks.get(ev.target)
            if dst is None:
                dst = self.lock_clocks[ev.target] = self._aux()
                deep = True
        elif ev.op == READ:
            x = ev.target
            if po != HB:
                lw = self.write_clocks.get(x)
                if lw is not None:
                    C.join(lw)
            self._race_with_last_write("write-read", x, t, C)
            if po == MAZ:
                dst = self.read_clocks.get((x, t))
                if dst is None:
                    dst = self.read_clocks[(x, t)] = self._aux()
                    deep = True
            reads = self.read_epochs.setdefault(x, {})
            reads[t] = C.clk[t]  # re-reads keep the thread's original position
        elif ev.op == WRITE:
            x = ev.target
            lw = self.write_clocks.get(x)
            if po == MAZ:
                rts = self.read_epochs.get(x, ())
                # vt_work counts entries changed per event, not per join:
                # with several join sources one entry may rise twice, so
                # net the tally against before/after snapshots
                multi = (lw is not None) + len(rts) > 1
                if multi:
                    pre = C.flatten()
                    vt0 = self.counter.vt_work
                if lw is not None:
                    C.join(lw)
                for rt in rts:
                    rc = self.read_clocks[(x, rt)]
                    C.join(rc)
                    rc.drop_tree()  # only a copy from rt's clock reads it next
                if multi:
                    net = sum(map(ne, pre, C.flatten()))
                    self.counter.vt_work = vt0 + net
            unordered = self._race_with_last_write("write-write", x, t, C)
            if not unordered:
                for rt, rc in self.read_epochs.get(x, {}).items():
                    if C.clk[rt] < rc:
                        self.races.append(RaceReport(
                            "read-write", x, Epoch(rt, rc), Epoch(t, C.clk[t])))
                        break
            if po != HB:
                # unordered is never set under maz: C has just joined lw
                deep = lw is None or unordered
                if lw is None:
                    lw = self.write_clocks[x] = self._aux()
                dst = lw
            self.write_epochs[x] = Epoch(t, C.clk[t])
            self.read_epochs[x] = {}
        if dst is not None:
            status = dst.copy_check_monotone(C)
            if self.counter.debug and self.clock_kind == "tree":
                expected = "deep" if deep else "monotone"
                if status != expected:
                    # every event increments exactly one thread clock, and
                    # first, so the count so far numbers this event
                    raise AssertionError(
                        f"event {self.counter.increments - 1}: {status} copy "
                        f"where the engine predicts {expected}")
        if self._access_log is not None and (ev.op == READ or ev.op == WRITE):
            self._count_unordered(ev, C)
        return C

    def _race_with_last_write(self, kind, x, t, C):
        """Report a `kind` race if x's last write is not ordered before
        this access (an O(1) epoch test); return whether it reported one."""
        ew = self.write_epochs.get(x)
        if ew is None or C.clk[ew.tid] >= ew.clk:
            return False
        self.races.append(RaceReport(kind, x, ew, Epoch(t, C.clk[t])))
        return True

    def record(self, trace, elapsed=0.0):
        """The AnalysisRun of this engine once it has processed trace;
        elapsed is the caller's timing of that loop, in seconds."""
        return AnalysisRun(
            po=self.po,
            clock_kind=self.clock_kind,
            events=len(trace),
            threads=trace.thread_count,
            locks=trace.lock_count,
            vars=trace.var_count,
            races=self.races,
            counter=self.counter,
            deep_copies=(sum(r.kind == "write-write" for r in self.races)
                         if self.po == SHB else 0),
            fresh_copies=len(self.write_clocks),
            unordered_pairs=self.unordered_pairs,
            elapsed=elapsed,
        )

    def _count_unordered(self, ev, C):
        """Add the prior accesses to ev's variable that conflict with ev
        and that ev's timestamp C leaves unordered, then log ev.

        A prior access (t2, c2) is unordered with ev iff C.clk[t2] < c2
        (C's joins are all done). A log is a flat list of (tid, local
        time, is write), scanned whole, until it passes FLAT_LOG_LIMIT
        entries, a limit set by measurement. It then becomes a dict from
        tid to two ascending lists of local times, of all that thread's
        accesses and of its writes: a read counts against writes, a
        write against every access, one bisect per thread."""
        log = self._access_log.get(ev.target)
        if log is None:
            log = self._access_log[ev.target] = []
        wr = ev.op == WRITE
        clk = C.clk
        entry = (ev.tid, clk[ev.tid], wr)
        if type(log) is list:
            for t2, c2, w2 in log:
                if (w2 or wr) and clk[t2] < c2:
                    self.unordered_pairs += 1
            log.append(entry)
            if len(log) > FLAT_LOG_LIMIT:
                self._access_log[ev.target] = by_thread = {}
                for e in log:
                    _log_by_thread(by_thread, e)
        else:
            n = 0
            which = 0 if wr else 1
            for t2, lists in log.items():
                times = lists[which]
                if times and times[-1] > clk[t2]:
                    n += len(times) - bisect_right(times, clk[t2])
            self.unordered_pairs += n
            _log_by_thread(log, entry)


def _log_by_thread(log, entry):
    """Append an access (tid, local time, is write) to a per-thread log."""
    t, c, wr = entry
    lists = log.get(t)
    if lists is None:
        lists = log[t] = ([], [])
    lists[0].append(c)
    if wr:
        lists[1].append(c)


def run_analysis(trace, po, clock_kind="tree", *, count_unordered=True):
    """Run one analysis over a whole trace and return an AnalysisRun;
    its elapsed times the engine's loop and nothing else.

    Callers that need each event's timestamp or clock state, or the
    debug checks, drive an Engine themselves and take its AnalysisRun
    from Engine.record(trace).
    """
    engine = Engine(po, trace.thread_count, clock_kind,
                    count_unordered=count_unordered)
    t0 = time.perf_counter()
    for ev in trace.events:
        engine.process(ev)
    return engine.record(trace, time.perf_counter() - t0)


def race_event_indices(trace, races):
    """Map race reports to (kind, var, earlier_index, later_index): an
    Epoch (tid, clk) is thread tid's clk-th event, found in a list of
    each thread's trace positions. The brute-force oracle reports races
    in this index form, and analyze --races prints later_index."""
    nth = {}
    for i, ev in enumerate(trace.events):
        nth.setdefault(ev.tid, []).append(i)
    return [(r.kind, r.var, nth[r.earlier.tid][r.earlier.clk - 1],
             nth[r.later.tid][r.later.clk - 1]) for r in races]
