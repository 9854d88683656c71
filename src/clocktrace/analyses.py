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
  The same checks run but, by construction, nothing ever fires.

Race checks follow the epoch discipline: one (thread, clock) pair per
variable for the last write, one per reader thread since that write. At
most one race is reported per (variable, later access): write-write takes
priority, then the first unordered reader in first-read order. Race kinds
name the earlier access first ("write-read" = earlier write, later read).
"""

import time
from dataclasses import dataclass
from functools import partial
from operator import ne

from .trace import ACQ, REL, READ, WRITE, Trace
from .vclock import Epoch, VectorClock, WorkCounter
from .treeclock import TreeClock

HB = "hb"
SHB = "shb"
MAZ = "maz"
ORDERS = (HB, SHB, MAZ)

CLOCK_KINDS = ("tree", "vector")


@dataclass(frozen=True)
class RaceReport:
    kind: str  # "write-write" | "write-read" | "read-write"
    var: int
    earlier: Epoch
    later: Epoch
    index: int  # position of the later access in the trace


@dataclass
class AnalysisRun:
    po: str
    clock_kind: str
    events: int
    threads: int
    locks: int
    vars: int
    races: list
    counter: WorkCounter
    # shb writes unordered with the last write: each races it and forces a
    # deep copy into the last-write clock (0 under hb and maz)
    deep_copies: int
    fresh_copies: int  # first write to a variable (empty target)
    unordered_pairs: int | None
    elapsed: float  # seconds spent processing events (parsing excluded)

    @property
    def vt_work(self):
        return self.counter.vt_work

    @property
    def impl_work(self):
        return self.counter.impl_work


class Engine:
    """One analysis in progress. Feed events in trace order via process(),
    which returns the acting thread's clock: its flatten() is the event's
    timestamp."""

    def __init__(self, po, thread_count, clock_kind="tree", *, debug=False,
                 count_unordered=True):
        if po not in ORDERS:
            raise ValueError(f"unknown partial order {po!r}")
        if clock_kind not in CLOCK_KINDS:
            raise ValueError(f"unknown clock kind {clock_kind!r}")
        self.po = po
        self.clock_kind = clock_kind
        self.counter = WorkCounter(debug=debug)
        # read the class from the module globals now (a caller may swap in
        # a subclass); bind it, not self, so the engine holds no cycle
        cls = TreeClock if clock_kind == "tree" else VectorClock
        self._aux = partial(cls.aux, thread_count, self.counter)
        self.thread_clocks = [cls.owned(t, thread_count, self.counter)
                              for t in range(thread_count)]
        self.lock_clocks = {}
        self.write_clocks = {}  # var -> clock of the last write (shb/maz)
        self.read_clocks = {}  # (var, tid) -> clock at that thread's last read (maz)
        self.write_epochs = {}  # var -> Epoch of last write
        self.read_epochs = {}  # var -> {tid: clk since last write}, first-read order
        self.races = []
        self.deep_copies = 0
        self.fresh_copies = 0
        self.unordered_pairs = 0 if count_unordered else None
        self._access_log = {} if count_unordered else None
        self.index = 0

    def process(self, ev):
        i = self.index
        self.index = i + 1
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
            self._race_with_last_write("write-read", x, t, C, i)
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
                    C.join(self.read_clocks[(x, rt)])
                if multi:
                    net = sum(map(ne, pre, C.flatten()))
                    self.counter.vt_work = vt0 + net
            unordered = self._race_with_last_write("write-write", x, t, C, i)
            if not unordered:
                for rt, rc in self.read_epochs.get(x, {}).items():
                    if C.clk[rt] < rc:
                        self.races.append(RaceReport(
                            "read-write", x, Epoch(rt, rc), Epoch(t, C.clk[t]), i))
                        break
            if po != HB:
                if lw is None:
                    lw = self.write_clocks[x] = self._aux()
                    self.fresh_copies += 1
                    deep = True
                elif unordered:  # never under maz: C has just joined lw
                    self.deep_copies += 1
                    deep = True
                dst = lw
            self.write_epochs[x] = Epoch(t, C.clk[t])
            self.read_epochs[x] = {}
        if dst is not None:
            status = dst.copy_check_monotone(C)
            if self.counter.debug and self.clock_kind == "tree":
                expected = "deep" if deep else "monotone"
                if status != expected:
                    raise AssertionError(
                        f"event {i}: {status} copy where the engine predicts {expected}")
        if self._access_log is not None and (ev.op == READ or ev.op == WRITE):
            self._count_unordered(ev, C)
        return C

    def _race_with_last_write(self, kind, x, t, C, i):
        """Report a `kind` race if x's last write is not ordered before
        this access (an O(1) epoch test); return whether it reported one."""
        ew = self.write_epochs.get(x)
        if ew is None or C.clk[ew.tid] >= ew.clk:
            return False
        self.races.append(RaceReport(kind, x, ew, Epoch(t, C.clk[t]), i))
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
            deep_copies=self.deep_copies,
            fresh_copies=self.fresh_copies,
            unordered_pairs=self.unordered_pairs,
            elapsed=elapsed,
        )

    def _count_unordered(self, ev, C):
        # a prior access (t2, c2) is ordered before this event iff this
        # event's timestamp covers t2 through c2 (its joins are all done)
        log = self._access_log.setdefault(ev.target, [])
        wr = ev.op == WRITE
        clk = C.clk
        for t2, c2, w2 in log:
            if (w2 or wr) and clk[t2] < c2:
                self.unordered_pairs += 1
        log.append((ev.tid, clk[ev.tid], wr))


def run_analysis(trace, po, clock_kind="tree", *, debug=False,
                 count_unordered=True):
    """Run one analysis over a whole trace and return an AnalysisRun.

    With debug set, structural invariants are re-verified after every
    clock operation, and every tree copy must take the path the engine
    predicts (slow; for tests). Callers that need each event's
    timestamp or clock state drive an Engine themselves and take its
    AnalysisRun from Engine.record(trace).
    """
    engine = Engine(po, trace.thread_count, clock_kind, debug=debug,
                    count_unordered=count_unordered)
    t0 = time.perf_counter()
    for ev in trace.events:
        engine.process(ev)
    return engine.record(trace, time.perf_counter() - t0)


def race_event_indices(trace, races):
    """Map race reports to (kind, var, earlier_index, later_index) using
    each thread's event positions; the brute-force oracle reports races
    in this index form."""
    nth = {}
    for i, ev in enumerate(trace.events):
        nth.setdefault(ev.tid, []).append(i)
    return [(r.kind, r.var, nth[r.earlier.tid][r.earlier.clk - 1], r.index)
            for r in races]
