"""Brute-force reference implementations for small traces.

Everything here favors obviousness over speed: partial orders are built as
explicit reachability bitsets from their generating edges, and timestamps
and races are read off those bitsets. The streaming engines
are tested against these, never the other way around. Inputs are capped to
keep the quadratic blowup honest. (The reference for vt_work,
`metrics.vtwork`, is read off `oracle_timestamps` and shares the cap.)
"""

from .analyses import HB, MAZ, ORDERS
from .trace import ACQ, REL, READ, WRITE

ORACLE_MAX_EVENTS = 5000


def _check(trace, po):
    if po not in ORDERS:
        raise ValueError(f"unknown partial order {po!r}")
    if len(trace) > ORACLE_MAX_EVENTS:
        raise ValueError(
            f"oracle is quadratic; refusing {len(trace)} events "
            f"(max {ORACLE_MAX_EVENTS})"
        )


def direct_predecessors(trace, po):
    """For each event, the indices of its generating-edge predecessors.

    All orders include program order (previous event of the same thread)
    and lock order (last release of a lock before each acquire of it).
    SHB and MAZ add last-write -> read edges; MAZ further adds
    write -> next write and read -> next write on the same variable, which
    orders every pair of conflicting accesses.
    """
    _check(trace, po)
    n = len(trace)
    preds = [[] for _ in range(n)]
    last_of_thread = {}
    last_rel = {}
    last_write = {}
    reads_since = {}
    for i, ev in enumerate(trace.events):
        p = preds[i]
        if ev.tid in last_of_thread:
            p.append(last_of_thread[ev.tid])
        last_of_thread[ev.tid] = i
        if ev.op == ACQ:
            if ev.target in last_rel:
                p.append(last_rel[ev.target])
        elif ev.op == REL:
            last_rel[ev.target] = i
        elif ev.op == READ:
            if po != HB and ev.target in last_write:
                p.append(last_write[ev.target])
            reads_since.setdefault(ev.target, []).append(i)
        elif ev.op == WRITE:
            if po == MAZ:
                if ev.target in last_write:
                    p.append(last_write[ev.target])
                p.extend(reads_since.get(ev.target, ()))
            last_write[ev.target] = i
            reads_since[ev.target] = []
    return preds


def reachability(trace, po):
    """reach[i] = bitset of all j with j <=po i (including i itself)."""
    preds = direct_predecessors(trace, po)
    reach = []
    for i, ps in enumerate(preds):
        r = 1 << i
        for p in ps:
            r |= reach[p]
        reach.append(r)
    return reach


def oracle_order(trace, po):
    """Returns leq(i, j): is event i ordered before-or-equal to event j?"""
    reach = reachability(trace, po)

    def leq(i, j):
        return i <= j and bool((reach[j] >> i) & 1)

    return leq


def oracle_timestamps(trace, po):
    """Vector timestamp of every event: entry t counts the events of
    thread t ordered at-or-before it. Matches what a streaming engine's
    per-thread clock shows right after processing the event."""
    reach = reachability(trace, po)
    masks = [0] * trace.thread_count
    for i, ev in enumerate(trace.events):
        masks[ev.tid] |= 1 << i
    return [tuple((r & m).bit_count() for m in masks) for r in reach]


def oracle_races(trace, po):
    """Race reports as (kind, var, earlier_index, later_index).

    Mirrors the engines' reporting discipline: at most one report per
    (variable, later access). A read is checked against the last write; a
    write is checked against the last write first (a "write-write" report
    wins), otherwise against the reads since that write, reporting the
    first unordered one in first-reader order. Kinds name the earlier
    event first: "write-read" means an earlier write races a later read.
    """
    leq = oracle_order(trace, po)
    races = []
    last_write = {}
    reads_since = {}
    for i, ev in enumerate(trace.events):
        x = ev.target
        if ev.op == READ:
            w = last_write.get(x)
            if w is not None and not leq(w, i):
                races.append(("write-read", x, w, i))
            rs = reads_since.setdefault(x, {})
            rs[ev.tid] = i  # re-reads keep the thread's original position
        elif ev.op == WRITE:
            w = last_write.get(x)
            if w is not None and not leq(w, i):
                races.append(("write-write", x, w, i))
            else:
                for r in reads_since.get(x, {}).values():
                    if not leq(r, i):
                        races.append(("read-write", x, r, i))
                        break
            last_write[x] = i
            reads_since[x] = {}
    return races
