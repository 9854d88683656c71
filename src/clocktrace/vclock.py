"""Vector times and vector clocks.

A vector time over k threads is a length-k tuple/list of ints ordered
pointwise; join is the pointwise max. ``VectorClock`` is the mutable clock
used by the analysis engines: a dense int list. A join or copy whose two
clocks differ at most in the acting thread's entry (the target's owner
for a join, the source's owner for a copy) is one C-level list
comparison plus that one entry; any other join or copy is entrywise.
Every clock, of either kind, is built with the ``WorkCounter`` of its
run, and each increment, join and copy tallies into it, so a run can
report how many entries its operations touched and changed.
"""

from collections import namedtuple
from operator import ne


class ClockContractError(Exception):
    """An operation was called outside its contract (e.g. a join whose
    source is ahead on the target's own root thread)."""


Epoch = namedtuple("Epoch", ("tid", "clk"))
Epoch.__doc__ = "A single (thread, local clock) component, enough to identify one event."


# --- pure vector-time helpers -------------------------------------------

def vt_leq(a, b):
    """Pointwise <= on two equal-length vector times."""
    return all(x <= y for x, y in zip(a, b))


class WorkCounter:
    """Tallies work done by clock operations during one analysis run.

    Every clock takes its run's counter when it is built (the argument is
    required), and every increment, join and copy it performs is counted.
    vt_work counts entries whose value actually changed (implementation
    independent); impl_work counts what the specific structure touched:
    k per vector join/copy, nodes examined/moved for tree clocks, and 1
    per increment for both. With debug set, tree clocks re-check their
    structural invariants after every mutation and the soundness of
    their O(1) copy-path test.
    """

    __slots__ = ("vt_work", "impl_work", "joins", "copies", "increments", "debug")

    def __init__(self, debug=False):
        self.vt_work = 0
        self.impl_work = 0
        self.joins = 0
        self.copies = 0
        self.increments = 0
        self.debug = debug


class VectorClock:
    __slots__ = ("clk", "owner", "counter")

    def __init__(self, size, counter, owner=None):
        self.clk = [0] * size
        self.owner = owner
        self.counter = counter

    @classmethod
    def owned(cls, tid, size, counter):
        return cls(size, counter, owner=tid)

    @classmethod
    def aux(cls, size, counter):
        return cls(size, counter)

    def increment(self, amount=1):
        if self.owner is None:
            raise ClockContractError("increment on a clock with no owning thread")
        self.clk[self.owner] += amount
        c = self.counter
        c.increments += 1
        c.impl_work += 1
        if amount:
            c.vt_work += 1

    def join(self, src):
        """self <- self max src. When the two agree on every entry but
        self's owner's, one C-level list comparison finds that and only
        that entry is updated; any other join runs entry by entry. Both
        count k to impl_work, since the comparison reads all k entries."""
        mine, theirs = self.clk, src.clk
        c = self.counter
        c.joins += 1
        c.impl_work += len(mine)
        t = self.owner
        if t is not None:
            old, new = mine[t], theirs[t]
            mine[t] = new
            if mine == theirs:  # stops at the first entry that differs
                if new > old:
                    c.vt_work += 1
                else:
                    mine[t] = old
                return
            mine[t] = old
        changed = 0
        for i, v in enumerate(theirs):
            if v > mine[i]:
                mine[i] = v
                changed += 1
        c.vt_work += changed

    def copy_check_monotone(self, src):
        """self <- src. When the two agree on every entry but src's owner's,
        one C-level list comparison finds that and only that entry is
        written; any other copy is diffed and copied entrywise at C speed.
        Both count k to impl_work. Vector clocks have no cheaper monotone
        path, so the return value mirrors the tree clock API and never
        reports a deep rebuild."""
        mine, theirs = self.clk, src.clk
        c = self.counter
        c.copies += 1
        c.impl_work += len(mine)
        t = src.owner
        if t is not None:
            old = mine[t]
            mine[t] = theirs[t]
            if mine == theirs:  # stops at the first entry that differs
                if old != mine[t]:
                    c.vt_work += 1
                return "monotone"
            mine[t] = old
        c.vt_work += sum(map(ne, mine, theirs))
        mine[:] = theirs
        return "monotone"

    def drop_tree(self):
        """A vector has no tree to drop (see TreeClock.drop_tree)."""

    def flatten(self):
        return tuple(self.clk)

    def __repr__(self):
        return f"VectorClock({self.clk!r}, owner={self.owner!r})"
