"""Tests for the tree clock structure.

Covers hand-built trees (display order, integrity, flatten, dump),
differential runs against vector clock mirrors, the join early exit and
its contract error, the copy operation and the path it takes, the
learned-edge invariant that justifies pruning, and the pruning soundness
checker itself.
"""

import hashlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import each_event

from clocktrace import analyses
from clocktrace.analyses import HB, MAZ, SHB, run_analysis
from clocktrace.trace import ACQ
from clocktrace.tracegen import GenSpec, SplitMix64, generate, random_trace
from clocktrace.treeclock import BOT, NIL, Entries, TreeClock
from clocktrace.vclock import ClockContractError, VectorClock, WorkCounter, vt_leq
from oracles import pruning_violations

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(k, spec):
    """White-box constructor: spec is (tid, clk, aclk, [children]) with
    children given in display (most recently attached first) order."""
    tc = TreeClock.owned(spec[0], k, WorkCounter())
    tc.clk = [0] * k
    tc.aclk = [BOT] * k
    tc.parent, tc.head, tc.nxt, tc.prv = ([NIL] * k for _ in range(4))

    def place(node):
        """Set the node's fields and link its subtree; returns its size."""
        tid, clk, aclk, kids = node
        tc.clk[tid] = clk
        tc.aclk[tid] = aclk
        tc.head[tid] = kids[0][0] if kids else NIL
        size = 1
        for i, kid in enumerate(kids):
            size += place(kid)
            tc.parent[kid[0]] = tid
            tc.prv[kid[0]] = kids[i - 1][0] if i else NIL
            tc.nxt[kid[0]] = kids[i + 1][0] if i + 1 < len(kids) else NIL
        return size

    tc.nodes = place(spec)
    return tc


# Two four-thread trees with the same root but different histories: in the
# first, thread 3 learned of threads 2 and 1 separately; in the second it
# learned everything through thread 2.
TREE_A = (3, 2, BOT, [(2, 2, 2, []), (1, 2, 1, [(0, 1, 1, [])])])
TREE_B = (3, 2, BOT, [(2, 3, 2, [(1, 1, 2, []), (0, 1, 1, [])])])

TREE_A_FLAT = (1, 2, 2, 2)
TREE_B_FLAT = (1, 1, 3, 2)

TREE_A_DUMP = (
    "tid=3 clk=2 aclk=⊥\n"
    "  tid=2 clk=2 aclk=2\n"
    "  tid=1 clk=2 aclk=1\n"
    "    tid=0 clk=1 aclk=1\n"
)
TREE_B_DUMP = (
    "tid=3 clk=2 aclk=⊥\n"
    "  tid=2 clk=3 aclk=2\n"
    "    tid=1 clk=1 aclk=2\n"
    "    tid=0 clk=1 aclk=1\n"
)


class TestHandBuiltTrees:
    def test_flatten(self):
        assert build(4, TREE_A).flatten() == TREE_A_FLAT
        assert build(4, TREE_B).flatten() == TREE_B_FLAT

    def test_dump(self):
        assert build(4, TREE_A).dump() == TREE_A_DUMP
        assert build(4, TREE_B).dump() == TREE_B_DUMP

    def test_integrity(self):
        build(4, TREE_A).check_integrity()
        build(4, TREE_B).check_integrity()

    def test_get(self):
        a = build(4, TREE_A)
        assert [a.clk[t] for t in range(4)] == [1, 2, 2, 2]

    def test_incomparable(self):
        a, b = build(4, TREE_A), build(4, TREE_B)
        assert not vt_leq(a.flatten(), b.flatten())
        assert not vt_leq(b.flatten(), a.flatten())

    def test_leq_reflexive(self):
        a = build(4, TREE_A)
        assert vt_leq(a.flatten(), a.flatten())
        assert vt_leq(a.flatten(), build(4, TREE_A).flatten())
        assert vt_leq(build(4, TREE_A).flatten(), a.flatten())


class TestBasics:
    def test_owned_starts_at_zero(self):
        t = TreeClock.owned(2, 5, WorkCounter())
        assert t.root != NIL
        assert t.root == 2
        assert t.flatten() == (0, 0, 0, 0, 0)

    @pytest.mark.parametrize("cls", [TreeClock, VectorClock])
    def test_clocks_require_a_counter(self, cls):
        with pytest.raises(TypeError):
            cls.owned(0, 3)
        with pytest.raises(TypeError):
            cls.aux(3)
        with pytest.raises(TypeError):
            cls(3, owner=0)
        # both keyword names stay usable, as subclasses call them
        c = WorkCounter()
        cls(3, owner=0, counter=c).increment()
        assert c.increments == 1
        assert cls(3, counter=c).counter is c

    def test_aux_starts_empty(self):
        l = TreeClock.aux(3, WorkCounter())
        assert l.root == NIL
        assert l.dump() == "(empty)\n"
        assert l.flatten() == (0, 0, 0)
        assert l.clk[0] == 0
        l.check_integrity()

    def test_empty_leq_anything(self):
        c = WorkCounter()
        l = TreeClock.aux(3, c)
        t = TreeClock.owned(0, 3, c)
        assert vt_leq(l.flatten(), t.flatten())
        assert vt_leq(l.flatten(), TreeClock.aux(3, c).flatten())
        t.increment()
        assert not vt_leq(t.flatten(), l.flatten())

    def test_empty_aux_holds_no_link_arrays(self):
        l = TreeClock.aux(4, WorkCounter())
        assert l.nodes == 0
        assert (l.aclk, l.parent, l.head, l.nxt, l.prv) == (None,) * 5
        assert [l.clk[t] for t in range(4)] == [0, 0, 0, 0]
        assert repr(l) == "TreeClock(root=-1, [0, 0, 0, 0])"

    def test_first_copy_does_not_alias_the_source(self):
        c = WorkCounter(debug=True)
        a = TreeClock.owned(0, 4, c)
        b = TreeClock.owned(1, 4, c)
        lk = TreeClock.aux(4, c)
        b.increment()
        lk.copy_check_monotone(b)
        a.increment()
        a.join(lk)
        target = TreeClock.aux(4, c)
        assert target.copy_check_monotone(a) == "deep"
        flat, shape = target.flatten(), target.dump()
        assert flat == (1, 1, 0, 0)
        # every array of the source moves on: its root entry, a new child,
        # and a reordered child list
        a.increment()
        b.increment()
        lk.copy_check_monotone(b)
        a.join(lk)
        d = TreeClock.owned(2, 4, c)
        d.increment()
        a.join(d)
        assert a.flatten() == (2, 2, 1, 0)
        assert target.flatten() == flat
        assert target.dump() == shape
        target.check_integrity()

    def test_copy_from_empty_source_raises(self):
        c = WorkCounter()
        t = TreeClock.owned(0, 3, c)
        for target in (TreeClock.aux(3, c), t):
            with pytest.raises(ClockContractError):
                target.copy_check_monotone(TreeClock.aux(3, c))

    def test_increment_empty_raises(self):
        with pytest.raises(ClockContractError):
            TreeClock.aux(3, WorkCounter()).increment()

    def test_increment(self):
        c = WorkCounter()
        t = TreeClock.owned(1, 3, c)
        t.increment()
        t.increment()
        assert t.flatten() == (0, 2, 0)
        assert c.increments == 2
        assert c.impl_work == 2
        assert c.vt_work == 2  # one entry changed per increment event


class TestInvariants:
    """check_integrity asserts the layout the fast paths rely on: absent
    threads read clk 0 and hold no links, and nodes counts the tree."""

    def test_absent_entries_are_zero_on_every_clock(self):
        trace = random_trace(17, events=150, threads=5, locks=3, variables=3)

        def check(i, ev, engine):
            clocks = list(engine.thread_clocks) + list(engine.lock_clocks.values()) \
                + list(engine.write_clocks.values()) + list(engine.read_clocks.values())
            for clock in clocks:
                present = set(walk_nodes(clock))
                assert clock.nodes == len(present)
                if clock.head is None:
                    assert clock.nodes <= 1
                for t in range(clock.k):
                    if t not in present:
                        assert clock.clk[t] == 0
                        assert clock.flatten()[t] == 0

        for po in (HB, SHB, MAZ):
            for i, ev, engine in each_event(trace, po, debug=True):
                check(i, ev, engine)

    def test_nonzero_absent_entry_is_caught(self):
        a = build(5, TREE_A)
        a.check_integrity()
        a.clk[4] = 1
        with pytest.raises(AssertionError, match="absent thread 4"):
            a.check_integrity()

    def test_wrong_node_count_is_caught(self):
        a = build(4, TREE_A)
        a.nodes += 1
        with pytest.raises(AssertionError, match="counted"):
            a.check_integrity()
        l = TreeClock.aux(3, WorkCounter())
        l.nodes = 1
        with pytest.raises(AssertionError, match="empty clock"):
            l.check_integrity()
        o = TreeClock.owned(0, 3, WorkCounter())
        o.nodes = 2
        with pytest.raises(AssertionError, match="counted"):
            o.check_integrity()

    def test_sparse_form_iff_no_link_arrays(self):
        """clk is an Entries mapping exactly when the link arrays are None,
        and then stores the root's key alone (no key when empty)."""
        c = WorkCounter()
        o = TreeClock.owned(0, 3, c)
        o.clk[1] = 0  # a second key, even a zero one
        with pytest.raises(AssertionError, match="stores keys"):
            o.check_integrity()
        e = TreeClock.aux(3, c)
        e.clk[0] = 0
        with pytest.raises(AssertionError, match="stores keys"):
            e.check_integrity()
        o = TreeClock.owned(0, 3, c)
        o.head = [NIL] * 3
        with pytest.raises(AssertionError, match="holds link arrays"):
            o.check_integrity()
        o = TreeClock.owned(0, 3, c)
        o.clk = [0] * 3  # a dense clk without link arrays
        with pytest.raises(AssertionError, match="lacks link arrays"):
            o.check_integrity()
        a = build(4, TREE_A)
        a.clk = Entries(enumerate(a.clk))  # linked, but stored sparse
        with pytest.raises(AssertionError, match="holds link arrays"):
            a.check_integrity()


class TestLinkArrays:
    """A clock allocates its clk list and five link arrays only when it
    first links a second node; until then it stores its one entry."""

    @staticmethod
    def links(tc):
        return (tc.aclk, tc.parent, tc.head, tc.nxt, tc.prv)

    def test_root_only_clocks_and_their_copies_hold_none(self):
        c = WorkCounter(debug=True)
        a = TreeClock.owned(0, 4, c)
        assert self.links(a) == (None,) * 5
        assert a.nodes == 1
        assert a.dump() == "tid=0 clk=0 aclk=⊥\n"
        a.check_integrity()
        a.increment()
        lk = TreeClock.aux(4, c)
        assert lk.copy_check_monotone(a) == "deep"
        assert self.links(lk) == (None,) * 5
        assert lk.dump() == "tid=0 clk=1 aclk=⊥\n"
        # the same root again: a one-entry monotone copy, counted as a
        # two-pass copy of one node would be
        a.increment()
        w0, vt0 = c.impl_work, c.vt_work
        assert lk.copy_check_monotone(a) == "monotone"
        assert (c.impl_work, c.vt_work) == (w0 + 2, vt0 + 1)
        assert self.links(lk) == (None,) * 5
        assert lk.flatten() == (2, 0, 0, 0)
        w0 = c.impl_work
        assert lk.copy_check_monotone(a) == "monotone"
        assert (c.impl_work, c.vt_work) == (w0 + 2, vt0 + 1)

    def test_first_linking_join_allocates_them(self):
        c = WorkCounter(debug=True)
        a = TreeClock.owned(0, 4, c)
        b = TreeClock.owned(1, 4, c)
        a.increment()
        a.join(b)  # b is at time 0: early exit, nothing linked
        assert self.links(a) == (None,) * 5
        b.increment()
        a.join(b)
        assert None not in self.links(a)
        assert a.nodes == 2
        assert a.dump() == "tid=0 clk=1 aclk=⊥\n  tid=1 clk=1 aclk=1\n"
        a.check_integrity()
        # a deep copy from a root-only source drops them again
        d = TreeClock.owned(2, 4, c)
        d.increment()
        assert a.copy_check_monotone(d) == "deep"
        assert self.links(a) == (None,) * 5
        assert a.nodes == 1
        assert a.flatten() == (0, 0, 1, 0)

    def test_empty_clocks_store_no_entry(self):
        c = WorkCounter(debug=True)
        e1, e2 = TreeClock.aux(4, c), TreeClock.aux(4, c)
        assert dict(e1.clk) == {} and e1.clk is not e2.clk
        assert e1.flatten() == (0, 0, 0, 0)
        a = TreeClock.owned(1, 4, c)
        a.increment()
        assert e1.copy_check_monotone(a) == "deep"
        assert e1.flatten() == (0, 1, 0, 0)
        assert dict(e1.clk) == {1: 1} and e1.clk is not a.clk
        # e2 still stores nothing and reads all zeros
        assert dict(e2.clk) == {}
        assert e2.flatten() == (0, 0, 0, 0)
        assert e2.dump() == "(empty)\n"
        e2.check_integrity()

    @pytest.mark.parametrize("debug", [False, True])
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_star_relay_links_two_clocks_per_server_acquire(self, seed, debug):
        # A client's clock and its lock's clock hold one node each until
        # the server (thread 0) relays through that lock: the server's
        # release links the lock's clock, and the client's next acquire
        # links the client's. The server's own clock is the one other.
        k = 256
        trace = generate(GenSpec("star", k, 8000, seed=seed, star_style="relay"))
        engine = None
        for _, _, engine in each_event(trace, HB, debug=debug):
            pass
        clocks = engine.thread_clocks + list(engine.lock_clocks.values())
        assert len(clocks) == 2 * k - 1
        linked = sum(clock.head is not None for clock in clocks)
        server_acquires = sum(ev.tid == 0 and ev.op == ACQ
                              for ev in trace.events)
        assert 1 <= linked <= 1 + 2 * server_acquires

    @pytest.mark.parametrize("name,po", [
        ("star-relay", HB),
        ("random", MAZ),  # write and reader clocks too
    ])
    def test_only_linked_clocks_are_dense(self, name, po, monkeypatch):
        # every clock the engine builds, kept by a subclass it builds
        # instead: a clock holds a k-list exactly when it holds two nodes
        built = []

        class Kept(TreeClock):
            __slots__ = ()

            def __init__(self, size, counter, owner=NIL):
                super().__init__(size, counter, owner)
                built.append(self)

        trace = STORAGE_TRACES[name]()
        monkeypatch.setattr(analyses, "TreeClock", Kept)
        run_analysis(trace, po, "tree", debug=True)
        dense = [clock for clock in built if type(clock.clk) is list]
        assert len(dense) == sum(clock.nodes >= 2 for clock in built)
        assert all(clock.nodes >= 2 for clock in dense)
        for clock in built:
            if type(clock.clk) is not list:
                keys = [] if clock.root == NIL else [clock.root]
                assert list(clock.clk) == keys
        assert 0 < len(dense) < len(built)

    def test_deep_copies_share_links_on_a_seeded_rw_trace(self, monkeypatch):
        # the benchmark's r/w generator under maz, where most copies are
        # deep copies of a dense thread clock: the copies share that
        # clock's link arrays, 578 sets among 1238 dense clocks (1238
        # with a private set each)
        monkeypatch.syspath_prepend(os.path.join(ROOT, "benchmark"))
        from rwgen import RWSpec, generate_rw

        trace = generate_rw(RWSpec(events=2000), 0)
        engine = None
        for _, _, engine in each_event(trace, MAZ, debug=True):
            pass
        clocks = (engine.thread_clocks + list(engine.lock_clocks.values())
                  + list(engine.write_clocks.values())
                  + list(engine.read_clocks.values()))
        dense = [clock for clock in clocks if clock.head is not None]
        assert len(dense) == 1238
        assert len({id(clock.head) for clock in dense}) == 578
        holders = {}
        for clock in dense:
            for array in self.links(clock):
                holders.setdefault(id(array), []).append(clock)
        for group in holders.values():
            if len(group) > 1:
                assert all(clock.shared for clock in group)
        assert len({id(clock.clk) for clock in clocks}) == len(clocks)

    @pytest.mark.parametrize("seed", range(4))
    def test_storage_transitions_match_vector_clocks(self, seed):
        """A seeded script of increments, joins and copies over paired
        tree and vector clocks crosses every change of storage form; after
        each step the two kinds agree entry by entry and on vt_work."""
        k = 5
        rng = SplitMix64(seed)
        tcnt, vcnt = WorkCounter(debug=True), WorkCounter()
        # threads 0..k-1 own a clock; clocks k..2k-1 are aux (lock-like)
        trees = [TreeClock.owned(t, k, tcnt) for t in range(k)] \
            + [TreeClock.aux(k, tcnt) for _ in range(k)]
        vecs = [VectorClock.owned(t, k, vcnt) for t in range(k)] \
            + [VectorClock.aux(k, vcnt) for _ in range(k)]

        def form(clock):
            if clock.root == NIL:
                return "empty"
            return "root-only" if clock.head is None else "dense"

        for t in range(k):  # every root time is at least 1, as in the engine
            trees[t].increment()
            vecs[t].increment()
        crossed = set()
        for _ in range(400):
            op, dst, src = rng.below(8), rng.below(k), rng.below(2 * k)
            if op <= 3:
                trees[dst].increment()
                vecs[dst].increment()
            if op == 3:  # an acquire: a thread steps, then joins
                before = form(trees[dst])
                trees[dst].join(trees[src])
                vecs[dst].join(vecs[src])
                crossed.add((before, form(trees[dst])))
            elif op > 3 and trees[src].root != NIL:  # publish into an aux clock
                dst += k
                before = form(trees[dst])
                fast = (before == form(trees[src]) == "root-only"
                        and trees[dst].root == trees[src].root)
                status = trees[dst].copy_check_monotone(trees[src])
                vecs[dst].copy_check_monotone(vecs[src])
                if fast and status == "monotone":
                    crossed.add("root-only monotone")
                crossed.add((before, form(trees[dst])))
            for tree, vec in zip(trees, vecs):
                assert tree.flatten() == vec.flatten()
            assert tcnt.vt_work == vcnt.vt_work
        assert crossed >= {("empty", "root-only"), ("root-only", "dense"),
                           ("dense", "root-only"), "root-only monotone"}

    @pytest.mark.parametrize("seed", range(4))
    def test_shared_links_match_eager_copies(self, seed):
        """A seeded script deep-copies dense clocks into several aux clocks
        and relinks sources and copies in random order. It runs on tree
        clocks that share link arrays after a deep copy and on tree clocks
        that slice them at once; after each step the two sets agree in
        shape and counters, and both agree with vector clocks."""

        class Eager(TreeClock):
            __slots__ = ()

            def _become_copy_of(self, src):
                super()._become_copy_of(src)
                if self.head is not None:
                    self.aclk, self.parent, self.head, self.nxt, self.prv = (
                        self.aclk[:], self.parent[:], self.head[:],
                        self.nxt[:], self.prv[:])
                    self.shared = src.shared = False

        k, naux = 5, 4
        rng = SplitMix64(seed)
        ccnt, ecnt, vcnt = (WorkCounter(debug=True), WorkCounter(debug=True),
                            WorkCounter())
        # threads 0..k-1 own a clock; clocks k.. are aux (lock-like)
        sets = [
            [cls.owned(t, k, cnt) for t in range(k)]
            + [cls.aux(k, cnt) for _ in range(naux)]
            for cls, cnt in ((TreeClock, ccnt), (Eager, ecnt),
                             (VectorClock, vcnt))
        ]
        cow, eager, vecs = sets
        for t in range(k):
            for clocks in sets:
                clocks[t].increment()
        relinked = set()
        for _ in range(600):
            op, src = rng.below(8), rng.below(k + naux)
            dst = rng.below(k) if op <= 4 else k + rng.below(naux)
            if op >= 5 and (src == dst or cow[src].root == NIL):
                continue
            head = cow[dst].head
            holders = sum(c.head is head for c in cow) if head else 0
            for clocks in sets:
                if op <= 4:
                    clocks[dst].increment()
                if op == 3 or op == 4:  # an acquire: a step, then a join
                    clocks[dst].join(clocks[src])
                elif op >= 5:  # publish into an aux clock
                    status = clocks[dst].copy_check_monotone(clocks[src])
            if holders > 1 and cow[dst].head is not head and (
                    op in (3, 4) or status == "monotone"):
                relinked.add("thread" if dst < k else "aux")
            for a, b, v in zip(cow, eager, vecs):
                assert a.dump() == b.dump()
                assert a.flatten() == b.flatten() == v.flatten()
            assert ccnt.vt_work == ecnt.vt_work == vcnt.vt_work
            assert ccnt.impl_work == ecnt.impl_work
            for clock in cow:
                clock.check_integrity()
            for i, a in enumerate(cow):  # the sharing invariant
                for b in cow[i + 1:]:
                    assert a.clk is not b.clk
                    if a.head is not None and a.head is b.head:
                        assert a.shared and b.shared
        # both a source and a copy relinked while still sharing
        assert relinked == {"thread", "aux"}


STORAGE_TRACES = {
    "star-relay": lambda: generate(
        GenSpec("star", 256, 8000, seed=3, star_style="relay")),
    "random": lambda: random_trace(9, events=300, threads=24, locks=3,
                                   variables=6),
}


SHAPE_TRACES = {
    "star-relay": lambda: generate(
        GenSpec("star", 16, 1200, seed=5, star_style="relay")),
    "single-lock": lambda: generate(GenSpec("single_lock", 12, 1200, seed=5)),
    "random": lambda: random_trace(5, events=1000, threads=6, locks=3, variables=4),
}

# sha256 prefixes of every clock's dump() after every event; any change to
# sibling order, attachment times or placement moves them
SHAPE_DIGESTS = {
    ("star-relay", HB): "1e0fd3018054df72",
    ("star-relay", SHB): "1e0fd3018054df72",
    ("star-relay", MAZ): "1e0fd3018054df72",
    ("single-lock", HB): "68f10d8aafbba414",
    ("single-lock", SHB): "68f10d8aafbba414",
    ("single-lock", MAZ): "68f10d8aafbba414",
    ("random", HB): "fde050ec5eac4168",
    ("random", SHB): "aa6a4bc6bbff9c1e",
    ("random", MAZ): "1fa4a90fc5cbc108",
}


@pytest.mark.parametrize("name,po", sorted(SHAPE_DIGESTS))
def test_tree_shapes_are_pinned(name, po):
    """Differential tests compare flattened values only; sibling order is
    invisible to them yet decides later pruning and impl_work. Pin the
    full shape of every thread, lock, write and reader clock."""
    h = hashlib.sha256()

    def digest(i, ev, engine):
        for t, clock in enumerate(engine.thread_clocks):
            h.update(f"t{t}\n{clock.dump()}".encode())
        for tag, clocks in (("l", engine.lock_clocks), ("w", engine.write_clocks),
                            ("r", engine.read_clocks)):
            for key in sorted(clocks):
                h.update(f"{tag}{key}\n{clocks[key].dump()}".encode())

    for i, ev, engine in each_event(SHAPE_TRACES[name](), po):
        digest(i, ev, engine)
    assert h.hexdigest()[:16] == SHAPE_DIGESTS[name, po]


class TestJoin:
    def _lock_snapshot(self, k, counter):
        """An owned clock at time 1 published through an aux clock."""
        a = TreeClock.owned(0, k, counter)
        a.increment()
        l = TreeClock.aux(k, counter)
        l.copy_check_monotone(a)
        return a, l

    def test_join_brings_new_subtree(self):
        c = WorkCounter()
        a, l = self._lock_snapshot(4, c)
        b = TreeClock.owned(1, 4, c)
        b.increment()
        b.join(l)
        assert b.flatten() == (1, 1, 0, 0)
        b.check_integrity()
        assert b.dump() == (
            "tid=1 clk=1 aclk=⊥\n"
            "  tid=0 clk=1 aclk=1\n"
        )

    def test_join_early_exit_is_constant_and_silent(self):
        c = WorkCounter()
        _, l = self._lock_snapshot(4, c)
        b = TreeClock.owned(1, 4, c)
        b.increment()
        b.join(l)
        before = b.dump()
        w0, vt0 = c.impl_work, c.vt_work
        b.join(l)  # nothing new: root of l already known
        assert c.impl_work == w0 + 1
        assert c.vt_work == vt0
        assert b.dump() == before

    def test_join_empty_source_is_noop(self):
        c = WorkCounter()
        b = TreeClock.owned(1, 3, c)
        b.increment()
        before = b.dump()
        b.join(TreeClock.aux(3, c))
        assert b.dump() == before

    def test_join_source_ahead_on_own_thread_raises(self):
        c = WorkCounter()
        a = TreeClock.owned(0, 3, c)
        a.increment()
        a.increment()
        l = TreeClock.aux(3, c)
        l.copy_check_monotone(a)
        fresh = TreeClock.owned(0, 3, c)
        fresh.increment()  # at time 1, but l claims thread 0 reached 2
        with pytest.raises(ClockContractError):
            fresh.join(l)


class TestMonotoneCopy:
    def test_onto_empty_becomes_deep_copy(self):
        # a linked two-node source: the empty target gets its own clk and
        # shares the source's links until one side relinks
        c = WorkCounter()
        a = TreeClock.owned(0, 4, c)
        b = TreeClock.owned(1, 4, c)
        b.increment()
        a.increment()
        a.join(b)
        l = TreeClock.aux(4, c)
        w0, cp0 = c.impl_work, c.copies
        assert l.copy_check_monotone(a) == "deep"
        assert c.copies == cp0 + 1
        assert c.impl_work == w0 + 2 * 2  # two array touches per copied node
        assert l.flatten() == a.flatten() == (1, 1, 0, 0)
        assert l.root == a.root
        assert l.dump() == a.dump()
        l.check_integrity()
        assert l.clk is not a.clk
        for name in ("aclk", "parent", "head", "nxt", "prv"):
            assert getattr(l, name) is getattr(a, name)
        assert l.shared and a.shared
        a.increment()
        assert l.flatten() == (1, 1, 0, 0)
        l.check_integrity()
        # a second copy shares the same links; then the source relinks
        # first and takes its own, leaving both copies as they were
        m = TreeClock.aux(4, c)
        assert m.copy_check_monotone(l) == "deep"
        shape = l.dump()
        d = TreeClock.owned(2, 4, c)
        d.increment()
        a.join(d)
        assert a.flatten() == (2, 1, 1, 0)
        assert l.dump() == m.dump() == shape
        assert l.flatten() == m.flatten() == (1, 1, 0, 0)
        assert l.head is not a.head and l.head is m.head
        l.check_integrity()
        # then one copy relinks: the source and the other copy keep theirs
        before = a.dump()
        b.increment()
        b.join(a)
        assert l.copy_check_monotone(b) == "monotone"
        assert l.flatten() == b.flatten() == (2, 2, 1, 0)
        assert a.dump() == before
        assert m.dump() == shape
        assert l.head is not m.head
        l.check_integrity()
        m.check_integrity()

    def test_handoff_reroots(self):
        c = WorkCounter()
        t0 = TreeClock.owned(0, 3, c)
        t1 = TreeClock.owned(1, 3, c)
        lk = TreeClock.aux(3, c)
        t0.increment()
        lk.copy_check_monotone(t0)
        t1.increment()
        t1.join(lk)
        t1.increment()
        assert lk.copy_check_monotone(t1) == "monotone"
        assert lk.root == 1
        assert lk.aclk[lk.root] == BOT
        assert lk.flatten() == t1.flatten() == (1, 2, 0)
        lk.check_integrity()
        assert lk.dump() == (
            "tid=1 clk=2 aclk=⊥\n"
            "  tid=0 clk=1 aclk=1\n"
        )

    def test_steady_state_handoff_cost_stays_small(self):
        # Server/client rounds over shared locks: once the tree has settled,
        # re-rooting the lock clock touches a handful of nodes while a
        # vector copy always rewrites all k entries.
        k = 30
        trace = generate(GenSpec(pattern="star", star_style="relay",
                                 threads=k, events=3000, seed=7))
        deltas = []
        state = {"prev": 0}

        def watch(i, ev, engine):
            w = engine.counter.impl_work
            if ev.op == "rel" and i > len(trace.events) // 10:
                deltas.append(w - state["prev"])
            state["prev"] = w

        for i, ev, engine in each_event(trace, HB):
            watch(i, ev, engine)
        assert deltas, "trace has no steady-state releases"
        deltas.sort()
        median = deltas[len(deltas) // 2]
        assert median <= 8
        # the same event under vector clocks costs exactly k + 1
        assert median < k + 1


class TestCopyCheckMonotone:
    def test_empty_target_reports_deep(self):
        c = WorkCounter()
        a = TreeClock.owned(0, 4, c)
        a.increment()
        l = TreeClock.aux(4, c)
        w0, cp0 = c.impl_work, c.copies
        assert l.copy_check_monotone(a) == "deep"
        assert c.copies == cp0 + 1
        assert c.impl_work == w0 + 2  # two array touches per copied node
        assert l.flatten() == a.flatten() == (1, 0, 0, 0)
        assert l.root == a.root
        l.check_integrity()

    def test_unordered_source_reports_deep_with_full_cost(self):
        c = WorkCounter()
        a = TreeClock.owned(0, 4, c)
        a.increment()
        b = TreeClock.owned(1, 4, c)
        b.increment()
        l = TreeClock.aux(4, c)
        l.copy_check_monotone(a)
        w0 = c.impl_work
        # b knows nothing of thread 0, so this replacement is not monotone
        assert l.copy_check_monotone(b) == "deep"
        # deep copy rebuilds from scratch: 2 touches per source node plus
        # one per node discarded from the old tree
        assert c.impl_work == w0 + 2 * 1 + 1
        assert l.flatten() == (0, 1, 0, 0)
        assert l.root == 1
        l.check_integrity()

    def test_source_above_root_reports_monotone(self):
        c = WorkCounter()
        a = TreeClock.owned(0, 4, c)
        a.increment()
        b = TreeClock.owned(1, 4, c)
        b.increment()
        l = TreeClock.aux(4, c)
        l.copy_check_monotone(a)
        l.copy_check_monotone(b)  # deep; l now rooted at thread 1
        b.increment()
        w0 = c.impl_work
        # the O(1) test: b's own entry moved past l's root time
        assert l.copy_check_monotone(b) == "monotone"
        assert c.impl_work == w0 + 2
        assert l.flatten() == (0, 2, 0, 0)
        assert l.root == 1
        l.check_integrity()

    def test_unstarted_target_reports_deep(self):
        # an owned clock never incremented holds its root at time 0, which
        # no source can fall behind; the copy must still replace that root
        c = WorkCounter(debug=True)
        dst = TreeClock.owned(0, 3, c)
        b = TreeClock.owned(1, 3, c)
        b.increment()
        assert dst.copy_check_monotone(b) == "deep"
        assert dst.flatten() == (0, 1, 0)
        assert dst.root == 1
        assert dst.nodes == 1
        dst.check_integrity()


# the path each kind reports for a copy into each kind of target
COPY_PATHS = {
    ("tree", "empty"): "deep",
    ("tree", "unstarted"): "deep",
    ("tree", "below"): "monotone",
    ("tree", "unordered"): "deep",
    ("vector", "empty"): "monotone",
    ("vector", "unstarted"): "monotone",
    ("vector", "below"): "monotone",
    ("vector", "unordered"): "monotone",
}


@pytest.mark.parametrize("kind,target", sorted(COPY_PATHS))
def test_single_copy_takes_the_predicted_path(kind, target):
    """One copy operation per kind: into an empty target, an owned target
    never incremented, a target ordered below the source, and one
    unordered with it. The copy reports the path it took and leaves an
    exact, well-formed copy behind."""
    cls = TreeClock if kind == "tree" else VectorClock
    c = WorkCounter(debug=True)
    a, b, d = (cls.owned(t, 4, c) for t in range(3))
    a.increment()
    if target == "unstarted":
        dst = cls.owned(3, 4, c)
    else:
        dst = cls.aux(4, c)
    if target in ("below", "unordered"):
        dst.copy_check_monotone(a)  # a publishes its time 1
    b.increment()
    if target == "below":
        b.join(dst)  # b has seen everything dst holds
    d.increment()
    b.join(d)
    b.increment()
    copies = c.copies
    assert dst.copy_check_monotone(b) == COPY_PATHS[kind, target]
    assert c.copies == copies + 1
    assert dst.flatten() == b.flatten()
    if kind == "tree":
        assert dst.root == b.root
        dst.check_integrity()


# --- differential against vector clocks ----------------------------------


class Mirror:
    """Apply the same clock-level script to tree and vector clocks."""

    def __init__(self, k, locks):
        self.k = k
        self.tcnt = WorkCounter()
        self.vcnt = WorkCounter()
        self.trees = [TreeClock.owned(t, k, self.tcnt) for t in range(k)]
        self.vecs = [VectorClock.owned(t, k, self.vcnt) for t in range(k)]
        self.tlocks = [TreeClock.aux(k, self.tcnt) for _ in range(locks)]
        self.vlocks = [VectorClock.aux(k, self.vcnt) for _ in range(locks)]

    def step(self, op, t, l):
        if op == "inc":
            self.trees[t].increment()
            self.vecs[t].increment()
            touched = [(self.trees[t], self.vecs[t])]
        elif op == "acq":
            self.trees[t].increment()
            self.vecs[t].increment()
            self.trees[t].join(self.tlocks[l])
            self.vecs[t].join(self.vlocks[l])
            touched = [(self.trees[t], self.vecs[t])]
        else:  # rel
            self.trees[t].increment()
            self.vecs[t].increment()
            # a released lock is below its releaser: the tree copies
            # monotonically unless the lock is still empty
            fresh = self.tlocks[l].root == NIL
            status = self.tlocks[l].copy_check_monotone(self.trees[t])
            assert status == ("deep" if fresh else "monotone")
            self.vlocks[l].copy_check_monotone(self.vecs[t])
            touched = [(self.trees[t], self.vecs[t]),
                       (self.tlocks[l], self.vlocks[l])]
        for tree, vec in touched:
            assert tree.flatten() == vec.flatten()
            tree.check_integrity()

    def finish(self):
        pairs = list(zip(self.trees, self.vecs)) + list(zip(self.tlocks, self.vlocks))
        for tree, vec in pairs:
            assert tree.flatten() == vec.flatten()
            tree.check_integrity()
        assert self.tcnt.vt_work == self.vcnt.vt_work
        assert self.tcnt.increments == self.vcnt.increments
        trees = [t for t, _ in pairs if t.root != NIL]
        for a in trees:
            for b in trees:
                assert pruning_violations(a, b) == []


def run_script(seed, k, locks, steps):
    rng = SplitMix64(seed)
    m = Mirror(k, locks)
    held = [set() for _ in range(k)]
    lock_owner = {}
    for _ in range(steps):
        t = rng.below(k)
        c = rng.below(8)
        mine = sorted(held[t])
        free = [l for l in range(locks) if l not in lock_owner]
        if c < 3 and mine:
            l = mine[rng.below(len(mine))]
            m.step("rel", t, l)
            held[t].discard(l)
            del lock_owner[l]
        elif c < 7 and free:
            l = free[rng.below(len(free))]
            m.step("acq", t, l)
            held[t].add(l)
            lock_owner[l] = t
        else:
            m.step("inc", t, 0)
    m.finish()


@pytest.mark.parametrize("seed", range(12))
def test_differential_scripts(seed):
    run_script(seed * 7919 + 1, k=2 + seed % 5, locks=1 + seed % 4,
               steps=160)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), k=st.integers(2, 6),
       locks=st.integers(1, 4), steps=st.integers(1, 120))
def test_differential_scripts_hypothesis(seed, k, locks, steps):
    run_script(seed, k, locks, steps)


# --- learned-edge invariant -------------------------------------------------


def walk_nodes(tc):
    """Yield every thread reachable from the root, root first."""
    if tc.root == NIL:
        return
    yield tc.root
    for _, child, _, _ in walk_edges(tc):
        yield child


def walk_edges(tc):
    """Yield (parent_tid, child_tid, child_clk, attach_time) for every edge;
    a clock without link arrays has none."""
    if tc.head is None:
        return
    stack = [tc.root]
    while stack:
        u = stack.pop()
        v = tc.head[u]
        while v != NIL:
            yield u, v, tc.clk[v], tc.aclk[v]
            stack.append(v)
            v = tc.nxt[v]


@pytest.mark.parametrize("po", [HB, MAZ])
@pytest.mark.parametrize("seed", range(4))
def test_every_edge_records_a_first_learn(po, seed):
    """Each edge (child u at time c, attached to parent w at time a) claims
    that thread w first learned of u's time c at w's own local time a: w's
    timestamp after its a-th event covers u@c, and after a-1 events it did
    not. This is the property that makes aclk-based pruning sound."""
    trace = random_trace(seed, events=100, threads=4, locks=3, variables=3)
    k = trace.thread_count
    histories = [[(0,) * k] for _ in range(k)]

    def check(i, ev, engine):
        tc = engine.thread_clocks[ev.tid]
        histories[ev.tid].append(tc.flatten())
        assert len(histories[ev.tid]) - 1 == tc.clk[tc.root]
        clocks = list(engine.thread_clocks) + list(engine.lock_clocks.values()) \
            + list(engine.write_clocks.values()) + list(engine.read_clocks.values())
        for clock in clocks:
            if clock.root == NIL:
                continue
            for w, u, c, a in walk_edges(clock):
                assert 1 <= a < len(histories[w])
                assert histories[w][a][u] >= c
                assert histories[w][a - 1][u] < c

    for i, ev, engine in each_event(trace, po):
        check(i, ev, engine)


# --- pruning soundness checker ----------------------------------------------


def test_pruning_violations_reports_corruption():
    c = WorkCounter()
    v = TreeClock.owned(2, 4, c)
    v.increment()
    w = TreeClock.owned(1, 4, c)
    w.increment()
    v.join(w)
    full = TreeClock.owned(3, 4, c)
    full.increment()
    full.join(v)
    assert pruning_violations(v, full) == []
    v.clk[1] = 9  # claim a descendant time the other clock has never seen
    out = pruning_violations(v, full)
    assert len(out) == 2
    assert any(s.startswith("direct:") for s in out)
    assert any(s.startswith("indirect:") for s in out)
