"""Tests for the tree clock structure.

Covers hand-built trees (display order, integrity, flatten, dump),
differential runs against vector clock mirrors, the join early exit and
its contract error, the copy operation and the path it takes, the
learned-edge invariant that justifies pruning, and the pruning soundness
checker itself.
"""

import hashlib
import os
import resource
import subprocess
import sys
from operator import ne

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import debug_run, each_event

from clocktrace import analyses, treeclock
from clocktrace.analyses import HB, MAZ, SHB, run_analysis
from clocktrace.trace import ACQ, parse_trace
from clocktrace.tracegen import GenSpec, SplitMix64, generate, random_trace
from clocktrace.treeclock import NIL, Entries, TreeClock
from clocktrace.vclock import ClockContractError, VectorClock, WorkCounter, vt_leq
from oracles import TwoPassTreeClock, pruning_violations

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(k, spec):
    """White-box constructor: spec is (tid, clk, aclk, [children]) with
    children given in display (most recently attached first) order."""
    tc = TreeClock.owned(spec[0], k, WorkCounter())
    tc.clk = [0] * k
    tc.links = ([NIL] * k, [k] * (2 * k + 1), [k] * (k + 1))
    aclks, nxt, prv = tc.links

    def place(node):
        """Set the node's fields and link its subtree: the first child
        hangs from tid's first-child slot k + 1 + tid, each later one
        from its previous sibling."""
        tid, clk, aclk, kids = node
        tc.clk[tid] = clk
        aclks[tid] = aclk
        at = k + 1 + tid
        for kid in kids:
            place(kid)
            nxt[at] = kid[0]
            prv[kid[0]] = at
            at = kid[0]

    place(spec)
    return tc


# Two four-thread trees with the same root but different histories: in the
# first, thread 3 learned of threads 2 and 1 separately; in the second it
# learned everything through thread 2.
TREE_A = (3, 2, NIL, [(2, 2, 2, []), (1, 2, 1, [(0, 1, 1, [])])])
TREE_B = (3, 2, NIL, [(2, 3, 2, [(1, 1, 2, []), (0, 1, 1, [])])])

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
        assert list(walk_nodes(l)) == []
        assert l.links is None
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

    def test_join_into_empty_raises(self):
        c = WorkCounter()
        a = TreeClock.owned(0, 3, c)
        a.increment()
        e = TreeClock.aux(3, c)
        with pytest.raises(ClockContractError, match="uninitialized"):
            e.join(a)
        assert e.flatten() == (0, 0, 0)

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
    threads read clk 0 and hold no links, and non-root nodes read more
    than 0, so the tree is the root plus the nonzero entries."""

    def test_absent_entries_are_zero_on_every_clock(self):
        # a detached maz reader clock holds no tree to walk; check_integrity
        # (debug) checks its entries
        trace = random_trace(17, events=150, threads=5, locks=3, variables=3)
        detached = {po: 0 for po in (HB, SHB, MAZ)}

        def check(i, ev, engine):
            clocks = list(engine.thread_clocks) + list(engine.lock_clocks.values()) \
                + list(engine.write_clocks.values()) + list(engine.read_clocks.values())
            for clock in clocks:
                if clock.links is None and type(clock.clk) is list:
                    detached[engine.po] += 1
                    continue
                present = set(walk_nodes(clock))
                # the tree is exactly the root and the nonzero entries
                assert present == {t for t in range(clock.k) if clock.clk[t] > 0} \
                    | ({clock.root} if clock.root != NIL else set())
                if clock.links is None:
                    assert len(present) <= 1
                for t in range(clock.k):
                    if t not in present:
                        assert clock.clk[t] == 0
                        assert clock.flatten()[t] == 0

        for po in (HB, SHB, MAZ):
            for i, ev, engine in each_event(trace, po, debug=True):
                check(i, ev, engine)
        assert detached[HB] == detached[SHB] == 0 < detached[MAZ]

    @pytest.mark.parametrize("array,slot,value,message", [
        # 1's unlink would write the scratch slot, not its sibling 2's nxt
        ("prv", 1, 5, "child list of 3 runs through the scratch slot at 1"),
        ("nxt", 5, 0, r"scratch slot nxt\[5\] links to 0"),
        # 3's first-child slot, 5 + 1 + 3, skips its first child 2
        ("nxt", 9, 1, "first-child slot of 3 is stale"),
        # 1 follows 2, but its prv names 3's first-child slot
        ("prv", 1, 9, r"prv of 1 is 9, but nxt\[2\] holds 1"),
        # the root 3 claims a previous sibling
        ("prv", 3, 0, "root has a parent or siblings"),
        ("nxt", 9, 7, "child list of 3 holds 7, not a thread"),
        # 2's first-child slot, 5 + 1 + 2, lists 0, whose prv names the
        # first-child slot of its parent 1: a second parent
        ("nxt", 8, 0, "first-child slot of 2 is stale"),
        ("clk", 3, 1, r"child 2 attached later \(2\) than its parent's time \(1\)"),
        # 2, attached at 0, is listed ahead of 1, attached at 1
        ("aclk", 2, 0, "sibling list of 3 not ordered"),
        # 4's prv names 3's first-child slot, which does not list it
        ("prv", 4, 9, "absent thread 4 has a parent"),
        ("nxt", 10, 0, "absent thread 4 has children"),
        ("nxt", 4, 0, "absent thread 4 has siblings"),
        ("prv", 4, 1, "absent thread 4 has siblings"),
    ], ids=["prv-in-scratch", "nxt-scratch-linked", "stale-first-child",
            "prv-disagrees", "root-with-prv", "child-not-a-thread",
            "stale-parent", "attached-after-parent", "siblings-unordered",
            "absent-with-parent", "absent-with-children", "absent-with-next",
            "absent-with-prv"])
    def test_broken_link_set_is_caught(self, array, slot, value, message):
        a = build(5, TREE_A)  # k = 5: slot 5 of nxt and prv is scratch, 4 absent
        arrays = dict(zip(("aclk", "nxt", "prv"), a.links), clk=a.clk)
        arrays[array][slot] = value
        with pytest.raises(AssertionError, match=message):
            a.check_integrity()

    @pytest.mark.parametrize("slot,value,node", [(4, 0, 0), (1, 1, 1)],
                             ids=["cross-level", "sibling"])
    def test_dump_stops_on_a_cyclic_link_set(self, slot, value, node):
        # root 0 and child 1 at k = 2: 1's first-child slot nxt[4] holding
        # 0 makes each the other's child; 1's next-sibling slot nxt[1]
        # holding 1 makes 1 its own sibling. A dump that followed either
        # cycle would grow until memory ran out, so it runs in a child
        # process capped at 400 MB of address space
        script = (
            "from clocktrace.treeclock import TreeClock\n"
            "from clocktrace.vclock import WorkCounter\n"
            "c = WorkCounter()\n"
            "a, b = TreeClock.owned(0, 2, c), TreeClock.owned(1, 2, c)\n"
            "a.increment(); b.increment(); a.join(b)\n"
            f"a.links[1][{slot}] = {value}\n"
            "a.dump()\n")
        limit = 400 << 20
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (limit, limit)))
        assert proc.returncode == 1
        assert proc.stderr.endswith(f"AssertionError: node {node} reached twice\n")

    def test_nonzero_absent_entry_is_caught(self):
        a = build(5, TREE_A)
        a.check_integrity()
        a.clk[4] = 1
        with pytest.raises(AssertionError, match="absent thread 4"):
            a.check_integrity()

    def test_non_root_node_at_clk_0_is_caught(self):
        # the root may read 0, a linked child may not: its node would not
        # be told apart from an absent thread's entry
        build(2, (1, 0, NIL, [(0, 1, 0, [])])).check_integrity()
        for leaf in (2, 0):  # a child of the root, and one deeper
            a = build(4, TREE_A)
            a.clk[leaf] = 0
            with pytest.raises(AssertionError,
                               match=f"non-root node {leaf} has clk 0"):
                a.check_integrity()

    def test_sparse_form_iff_no_link_arrays(self):
        """clk is an Entries mapping exactly when links is None, and then
        stores the root's key alone (no key when empty)."""
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
        o.links = ([NIL] * 3, [3] * 7, [3] * 4)
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
        e = TreeClock.aux(3, c)
        e.clk = [0] * 3
        with pytest.raises(AssertionError, match="empty clock is dense"):
            e.check_integrity()
        a = build(4, TREE_A)
        a.links[2].append(4)  # prv one slot too long
        with pytest.raises(AssertionError, match="not 4, 9 and 5 slots long"):
            a.check_integrity()


class TestLinkArrays:
    """A clock allocates its clk list and its link set, three lists of
    4k+2 slots in all, only when it first links a second node; until
    then it stores its one entry."""

    def test_root_only_clocks_and_their_copies_hold_none(self):
        c = WorkCounter(debug=True)
        a = TreeClock.owned(0, 4, c)
        assert a.links is None
        assert list(walk_nodes(a)) == [0]
        assert a.dump() == "tid=0 clk=0 aclk=⊥\n"
        a.check_integrity()
        a.increment()
        lk = TreeClock.aux(4, c)
        assert lk.copy_check_monotone(a) == "deep"
        assert lk.links is None
        assert lk.dump() == "tid=0 clk=1 aclk=⊥\n"
        # the same root again: a one-entry monotone copy, counted as a
        # two-pass copy of one node would be
        a.increment()
        w0, vt0 = c.impl_work, c.vt_work
        assert lk.copy_check_monotone(a) == "monotone"
        assert (c.impl_work, c.vt_work) == (w0 + 2, vt0 + 1)
        assert lk.links is None
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
        assert a.links is None
        b.increment()
        a.join(b)
        assert [len(array) for array in a.links] == [4, 9, 5]
        assert list(walk_nodes(a)) == [0, 1]
        assert a.dump() == "tid=0 clk=1 aclk=⊥\n  tid=1 clk=1 aclk=1\n"
        a.check_integrity()
        # a deep copy from a root-only source drops them again
        d = TreeClock.owned(2, 4, c)
        d.increment()
        assert a.copy_check_monotone(d) == "deep"
        assert a.links is None
        assert list(walk_nodes(a)) == [2]
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
        linked = sum(clock.links is not None for clock in clocks)
        server_acquires = sum(ev.tid == 0 and ev.op == ACQ
                              for ev in trace.events)
        assert 1 <= linked <= 1 + 2 * server_acquires

    @pytest.mark.parametrize("name,po", [
        ("star-relay", HB),
        ("relay-round", HB),
        ("random", MAZ),  # write and reader clocks too
        ("maz-readers", MAZ),
    ])
    def test_only_linked_clocks_are_dense(self, name, po, monkeypatch):
        # every clock the engine builds, kept by a subclass it builds
        # instead: a clock holds a link set exactly when it holds two
        # nodes, and a k-list when it holds a link set or is detached,
        # which only a maz reader clock is, with a second node kept
        built = []

        class Kept(TreeClock):
            __slots__ = ()

            def __init__(self, size, counter, owner=NIL):
                super().__init__(size, counter, owner)
                built.append(self)

        trace = STORAGE_TRACES[name]()
        monkeypatch.setattr(treeclock, "TreeClock", Kept)
        debug_run(trace, po)
        linked = [clock for clock in built if clock.links is not None]
        assert linked == [clock for clock in built
                          if len(list(walk_nodes(clock))) >= 2]
        detached = [clock for clock in built if clock.links is None
                    and type(clock.clk) is list]
        for clock in built:
            if type(clock.clk) is not list:
                keys = [] if clock.root == NIL else [clock.root]
                assert list(clock.clk) == keys
        for clock in detached:
            assert any(clock.clk[t] for t in range(clock.k) if t != clock.root)
        assert bool(detached) == (po == MAZ)
        assert 0 < len(linked) < len(built)

    def test_deep_copies_share_links_on_a_seeded_rw_trace(self, monkeypatch):
        # the benchmark's r/w generator under maz, where most copies are
        # deep copies of a dense thread clock: the copies share that
        # clock's link set, 520 sets among 1010 dense clocks (1010 with a
        # private set each). 228 reader clocks a write has joined since
        # their last copy hold no set at all (detached)
        monkeypatch.syspath_prepend(os.path.join(ROOT, "benchmark"))
        from rwgen import RWSpec, generate_rw

        trace = generate_rw(RWSpec(events=2000), 0)
        engine = None
        for _, _, engine in each_event(trace, MAZ, debug=True):
            pass
        clocks = (engine.thread_clocks + list(engine.lock_clocks.values())
                  + list(engine.write_clocks.values())
                  + list(engine.read_clocks.values()))
        dense = [clock for clock in clocks if clock.links is not None]
        assert len(dense) == 1010
        assert len({id(clock.links) for clock in dense}) == 520
        assert sum(type(clock.clk) is list for clock in clocks) == 1010 + 228
        holders = {}
        for clock in dense:
            for array in clock.links:
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
            return "root-only" if clock.links is None else "dense"

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
        clocks that share the link set after a deep copy and on tree clocks
        that copy it at once; after each step the two sets agree in
        shape and counters, and both agree with vector clocks."""

        class Eager(TreeClock):
            __slots__ = ()

            def _become_copy_of(self, src):
                super()._become_copy_of(src)
                if self.links is not None:
                    self.links = tuple(a[:] for a in self.links)
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
            links = cow[dst].links
            holders = sum(c.links is links for c in cow) if links else 0
            for clocks in sets:
                if op <= 4:
                    clocks[dst].increment()
                if op == 3 or op == 4:  # an acquire: a step, then a join
                    clocks[dst].join(clocks[src])
                elif op >= 5:  # publish into an aux clock
                    status = clocks[dst].copy_check_monotone(clocks[src])
            if holders > 1 and cow[dst].links is not links and (
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
                    if a.links is not None and a.links is b.links:
                        assert a.shared and b.shared
        # both a source and a copy relinked while still sharing
        assert relinked == {"thread", "aux"}


class TestDetached:
    """drop_tree leaves the detached form: entries kept, no link set. It
    is never a join target, a join source or a copy source; a monotone
    copy into it counts what a rebuild would and takes the source's
    tree; a deep copy into it works as into a dense clock."""

    @staticmethod
    def reader(c, drop=True):
        """Threads 0 and 1's clocks, 0's dense after a join with 1, and an
        aux clock deep-copied from 0's and then detached, as a maz reader
        clock is after the next write joins it (kept whole if not drop)."""
        a, b = TreeClock.owned(0, 3, c), TreeClock.owned(1, 3, c)
        a.increment()
        b.increment()
        a.join(b)
        r = TreeClock.aux(3, c)
        assert r.copy_check_monotone(a) == "deep"
        assert r.links is a.links
        if drop:
            r.drop_tree()
        return a, b, r

    def test_drop_tree_keeps_the_entries(self):
        c = WorkCounter(debug=True)
        a, _, r = self.reader(c)
        assert (r.links, r.shared, r.root) == (None, False, 0)
        assert r.clk == [1, 1, 0] and r.flatten() == a.flatten()
        assert r.dump() == "(detached) root=0 clk=[1, 1, 0]\n"
        r.check_integrity()
        assert a.links is not None  # the thread clock keeps its tree
        # a sparse clock has no tree to drop, nor has a vector clock
        o = TreeClock.owned(2, 3, c)
        o.drop_tree()
        assert type(o.clk) is Entries and o.dump() == "tid=2 clk=0 aclk=⊥\n"
        v = VectorClock.owned(0, 3, c)
        v.increment()
        v.drop_tree()
        assert v.flatten() == (1, 0, 0)

    def test_monotone_copy_shares_the_source_tree(self):
        c, twin_c = WorkCounter(debug=True), WorkCounter(debug=True)
        a, b, r = self.reader(c)
        ta, tb, tr = self.reader(twin_c, drop=False)
        for x, y in ((a, b), (ta, tb)):
            x.increment()
            y.increment()
            x.join(y)
        assert r.copy_check_monotone(a) == "monotone"
        assert tr.copy_check_monotone(ta) == "monotone"
        assert r.links is a.links and r.shared and a.shared
        assert r.clk is not a.clk and r.clk == a.clk
        assert r.dump() == tr.dump() == a.dump()
        assert (c.vt_work, c.impl_work, c.copies) == (
            twin_c.vt_work, twin_c.impl_work, twin_c.copies)
        a.increment()  # the thread clock relinks its own copy of the set
        b.increment()
        a.join(b)
        assert r.links is not a.links and r.flatten() == (2, 2, 0)
        r.check_integrity()

    def test_source_fallen_behind_takes_the_deep_path(self):
        c = WorkCounter(debug=True)
        _, b, r = self.reader(c)
        d = TreeClock.owned(2, 3, c)
        d.increment()
        b.increment()
        d.join(b)  # d is dense and knows nothing of r's root thread
        vt0 = c.vt_work
        assert r.copy_check_monotone(d) == "deep"
        assert r.links is d.links and r.flatten() == d.flatten() == (0, 2, 1)
        assert c.vt_work == vt0 + 3
        _, _, r = self.reader(c)
        assert r.copy_check_monotone(b) == "deep"  # a root-only source
        assert type(r.clk) is Entries and r.flatten() == (0, 2, 0)

    def test_join_into_a_detached_clock_raises(self):
        c = WorkCounter(debug=True)
        _, b, r = self.reader(c)
        b.increment()  # b is ahead on its own thread only
        with pytest.raises(ClockContractError, match="join into a detached"):
            r.join(b)
        assert r.flatten() == (1, 1, 0) and r.links is None

    def test_join_from_a_detached_clock_raises(self):
        c = WorkCounter(debug=True)
        _, _, r = self.reader(c)
        t = TreeClock.owned(2, 3, c)
        t.increment()
        with pytest.raises(ClockContractError, match="join from a detached"):
            t.join(r)
        assert t.flatten() == (0, 0, 1)

    @pytest.mark.parametrize("target", ["monotone", "deep"])
    def test_copy_from_a_detached_clock_raises(self, target):
        c = WorkCounter(debug=True)
        _, _, r = self.reader(c)
        if target == "monotone":  # below r on r's root entry
            t = TreeClock.owned(0, 3, c)
            t.increment()
        else:
            t = TreeClock.aux(3, c)
        with pytest.raises(ClockContractError, match="copy from a detached"):
            t.copy_check_monotone(r)
        assert t.flatten() == ((1, 0, 0) if target == "monotone" else (0, 0, 0))

    def test_check_integrity_knows_the_form(self):
        c = WorkCounter()
        _, _, r = self.reader(c)
        r.shared = True
        with pytest.raises(AssertionError, match="detached clock is marked shared"):
            r.check_integrity()
        _, _, r = self.reader(c)
        r.clk[2] = -1
        with pytest.raises(AssertionError, match="negative entry"):
            r.check_integrity()
        _, _, r = self.reader(c)
        r.clk[1] = 0  # the root alone: a k-list with no second node
        with pytest.raises(AssertionError, match="lacks link arrays"):
            r.check_integrity()
        _, _, r = self.reader(c)
        r.clk.append(0)
        with pytest.raises(AssertionError, match="not a 3-list"):
            r.check_integrity()

    @pytest.mark.parametrize("po,seed", [(po, seed) for po in (HB, SHB, MAZ)
                                         for seed in range(6)] + [(MAZ, "rw")])
    def test_dropping_trees_changes_no_kept_tree(self, po, seed, monkeypatch):
        """The engine in lockstep with one whose drop_tree does nothing:
        after every event every clock that holds a tree has the same
        dump() in both, every clock the same flatten(), and all five
        counters are equal."""

        class Kept(TreeClock):
            __slots__ = ()

            def drop_tree(self):
                pass

        if seed == "rw":
            monkeypatch.syspath_prepend(os.path.join(ROOT, "benchmark"))
            from rwgen import RWSpec, generate_rw

            trace = generate_rw(RWSpec(threads=12, events=1200, variables=40,
                                       locks=4), 0)
        else:
            trace = random_trace(seed, events=300, threads=6, locks=3,
                                 variables=4)
        drop = analyses.Engine(po, trace.thread_count, "tree", debug=True)
        with monkeypatch.context() as m:
            m.setattr(treeclock, "TreeClock", Kept)
            keep = analyses.Engine(po, trace.thread_count, "tree", debug=True)
        assert type(keep.thread_clocks[0]) is Kept

        def clocks(engine):
            yield from engine.thread_clocks
            for table in (engine.lock_clocks, engine.write_clocks,
                          engine.read_clocks):
                for key in sorted(table):
                    yield table[key]

        def counts(engine):
            cnt = engine.counter
            return (cnt.vt_work, cnt.impl_work, cnt.joins, cnt.copies,
                    cnt.increments)

        detached = revived = 0
        for ev in trace.events:
            was = {id(x) for x in drop.read_clocks.values()
                   if x.links is None and type(x.clk) is list}
            drop.process(ev)
            keep.process(ev)
            for x, y in zip(clocks(drop), clocks(keep)):
                assert x.flatten() == y.flatten()
                if x.links is None and type(x.clk) is list:
                    detached += 1
                else:
                    assert x.dump() == y.dump()
                    revived += x.links is not None and id(x) in was
            assert counts(drop) == counts(keep)
        assert drop.races == keep.races
        if po == MAZ:
            assert detached and revived
        else:
            assert detached == 0


LOCKSTEP_TRACES = {
    "random-k8": lambda: random_trace(4, events=800, threads=8, locks=3,
                                      variables=4),
    "random-k64": lambda: random_trace(6, events=2500, threads=64, locks=6,
                                       variables=10),
    "star-paired-k96": lambda: generate(
        GenSpec("star", 96, 2400, seed=2, star_style="paired")),
    "pairwise-k64": lambda: generate(GenSpec("pairwise", 64, 2400, seed=3)),
}


@pytest.mark.parametrize("name,po", [(name, po) for name in sorted(LOCKSTEP_TRACES)
                                     for po in (HB, SHB, MAZ)])
def test_single_pass_move_matches_the_two_pass_reference(name, po, monkeypatch):
    """_move, which relinks each node as its gather finds it, in lockstep
    with the two-pass reference, which gathers first and then rebuilds
    backwards from parents it looks up in the source: after every event
    the acting clock has the same dump() in both and all five counters
    are equal, and at the end so does every clock."""
    trace = LOCKSTEP_TRACES[name]()
    one = analyses.Engine(po, trace.thread_count, "tree", debug=True)
    with monkeypatch.context() as m:
        m.setattr(treeclock, "TreeClock", TwoPassTreeClock)
        two = analyses.Engine(po, trace.thread_count, "tree", debug=True)
    assert type(two.thread_clocks[0]) is TwoPassTreeClock

    def counts(engine):
        cnt = engine.counter
        return (cnt.vt_work, cnt.impl_work, cnt.joins, cnt.copies,
                cnt.increments)

    def clocks(engine):
        yield from engine.thread_clocks
        for table in (engine.lock_clocks, engine.write_clocks,
                      engine.read_clocks):
            for key in sorted(table):
                yield table[key]

    moved = 0
    for i, ev in enumerate(trace.events):
        a, b = one.process(ev), two.process(ev)
        assert a.dump() == b.dump(), f"event {i}"
        assert counts(one) == counts(two), f"event {i}"
        moved += a.links is not None
    assert moved  # the acting clocks were dense, not only root-only
    assert [x.dump() for x in clocks(one)] == [y.dump() for y in clocks(two)]
    assert one.races == two.races


STORAGE_TRACES = {
    "star-relay": lambda: generate(
        GenSpec("star", 256, 8000, seed=3, star_style="relay")),
    # each client acq/rels its own lock, and the hub t0 acquires one of
    # them: that acquire links a second node into the hub's clock alone
    "relay-round": lambda: parse_trace(
        "t1 acq l1\nt1 rel l1\nt2 acq l2\nt2 rel l2\nt0 acq l1\n"),
    # t2 and t3 learn t1 through l and read x into two reader clocks;
    # t1's write joins both and drops their trees, and t2's re-read
    # copies its clock into its reader clock monotonically
    "maz-readers": lambda: parse_trace(
        "".join(f"{t} acq l\n{t} rel l\n" for t in ("t1", "t2", "t3"))
        + "t2 r x\nt3 r x\nt1 w x\nt2 r x\n"),
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
    ("random", MAZ): "e8a483146b86e166",
}


@pytest.mark.parametrize("name,po", sorted(SHAPE_DIGESTS))
def test_tree_shapes_are_pinned(name, po):
    """Differential tests compare flattened values only; sibling order is
    invisible to them yet decides later pruning and impl_work. Pin the
    full shape of every thread, lock, write and reader clock; a maz
    reader clock that a write has joined since its last copy holds no
    tree (detached), and its dump pins its entries."""
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


# every WorkCounter field of a tree run: (vt_work, impl_work, joins, copies,
# increments). A traversal can keep every shape above and still count its
# work differently; these move if it does.
TREE_COUNTS = {
    ("star-relay", HB): (2225, 4275, 585, 600, 1200),
    ("star-relay", SHB): (2225, 4275, 585, 600, 1200),
    ("star-relay", MAZ): (2225, 4275, 585, 600, 1200),
    ("single-lock", HB): (5132, 12377, 599, 600, 1200),
    ("single-lock", SHB): (5132, 12377, 599, 600, 1200),
    ("single-lock", MAZ): (5132, 12377, 599, 600, 1200),
    ("random", HB): (1363, 2083, 87, 87, 1000),
    ("random", SHB): (3588, 9831, 496, 497, 1000),
    ("random", MAZ): (6589, 15475, 1253, 910, 1000),
    # the benchmark's single-lock workload at k=160
    ("single-lock-160", HB): (654567, 1490457, 7999, 8000, 16000),
}
COUNT_TRACES = dict(SHAPE_TRACES, **{
    "single-lock-160": lambda: generate(GenSpec("single_lock", 160, 16_000)),
})


@pytest.mark.parametrize("name,po", sorted(TREE_COUNTS))
def test_tree_counters_are_pinned(name, po):
    c = run_analysis(COUNT_TRACES[name](), po, "tree").counter
    assert (c.vt_work, c.impl_work, c.joins, c.copies,
            c.increments) == TREE_COUNTS[name, po]


@pytest.mark.parametrize("seed", range(6))
def test_each_operation_counts_exactly_the_entries_it_changes(seed):
    """A seeded script of events over clocks in every storage form. Each
    event ticks one thread, then joins another thread's clock or an aux
    clock into it, or copies it into an aux clock, or copies one aux
    clock into another. Each join and copy must add to vt_work exactly
    the number of entries flatten() shows it changed. _move derives that
    number from how many nodes it gathered, so the script must reach the
    copies where a gathered node is not ahead: the source root z (a
    state copied a second time), or the target's old root."""
    k, n_aux = 5, 3
    rng = SplitMix64(seed * 104729 + 7)
    c = WorkCounter(debug=True)
    threads = [TreeClock.owned(t, k, c) for t in range(k)]
    auxes = [TreeClock.aux(k, c) for _ in range(n_aux)]
    seen = set()

    def apply(dst, src):
        form = ("empty" if dst.root == NIL else "sparse" if dst.links is None
                else "shared" if dst.shared else "dense")
        r, z = dst.root, src.root
        z_same = dst.clk[z] == src.clk[z]
        root_same = r not in (NIL, z) and dst.clk[r] == src.clk[r]
        before, vt0 = dst.flatten(), c.vt_work
        if dst in threads:
            dst.join(src)
            seen.add(("join", form))
        elif dst.copy_check_monotone(src) == "deep":
            seen.add(("deep", form))
        else:
            seen.add(("monotone", form))
            if dst.links is not None:  # took _move's copy mode
                seen.add(("monotone", "z unchanged", z_same))
                seen.add(("monotone", "old root unchanged", root_same))
        assert c.vt_work - vt0 == sum(map(ne, before, dst.flatten()))

    for _ in range(400):
        t, roll = rng.below(k), rng.below(10)
        threads[t].increment()
        aux = auxes[rng.below(n_aux)]
        if roll < 3:
            apply(threads[t], threads[rng.below(k)])
        elif roll < 5:
            apply(threads[t], aux)
        elif roll < 9:
            apply(aux, threads[t])
            if roll == 8:  # the same state again: nothing may change
                apply(aux, threads[t])
        elif aux.root != NIL:
            apply(auxes[rng.below(n_aux)], aux)
    for case in [("join", "sparse"), ("join", "dense"), ("join", "shared"),
                 ("monotone", "sparse"), ("monotone", "dense"),
                 ("monotone", "shared"), ("deep", "empty"), ("deep", "dense"),
                 ("monotone", "z unchanged", True),
                 ("monotone", "old root unchanged", True)]:
        assert case in seen


# A parent with three children, and one with an only child: the join
# sources below move child 2, 1 or 0 (first, middle, last) or the only
# child under thread 5, which the target lacks, so each join also relinks
# an absent node (z) through the scratch slot
THREE_KIDS = (4, 5, NIL, [(3, 4, 1, [(2, 1, 3, []), (1, 1, 2, []), (0, 1, 1, [])])])
ONLY_KID = (4, 5, NIL, [(3, 4, 1, [(2, 1, 1, [])])])

RELINKS = {
    "first": (THREE_KIDS, (5, 1, NIL, [(2, 2, 1, [])]),
              "tid=4 clk=5 aclk=⊥\n"
              "  tid=5 clk=1 aclk=5\n"
              "    tid=2 clk=2 aclk=1\n"
              "  tid=3 clk=4 aclk=1\n"
              "    tid=1 clk=1 aclk=2\n"
              "    tid=0 clk=1 aclk=1\n"),
    "middle": (THREE_KIDS, (5, 1, NIL, [(1, 2, 1, [])]),
               "tid=4 clk=5 aclk=⊥\n"
               "  tid=5 clk=1 aclk=5\n"
               "    tid=1 clk=2 aclk=1\n"
               "  tid=3 clk=4 aclk=1\n"
               "    tid=2 clk=1 aclk=3\n"
               "    tid=0 clk=1 aclk=1\n"),
    "last": (THREE_KIDS, (5, 1, NIL, [(0, 2, 1, [])]),
             "tid=4 clk=5 aclk=⊥\n"
             "  tid=5 clk=1 aclk=5\n"
             "    tid=0 clk=2 aclk=1\n"
             "  tid=3 clk=4 aclk=1\n"
             "    tid=2 clk=1 aclk=3\n"
             "    tid=1 clk=1 aclk=2\n"),
    "only": (ONLY_KID, (5, 1, NIL, [(2, 2, 1, [])]),
             "tid=4 clk=5 aclk=⊥\n"
             "  tid=5 clk=1 aclk=5\n"
             "    tid=2 clk=2 aclk=1\n"
             "  tid=3 clk=4 aclk=1\n"),
    # both source nodes are absent from the target
    "absent": (ONLY_KID, (5, 2, NIL, [(0, 1, 2, [])]),
               "tid=4 clk=5 aclk=⊥\n"
               "  tid=5 clk=2 aclk=5\n"
               "    tid=0 clk=1 aclk=2\n"
               "  tid=3 clk=4 aclk=1\n"
               "    tid=2 clk=1 aclk=1\n"),
    # both of z's children move: 2 (from under 3) is linked first, then
    # 0 in front of it, whose back link must now name 0
    "siblings": (ONLY_KID, (5, 2, NIL, [(0, 1, 2, []), (2, 2, 1, [])]),
                 "tid=4 clk=5 aclk=⊥\n"
                 "  tid=5 clk=2 aclk=5\n"
                 "    tid=0 clk=1 aclk=2\n"
                 "    tid=2 clk=2 aclk=1\n"
                 "  tid=3 clk=4 aclk=1\n"),
}


class TestRelink:
    """_move unlinks each moved node through its prv slot with no test:
    a first child through its parent's first-child slot, a later one
    through its previous sibling, and a root or an absent node through
    the scratch slot."""

    @pytest.mark.parametrize("case", sorted(RELINKS))
    def test_join_relinks_one_child(self, case):
        target, source, expected = RELINKS[case]
        dst, src = build(6, target), build(6, source)
        src.counter = dst.counter
        n = src.dump().count("\n")  # every source node, each one ahead
        dst.join(src)
        dst.check_integrity()  # first: dump() would not end on a cycle
        assert dst.dump() == expected
        # n nodes examined and rebuilt
        assert (dst.counter.impl_work, dst.counter.vt_work) == (2 * n, n)

    def test_copy_relinks_the_old_root(self):
        # the source's root 3 is the target's first child, and the target's
        # root 4 hangs under it in the source, unchanged: 4 is gathered
        # anyway and relinked from the root's place (the scratch slot),
        # keeping its other child 1, which the gather skips
        dst = build(5, (4, 5, NIL, [(3, 2, 3, []), (1, 1, 2, [])]))
        src = build(5, (3, 4, NIL, [(4, 5, 3, [(1, 1, 2, [])])]))
        src.counter = dst.counter
        assert dst.copy_check_monotone(src) == "monotone"
        dst.check_integrity()
        assert dst.dump() == (
            "tid=3 clk=4 aclk=⊥\n"
            "  tid=4 clk=5 aclk=3\n"
            "    tid=1 clk=1 aclk=2\n"
        )
        # 3 and 4 rebuilt, 1 skipped; only 3's entry changed
        assert (dst.counter.impl_work, dst.counter.vt_work) == (2 * 2 + 1, 1)


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

    @pytest.mark.parametrize("form", ["root-only", "dense shared"])
    def test_refused_join_leaves_target_unchanged(self, form):
        # the source holds the target's root thread 0 below its own root
        # 1, ahead of the target: refused before the target is touched
        c = WorkCounter()
        a = TreeClock.owned(0, 4, c)
        a.increment()
        a.increment()
        src = TreeClock.owned(1, 4, c)
        src.increment()
        src.join(a)
        src.increment()
        target = TreeClock.owned(0, 4, c)
        target.increment()
        if form == "dense shared":
            other = TreeClock.owned(2, 4, c)
            other.increment()
            target.join(other)
            copy = TreeClock.aux(4, c)
            assert copy.copy_check_monotone(target) == "deep"
            assert target.links is copy.links
        links, shared, clk_type, shape = (target.links, target.shared,
                                          type(target.clk), target.dump())
        with pytest.raises(ClockContractError):
            target.join(src)
        assert target.links is links
        assert target.shared is shared
        assert type(target.clk) is clk_type
        assert target.dump() == shape
        target.check_integrity()

    def test_debug_reports_a_state_change_at_a_held_root_time(self):
        # outside the contract: t0 joins twice at root time 0, which every
        # clock holds, so a1 reads t0's children as already known and the
        # copy prunes them, leaving a1's old root unreachable. The engine
        # never does this (it increments first); debug reports it
        c = WorkCounter(debug=True)
        t0, t1, t2 = (TreeClock.owned(t, 3, c) for t in range(3))
        a0, a1 = TreeClock.aux(3, c), TreeClock.aux(3, c)
        t1.increment()
        t2.increment()
        a1.copy_check_monotone(t1)
        t0.join(a1)
        a0.copy_check_monotone(t2)
        t2.join(a0)
        t0.join(a0)
        with pytest.raises(AssertionError, match="absent thread 1 has clk 1"):
            a1.copy_check_monotone(t0)

    def test_debug_reports_a_non_monotone_target_the_entry_test_passed(self):
        # outside the contract: two clocks rooted at thread 0 at root time
        # 1, one of which has also learned thread 1. The single-entry test
        # reads 1 <= 1 and picks the monotone path; debug compares every
        # entry and refuses
        c = WorkCounter(debug=True)
        a, b, s = (TreeClock.owned(t, 2, c) for t in (0, 1, 0))
        for x in (a, b, s):
            x.increment()
        a.join(b)
        with pytest.raises(ClockContractError, match="single-entry "
                           "monotonicity test missed a non-monotone target"):
            a.copy_check_monotone(s)


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
        assert l.links is a.links
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
        assert l.links is not a.links and l.links is m.links
        l.check_integrity()
        # then one copy relinks: the source and the other copy keep theirs
        before = a.dump()
        b.increment()
        b.join(a)
        assert l.copy_check_monotone(b) == "monotone"
        assert l.flatten() == b.flatten() == (2, 2, 1, 0)
        assert a.dump() == before
        assert m.dump() == shape
        assert l.links is not m.links
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
        assert lk.links[0][lk.root] == NIL
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

    @pytest.mark.parametrize("po", [HB, SHB, MAZ])
    def test_root_only_source_implies_root_only_target(self, po, monkeypatch):
        # the root-only fast path tests the source alone: on the monotone
        # path, a root-only source can only be reached by a root-only
        # target with the same root. Checked on every monotone copy
        sources = []

        class Checked(TreeClock):
            __slots__ = ()

            def copy_check_monotone(self, src):
                target = (self.links, self.root)
                status = super().copy_check_monotone(src)
                if status == "monotone":
                    sources.append(src.links is None)
                    if src.links is None:
                        assert target == (None, src.root)
                return status

        monkeypatch.setattr(treeclock, "TreeClock", Checked)
        for make in STORAGE_TRACES.values():
            debug_run(make(), po)
        assert set(sources) == {True, False}  # both paths reached

    def test_deep_copy_counts_every_node_of_both_trees(self):
        # the sizes are derived from the entries: the root plus the
        # nonzero entries, so a target rooted at clk 0 still counts its
        # root, and a sparse source its one key
        c = WorkCounter(debug=True)
        dst = build(3, (1, 0, NIL, [(0, 1, 0, [])]))
        dst.counter = c
        src = TreeClock.owned(2, 3, c)
        src.increment()
        assert dst.copy_check_monotone(src) == "deep"
        assert (c.impl_work, c.vt_work) == (1 + 2 * 1 + 2, 1 + 2)
        # and back to a dense tree, from a source that never saw thread 2
        back, t1 = TreeClock.owned(0, 3, c), TreeClock.owned(1, 3, c)
        back.increment()
        t1.increment()
        back.join(t1)
        w0, vt0 = c.impl_work, c.vt_work
        assert dst.copy_check_monotone(back) == "deep"
        assert (c.impl_work, c.vt_work) == (w0 + 2 * 2 + 1, vt0 + 3)
        assert dst.dump() == back.dump()

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
        assert list(walk_nodes(dst)) == [1]
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
    a clock without a link set has none."""
    if tc.links is None:
        return
    aclk, nxt, _ = tc.links
    k = tc.k
    stack = [tc.root]
    while stack:
        u = stack.pop()
        v = nxt[k + 1 + u]
        while v != k:
            yield u, v, tc.clk[v], aclk[v]
            stack.append(v)
            v = nxt[v]


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
