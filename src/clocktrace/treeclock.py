"""Tree clocks: vector times stored as a rooted tree of (tid, clk, aclk) nodes.

The tree of a clock C places one node per thread C knows about. A node's clk
is C's entry for that thread; its aclk ("attachment clock") is the local time
of the *parent's* thread at the moment the parent learned this clk. The root
is the thread whose history the clock follows and carries no aclk. Child
lists are kept in order of attachment, newest first, which means aclk values
never increase along a sibling list.

That layout is what makes join and copy cheap: while scanning the source
tree we can stop descending as soon as a node has not progressed past what
the target already knows (all its descendants are then stale too), and stop
scanning a sibling list as soon as the target has seen the parent's thread
past the attachment time of the current child (all later siblings were
attached even earlier). Both prunings are exercised and cross-checked
against flat vector clocks throughout the test suite.

Each clock has one copy operation, which picks its path in O(1): the
monotone path when the target is below the source, else a deep
(structural) copy. Join and the monotone copy path share one traversal
(_move), a single forward pass. It walks the source breadth first into
one list, which it reads while it appends: starting from the source
root z, it appends each listed node's children that are ahead, newest
first, so each parent's gathered children sit together in source order.
It relinks each node the moment it appends it: it unlinks the node from
self and links it after the last node it linked under the same parent,
the first right after that parent's first-child slot. So each parent's
gathered children end up in source order, newest first, ahead of the
children self kept. The parent it links under is the node it is
expanding, so no node stores its parent. A node may be linked under one
that is not yet in its own place: a relinked node keeps its child list,
and every gathered node but z is relinked when its own parent is
expanded, which comes before it is expanded itself. z comes last, once,
as the root (copy) or the newest child of self's root (join). The
entries are written after the pass, as the gather reads self's entries
from before the operation. Every gathered node is strictly ahead but z
and, in a copy, self's old root, so the number of changed entries is
the list's length less those two where unchanged, with no per-node
test. A join whose source is ahead on the target's own root thread is
outside the contract: join refuses it with one O(1) test of that entry
before the target changes, so _move checks no contract but the
detached form's (below), in its first-link and root-only-source
branches.

Nodes live in dense arrays indexed by thread id, so thread-id lookup is
O(1). The tree's shape is one link set, the tuple links = (aclk, nxt,
prv) of three lists, 4k+2 slots in all, whose one link sentinel is k:

- aclk is k long. aclk[u] is NIL (-1) for the root and for a thread
  outside the tree, which is never compared (dump shows the root's as
  ⊥).
- nxt is 2k+1 long and holds every list's forward links: nxt[u], below
  k, is u's next (older) sibling; nxt[k + 1 + p] is p's first (most
  recently attached) child; k ends every list.
- prv is k+1 long: prv[u] is the nxt slot that holds u, its previous
  sibling or its parent's first-child slot, and k for the root and a
  thread outside the tree.

Slot k of nxt and of prv is scratch: no list reads it. So unlinking u is
nxt[prv[u]] = nxt[u] and prv[nxt[u]] = prv[u], with no test, and on the
root or an absent node it writes only the scratch slots; linking u after
a slot writes its two links and its neighbours' with no test either.
Every index is non-negative, which keeps CPython's specialized list
subscripts on their fast path.

A structural copy from a dense clock copies one list, clk, and shares
the link set: the copy and its source read the same links until either
side relinks, and _move, the only code that relinks in place, first
copies the set (copy on write). clk is always copied: in an analysis
the source of a deep copy is the acting thread's clock, whose next
increment rewrites it. A clock takes one of three storage forms:

- sparse: clk is an Entries mapping holding the root's entry alone, or
  nothing on an empty clock, and links is None. An empty clock (aux)
  and a root-only clock (a fresh owned clock, or a copy of one) take
  this form, and on a hub/star trace almost every clock stays in it, at
  O(1) memory. The first mutation of an empty clock is always a deep
  copy.
- dense: clk is a length-k list and links a link set. _move turns a
  sparse clock dense when it first links a second node; a deep copy
  from a sparse source turns a dense clock sparse again.
- detached: clk is a length-k list, links is None and shared is False.
  drop_tree leaves a dense clock in this form once nothing will read its
  tree again: under maz, a reader clock after a write has joined it. It
  keeps its entries, so reads see it unchanged, but it is never a join
  target, a join source or a copy source (ClockContractError). A deep
  copy into it works as into a dense clock. A monotone copy into it runs
  _move's gather without its relinks, so it counts exactly the work of
  a relinking copy, then takes the source's tree whole: a copy of clk and
  the shared link set, as a deep copy from a dense source takes them.
  That is exact when the two clocks are two states of one thread's
  clock, as a reader clock and its thread's clock are: a thread clock
  takes only increments and joins, and a join relinks only nodes whose
  entry rises, so a monotone copy from the later state into the earlier
  one ends with the later state's tree.

Nodes are only ever added: a thread joins the tree when a join or copy
first brings it in, and leaves only when a deep copy replaces every
array. These invariants follow and check_integrity checks them:

- clk[t] == 0 for every thread t outside the tree, in every form, so
  an entry is read as clk[t] with no membership test (Entries answers
  0 for a missing key); whole-clock reads (flatten, the deep-copy
  diff) branch on clk's type;
- clk is an Entries mapping iff the clock is sparse, and then it holds
  exactly the root's key, or no key on an empty clock; a detached
  clock holds a non-root node, since a clock turns dense only when it
  links a second node and a monotone copy loses none;
- a thread is in the tree iff it is the root or prv[t] != k, and a
  thread outside it has no children and no siblings (nxt[k + 1 + t],
  nxt[t] and prv[t] are k), nor has the root siblings;
- every non-root node's clk is positive: _move brings in only nodes
  strictly ahead, and keeps self's old root in a copy only at a
  positive time; a deep copy takes its source's tree. So the tree is
  the root plus the nonzero entries, and its size is derived, not
  stored: len(clk) sparse, k - clk.count(0) + (clk[root] == 0) dense.

One more invariant spans clocks, so check_integrity cannot see it: every
clock that holds a link set another clock also holds has shared set, and
no two clocks hold the same clk. shared may stay set after the other
holder has taken its own copies; that costs at most one needless copy.

All traversals are iterative.
"""

from operator import ne

from .vclock import ClockContractError, vt_leq

NIL = -1  # empty link; also the root's aclk, which is never compared


class Entries(dict):
    """clk of a sparse clock: thread id -> entry, 0 for a missing key."""

    __slots__ = ()

    def __missing__(self, t):
        return 0


def _census(clk, root):
    """(nonzero entries, tree size) of a clock's clk and root. The tree is
    the root plus the nonzero entries (module docstring); a sparse clk
    stores exactly the tree's keys, the root's or none."""
    if type(clk) is list:
        nonzero = len(clk) - clk.count(0)
        return nonzero, nonzero + (clk[root] == 0)
    return clk[root] != 0, len(clk)


class TreeClock:
    __slots__ = ("k", "clk", "links", "root", "counter", "shared")

    def __init__(self, size, counter, owner=NIL):
        self.k = size
        self.root = owner
        self.counter = counter
        # sparse until a second node is linked (see _move)
        self.links = None
        self.shared = False  # links held by another clock too
        self.clk = Entries()
        if owner != NIL:  # else empty: the first mutation is a deep copy
            self.clk[owner] = 0

    # --- construction -----------------------------------------------------

    @classmethod
    def owned(cls, tid, size, counter):
        """A thread's own clock: a single root node at time 0."""
        return cls(size, counter, owner=tid)

    @classmethod
    def aux(cls, size, counter):
        """An auxiliary clock (for a lock or a variable): starts empty."""
        return cls(size, counter=counter)

    # --- basic queries ------------------------------------------------------

    def flatten(self):
        return tuple(self._dense())

    def _dense(self):
        """clk as a length-k list: clk itself in the dense form, a new
        list in the sparse form."""
        clk = self.clk
        if type(clk) is list:
            return clk
        dense = [0] * self.k
        for t, v in clk.items():
            dense[t] = v
        return dense

    # --- mutation ------------------------------------------------------------

    def drop_tree(self):
        """Free the link set of a clock whose tree no operation will read
        again, keeping its entries: the detached form (module docstring).
        Until a copy into it brings a tree back, it may be read but must
        not be joined or copied from. A sparse clock has no link set and
        stays as it is."""
        if self.links is not None:
            self.links = None
            self.shared = False

    def increment(self):
        if self.root == NIL:
            raise ClockContractError("increment on an empty tree clock")
        self.clk[self.root] += 1
        c = self.counter
        c.increments += 1
        c.impl_work += 1
        c.vt_work += 1

    def join(self, src):
        """self <- self max src.

        One pass gathers the source nodes that are ahead of self (with
        the two prunings described in the module docstring), moving each
        into place mirroring the source as it finds it, and hangs the
        source root as the newest child of self's root. The monotone copy
        path runs the same pass (see _move). A source that is
        strictly ahead on self's *own* root thread, as its root or deeper,
        is outside this operation's contract: one O(1) test of that entry
        refuses it with ClockContractError before self changes.

        Across calls, one root time names one state of a clock: at each
        root time a clock takes its joins before any other clock copies
        or joins from it, and it takes none at root time 0, which every
        clock already holds. The engine keeps this, as each event
        increments before it joins. The prunings trust it unchecked: a
        sequence that breaks it can leave a later join or copy with a
        wrong tree, which check_integrity (debug) reports and a run
        without debug does not notice.
        """
        if src.root == NIL:
            return
        if self.root == NIL:
            raise ClockContractError("join into an uninitialized tree clock")
        c = self.counter
        c.joins += 1
        z, r = src.root, self.root
        if src.clk[z] <= self.clk[z]:
            c.impl_work += 1  # examined the source root, nothing to do
            return
        if src.clk[r] > self.clk[r]:  # covers z == r, as past the early exit
            raise ClockContractError(
                "join source is ahead on the target's own root thread"
            )
        self._move(src, copy_mode=False)

    def copy_check_monotone(self, src):
        """self <- src. Returns "monotone" or "deep", the path taken.

        One entry decides the path in O(1). If the source has not fallen
        behind self's root time, self <= src (every entry of self is what
        its root thread knew at that time), and the monotone path runs
        join's traversal in copy mode. An empty target, one whose root
        thread has not started (root time 0), or one the source has fallen
        behind takes the deep path, a full structural copy. An empty
        source is outside the contract, and so is a source whose state
        changed at a root time another clock already held (see join):
        the single-entry test and the prunings take that contract on
        trust.
        """
        if src.root == NIL:
            raise ClockContractError("copy from an empty clock")
        c = self.counter
        c.copies += 1
        r = self.root
        if r != NIL:
            mine, theirs = self.clk[r], src.clk[r]
        if r == NIL or not 0 < mine <= theirs:
            self._become_copy_of(src)
            return "deep"
        # a non-monotone target must be caught by the single-entry test
        if c.debug and not vt_leq(self._dense(), src._dense()):
            raise ClockContractError(
                "single-entry monotonicity test missed a non-monotone target")
        if src.links is None:
            if type(src.clk) is list:
                raise ClockContractError("copy from a detached tree clock")
            # self <= src and 0 < mine <= src.clk[r], so src's one node is
            # r; and self holds r alone, as a dense clock holds a non-root
            # node at a positive time that src cannot cover. One entry,
            # counted as _move counts it
            c.impl_work += 2  # examined + relinked
            if mine != theirs:
                c.vt_work += 1
                self.clk[r] = theirs
            if c.debug:
                self.check_integrity()
            return "monotone"
        self._move(src, copy_mode=True)
        return "monotone"

    # --- internals -------------------------------------------------------

    def _move(self, src, copy_mode):
        """Bring the source nodes ahead of self into self's tree in the
        source's shape and tally the work: the body of both join and the
        monotone path of copy_check_monotone. The gather appends to moved
        while it iterates over it, so moved holds the nodes ahead breadth
        first from z, each parent's gathered children together, newest
        first; it counts the examined nodes it skips, so visited is
        len(moved) + skipped. It relinks each node as it appends it, with
        no test: it unlinks the node through its prv slot, which for a node
        new to self is the scratch slot k, and links it after last, which
        starts at the expanded node's first-child slot in nxt and advances
        to each node linked, so siblings keep the source's order, ahead of
        the children self kept (the module docstring says why a node may
        be linked under one that is not yet in place). Entries are written
        after the pass, since the gather reads self's entries from before
        the operation. z comes last: the newest child of self's root (join)
        or the root (copy_mode: the target is wholly superseded, and self's
        old root is always gathered, even with its time unchanged, so it is
        relinked under its source parent). A root-only target turns dense
        here; a root-only source gathers only z. A detached target
        (copy_mode only) runs the gather without relinks and then takes
        the source's tree whole."""
        links = self.links
        k = self.k
        if links is None:
            if type(self.clk) is list:  # detached
                if not copy_mode:
                    raise ClockContractError("join into a detached tree clock")
            else:
                self.clk = self._dense()
                self.links = links = ([NIL] * k, [k] * (2 * k + 1), [k] * (k + 1))
        elif self.shared:  # copy on write: the first relink takes copies
            aclk, nxt, prv = links
            self.links = links = (aclk[:], nxt[:], prv[:])
            self.shared = False
        relink = links is not None
        if relink:
            aclk, nxt, prv = links
        clk, sclk, slinks = self.clk, src.clk, src.links
        root, z = self.root, src.root
        first = k + 1  # nxt[first + p] is p's first child
        moved = [z]
        skipped = 0
        if slinks is None:
            if type(sclk) is list:
                raise ClockContractError("join from a detached tree clock")
        else:
            saclk, snxt, _ = slinks
            keep = root if copy_mode else NIL  # gathered even when not ahead
            for u in moved:
                cu = clk[u]  # self's time for u before this operation
                last = first + u
                v = snxt[last]
                while v != k:
                    if sclk[v] > clk[v] or v == keep:
                        moved.append(v)
                        if relink:
                            before, after = prv[v], nxt[v]
                            nxt[before] = after
                            prv[after] = before
                            aclk[v] = saclk[v]
                            after = nxt[last]
                            nxt[last] = v
                            prv[v] = last
                            nxt[v] = after
                            prv[after] = v
                            last = v
                    else:
                        skipped += 1
                    # later siblings were attached no later than v; if self
                    # already knows u's thread past v's attachment, they are stale
                    if saclk[v] <= cu:
                        break
                    v = snxt[v]
        n = len(moved)
        changed = n  # each is ahead, but maybe z and keep
        if copy_mode:
            changed -= (clk[z] == sclk[z]) + (z != root and clk[root] == sclk[root])
        c = self.counter
        c.impl_work += 2 * n + skipped  # examined (n + skipped) + relinked
        c.vt_work += changed
        if not relink:  # detached: end with the source's tree
            self._take_tree(src)
            if c.debug:
                self.check_integrity()
            return
        for u in moved:
            clk[u] = sclk[u]
        before, after = prv[z], nxt[z]  # z last, once
        nxt[before] = after
        prv[after] = before
        if copy_mode:
            aclk[z] = NIL
            prv[z] = nxt[z] = k
            self.root = z
        else:
            aclk[z] = clk[root]
            p = first + root
            after = nxt[p]
            nxt[p] = z
            prv[z] = p
            nxt[z] = after
            prv[after] = z
        if c.debug:
            self.check_integrity()

    def _become_copy_of(self, src):
        """Full structural copy (the deep path). From a dense source this
        copies clk and takes the link set by reference, marking both
        clocks shared so whichever relinks first copies it (see _move);
        from a sparse source it is an O(1) copy of the one entry. Work is
        everything discarded plus everything built, as if every array
        were copied: 2·|source tree| + |target tree|."""
        c = self.counter
        old, new = self.clk, src.clk
        if src.links is None and type(new) is list:
            raise ClockContractError("copy from a detached tree clock")
        old_nonzero, old_size = _census(old, self.root)
        new_nonzero, new_size = _census(new, src.root)
        c.impl_work += 2 * new_size + old_size
        if type(old) is list and type(new) is list:
            c.vt_work += sum(map(ne, old, new))
        else:
            # few holds at most one key: every nonzero entry of many
            # changes, except where few stores a key of its own
            if type(new) is list:
                few, many, changed = old, new, new_nonzero
            else:
                few, many, changed = new, old, old_nonzero
            for t, v in few.items():
                changed += (many[t] != v) - (many[t] != 0)
            c.vt_work += changed
        self._take_tree(src)
        if c.debug:
            self.check_integrity()

    def _take_tree(self, src):
        """Become src's tree: a copy of its entries and, from a dense
        source, its link set, shared until either side relinks."""
        self.links = src.links
        if src.links is None:
            self.clk = Entries(src.clk)
            self.shared = False
        else:
            self.clk = src.clk[:]
            self.shared = src.shared = True
        self.root = src.root

    # --- diagnostics -------------------------------------------------------

    def dump(self):
        """Tree as indented text, one node per line, children in list
        order: from u's first-child slot nxt[k + 1 + u] along nxt to k.
        A node reached twice (a cyclic link set) raises AssertionError."""
        if self.root == NIL:
            return "(empty)\n"
        if self.links is None:
            if type(self.clk) is list:
                return f"(detached) root={self.root} clk={self.clk}\n"
            return f"tid={self.root} clk={self.clk[self.root]} aclk=⊥\n"
        aclk, nxt, _ = self.links
        k = self.k
        lines = []
        seen = {self.root}
        stack = [(self.root, 0)]
        while stack:
            u, depth = stack.pop()
            a = "⊥" if u == self.root else str(aclk[u])
            lines.append(f"{'  ' * depth}tid={u} clk={self.clk[u]} aclk={a}")
            kids = []
            v = nxt[k + 1 + u]
            while v != k:
                if v in seen:
                    raise AssertionError(f"node {v} reached twice")
                seen.add(v)
                kids.append(v)
                v = nxt[v]
            for v in reversed(kids):
                stack.append((v, depth + 1))
        return "\n".join(lines) + "\n"

    def check_integrity(self):
        """Verify the structural invariants; raises AssertionError if broken.
        The checks are explicit raises, so they hold under python -O.

        Checked: a clock with an Entries clk is sparse, holds no link
        arrays and stores the root's key alone (no key when empty); any
        other clk is a k-list. A k-list without link arrays is the
        detached form: it has a root, is not marked shared, has no
        negative entry and holds a non-root node (module docstring).
        A dense clock's link set has lists of k, 2k+1 and k+1 slots; the
        scratch slot nxt[k] holds k, and no linked node's prv is the
        scratch slot, so no list runs through it; each first-child slot
        and each node's prv name each other, and so do each node's nxt
        and its next sibling's prv; sibling aclk values never increase
        front to back, every non-root node's aclk is at most its
        parent's clk and its clk is positive; and the root and every
        thread outside the tree have no parent and no siblings (prv and
        nxt are k), and an absent thread has clk 0 and no children.
        The last two make the tree the root plus the nonzero entries,
        which _census relies on.
        """
        clk, root, links, k = self.clk, self.root, self.links, self.k
        if type(clk) is Entries:
            if links is not None:
                raise AssertionError("sparse clock holds link arrays")
            keys = [] if root == NIL else [root]
            if list(clk) != keys:
                raise AssertionError(
                    f"sparse clock rooted at {root} stores keys {list(clk)}")
            return
        if type(clk) is not list or len(clk) != k:
            raise AssertionError(f"dense clk is not a {k}-list")
        if root == NIL:
            raise AssertionError("empty clock is dense")
        if links is None:
            if self.shared:
                raise AssertionError("detached clock is marked shared")
            if min(clk) < 0:
                raise AssertionError("detached clock has a negative entry")
            if _census(clk, root)[1] < 2:
                raise AssertionError("dense clock lacks link arrays")
            return
        aclk, nxt, prv = links
        if [len(a) for a in links] != [k, 2 * k + 1, k + 1]:
            raise AssertionError(
                f"link set is not {k}, {2 * k + 1} and {k + 1} slots long")
        if nxt[k] != k:
            raise AssertionError(f"scratch slot nxt[{k}] links to {nxt[k]}")
        if (nxt[root], prv[root]) != (k, k):
            raise AssertionError("root has a parent or siblings")
        seen = [False] * k
        stack = [root]
        while stack:
            u = stack.pop()
            # pushed at most once: a push needs prv[v] == at, and prv[v] is one slot
            seen[u] = True
            at = k + 1 + u  # the nxt slot that holds v
            v = nxt[at]
            last_aclk = None
            while v != k:
                if not 0 <= v < k:
                    raise AssertionError(f"child list of {u} holds {v}, not a thread")
                if prv[v] == k:
                    raise AssertionError(
                        f"child list of {u} runs through the scratch slot at {v}")
                if prv[v] != at:
                    if at > k:
                        raise AssertionError(f"first-child slot of {u} is stale")
                    raise AssertionError(
                        f"prv of {v} is {prv[v]}, but nxt[{at}] holds {v}")
                if clk[v] <= 0:
                    raise AssertionError(f"non-root node {v} has clk {clk[v]}")
                if aclk[v] > clk[u]:
                    raise AssertionError(
                        f"child {v} attached later ({aclk[v]}) than its "
                        f"parent's time ({clk[u]})")
                if last_aclk is not None and aclk[v] > last_aclk:
                    raise AssertionError(
                        f"sibling list of {u} not ordered by attachment time")
                last_aclk = aclk[v]
                stack.append(v)
                at = v
                v = nxt[v]
        for t in range(k):
            if not seen[t]:
                if clk[t] != 0:
                    raise AssertionError(f"absent thread {t} has clk {clk[t]}")
                if prv[t] > k:
                    raise AssertionError(f"absent thread {t} has a parent")
                if nxt[k + 1 + t] != k:
                    raise AssertionError(f"absent thread {t} has children")
                if (nxt[t], prv[t]) != (k, k):
                    raise AssertionError(f"absent thread {t} has siblings")

    def __repr__(self):
        return f"TreeClock(root={self.root}, {list(self.flatten())!r})"
