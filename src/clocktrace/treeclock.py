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
(_move) in two passes. The gather pass walks the source in pre-order,
pushing siblings newest first so they pop oldest first. The rebuild pass
visits the gathered nodes in that order and, for each, unlinks it from
self (or counts it as new), takes the source's clk and links it at the
front of its source parent's child list. Parents are thus placed before
their children, and siblings linked oldest first end up newest first, as
in the source, ahead of the children self kept.

Nodes live in dense arrays indexed by thread id, so thread-id lookup is
O(1). A structural copy from a dense clock copies one list, clk, and
shares the five link arrays: the copy and its source read the same link
arrays until either side relinks, and _move, the only code that relinks
in place, first takes private copies (copy on write). clk is always
copied: in an analysis the source of a deep copy is the acting thread's
clock, whose next increment rewrites it. A clock takes one of two
storage forms:

- sparse: clk is an Entries mapping holding the root's entry alone, or
  nothing on an empty clock, and the five link arrays (aclk, parent,
  head, nxt, prv) are None. An empty clock (aux) and a root-only clock
  (a fresh owned clock, or a copy of one) take this form, and on a
  hub/star trace almost every clock stays in it, at O(1) memory. The
  first mutation of an empty clock is always a deep copy.
- dense: clk and the five link arrays are length-k lists. _move turns
  a sparse clock dense when it first links a second node; a deep copy
  from a sparse source turns a dense clock sparse again.

Nodes are only ever added: a thread joins the tree when a join or copy
first brings it in, and leaves only when a deep copy replaces every
array. These invariants follow and check_integrity checks them:

- clk[t] == 0 for every thread t outside the tree, in either form, so
  an entry is read as clk[t] with no membership test (Entries answers
  0 for a missing key); whole-clock reads (flatten, the deep-copy
  diff) branch on the form;
- clk is an Entries mapping iff the link arrays are None, and then it
  holds exactly the root's key, or no key on an empty clock;
- a thread is in the tree iff it is the root or parent[t] != NIL, and a
  thread outside it has no children (head[t] == NIL);
- nodes counts the threads in the tree, and is at most 1 in the sparse
  form.

One more invariant spans clocks, so check_integrity cannot see it: every
clock that holds a link array another clock also holds has shared set,
and no two clocks hold the same clk. shared may stay set after the other
holder has taken its own copies; that costs at most one needless copy.

All traversals are iterative.
"""

from operator import ne

from .vclock import ClockContractError, vt_leq

NIL = -1  # empty link
BOT = -1  # "no attachment time" marker for the root; never compared, only shown


class Entries(dict):
    """clk of a sparse clock: thread id -> entry, 0 for a missing key."""

    __slots__ = ()

    def __missing__(self, t):
        return 0


class TreeClock:
    __slots__ = (
        "k", "clk", "aclk", "parent", "head", "nxt", "prv", "nodes",
        "root", "counter", "shared",
    )

    def __init__(self, size, counter, owner=NIL):
        self.k = size
        self.root = owner
        self.counter = counter
        # sparse until a second node is linked (see _move)
        self.aclk = self.parent = self.head = self.nxt = self.prv = None
        self.shared = False  # link arrays held by another clock too
        self.clk = Entries()
        if owner == NIL:  # empty: the first mutation is a deep copy
            self.nodes = 0
        else:
            self.clk[owner] = 0
            self.nodes = 1

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

        One gather pass collects the source nodes that are ahead of self
        (with the two prunings described in the module docstring); one
        rebuild pass moves each into place mirroring the source and hangs
        the source root as the newest child of self's root. The monotone
        copy path runs the same two passes (see _move). A source that is
        strictly ahead on self's *own* root thread is outside this
        operation's contract.
        """
        if src.root == NIL:
            return
        if self.root == NIL:
            raise ClockContractError("join into an uninitialized tree clock")
        c = self.counter
        c.joins += 1
        z = src.root
        if src.clk[z] <= self.clk[z]:
            c.impl_work += 1  # examined the source root, nothing to do
            return
        if z == self.root:
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
        source is outside the contract.
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
        if self.head is None and src.head is None and src.root == r:
            # both hold r alone: one entry, counted as _move counts it
            c.impl_work += 2  # examined + rebuilt
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
        source's shape (gather, then rebuild; see the module docstring) and
        tally the work. This is the body of both join and the monotone path
        of copy_check_monotone. The source root becomes the newest child of
        self's root (join) or the root (copy_mode: the target is wholly
        superseded, and self's old root is always gathered, even with its
        time unchanged, so the rebuild can reseat it). A root-only target
        turns dense here; a root-only source gathers only z."""
        if self.head is None:
            k = self.k
            self.clk = self._dense()
            self.aclk = [BOT] * k
            self.parent = [NIL] * k
            self.head = [NIL] * k  # first (most recently attached) child
            self.nxt = [NIL] * k   # next younger sibling
            self.prv = [NIL] * k   # previous (more recently attached) sibling
        elif self.shared:  # copy on write: the first relink takes copies
            self.aclk, self.parent, self.head, self.nxt, self.prv = (
                self.aclk[:], self.parent[:], self.head[:], self.nxt[:],
                self.prv[:])
            self.shared = False
        clk, aclk, parent, head, nxt, prv = (
            self.clk, self.aclk, self.parent, self.head, self.nxt, self.prv)
        sclk, saclk, sparent, shead, snxt = (
            src.clk, src.aclk, src.parent, src.head, src.nxt)
        root, z = self.root, src.root
        visited = 1
        if shead is None:
            moved = [z]
        else:
            keep = root if copy_mode else NIL  # gathered even when not ahead
            guard = NIL if copy_mode else root  # must never be ahead in a join
            moved = []
            stack = [z]
            while stack:
                u = stack.pop()
                moved.append(u)
                cu = clk[u]  # self's time for u before this operation
                v = shead[u]
                while v != NIL:
                    visited += 1
                    if sclk[v] > clk[v]:
                        if v == guard:
                            raise ClockContractError(
                                "join source is ahead on the target's own root thread"
                            )
                        stack.append(v)
                    elif v == keep:
                        stack.append(v)
                    # later siblings were attached no later than v; if self
                    # already knows u's thread past v's attachment, they are stale
                    if saclk[v] <= cu:
                        break
                    v = snxt[v]
        fresh = changed = 0
        for u in moved:
            p = parent[u]
            if p != NIL:
                before, after = prv[u], nxt[u]
                if before != NIL:
                    nxt[before] = after
                else:
                    head[p] = after
                if after != NIL:
                    prv[after] = before
            elif u != root:
                fresh += 1  # outside the tree: clk 0 and no children
            if clk[u] != sclk[u]:
                clk[u] = sclk[u]
                changed += 1
            if u == z:  # the first node moved
                if copy_mode:
                    aclk[u] = BOT
                    parent[u] = prv[u] = nxt[u] = NIL
                    continue
                p = root
                aclk[u] = clk[root]
            else:
                p = sparent[u]
                aclk[u] = saclk[u]
            after = head[p]
            head[p] = u
            prv[u] = NIL
            nxt[u] = after
            if after != NIL:
                prv[after] = u
            parent[u] = p
        self.nodes += fresh
        if copy_mode:
            self.root = z
        c = self.counter
        c.impl_work += visited + len(moved)  # examined + rebuilt
        c.vt_work += changed
        if c.debug:
            self.check_integrity()

    def _become_copy_of(self, src):
        """Full structural copy (the deep path). From a dense source this
        copies clk and takes the five link arrays by reference, marking
        both clocks shared so whichever relinks first copies them (see
        _move); from a sparse source it is an O(1) copy of the one entry.
        Work is everything discarded plus everything built, as if every
        array were copied."""
        c = self.counter
        c.impl_work += 2 * src.nodes + self.nodes
        old, new = self.clk, src.clk
        if type(old) is list and type(new) is list:
            c.vt_work += sum(map(ne, old, new))
        else:
            # few holds at most one key: every nonzero entry of many
            # changes, except where few stores a key of its own
            few, many = (old, new) if type(new) is list else (new, old)
            if type(many) is list:
                changed = self.k - many.count(0)
            else:
                changed = sum(map(bool, many.values()))
            for t, v in few.items():
                changed += (many[t] != v) - (many[t] != 0)
            c.vt_work += changed
        if src.head is None:
            self.clk = Entries(new)
            self.aclk = self.parent = self.head = self.nxt = self.prv = None
            self.shared = False
        else:
            self.clk = new[:]
            self.aclk, self.parent, self.head, self.nxt, self.prv = (
                src.aclk, src.parent, src.head, src.nxt, src.prv)
            self.shared = src.shared = True
        self.nodes = src.nodes
        self.root = src.root
        if c.debug:
            self.check_integrity()

    # --- diagnostics -------------------------------------------------------

    def dump(self):
        """Tree as indented text, one node per line, children in list order."""
        if self.root == NIL:
            return "(empty)\n"
        if self.head is None:
            return f"tid={self.root} clk={self.clk[self.root]} aclk=⊥\n"
        lines = []
        stack = [(self.root, 0)]
        while stack:
            u, depth = stack.pop()
            a = "⊥" if u == self.root else str(self.aclk[u])
            lines.append(f"{'  ' * depth}tid={u} clk={self.clk[u]} aclk={a}")
            kids = []
            v = self.head[u]
            while v != NIL:
                kids.append(v)
                v = self.nxt[v]
            for v in reversed(kids):
                stack.append((v, depth + 1))
        return "\n".join(lines) + "\n"

    def check_integrity(self):
        """Verify the structural invariants; raises AssertionError if broken.
        The checks are explicit raises, so they hold under python -O.

        Checked: the clock is sparse (clk an Entries mapping) exactly when
        its five link arrays are all None, and then stores the root's key
        alone (no key when empty) and counts that one node; otherwise
        parent/sibling links are mutually consistent, sibling aclk values
        never increase front to back, every non-root node's aclk is at
        most its parent's clk, the node count equals the number of nodes
        reachable from the root, and every thread outside the tree has
        clk 0, no parent and no children.
        """
        clk, root = self.clk, self.root
        links = (self.aclk, self.parent, self.head, self.nxt, self.prv)
        if type(clk) is Entries:
            if links != (None,) * 5:
                raise AssertionError("sparse clock holds link arrays")
            keys = [] if root == NIL else [root]
            if list(clk) != keys:
                raise AssertionError(
                    f"sparse clock rooted at {root} stores keys {list(clk)}")
            if root == NIL:
                if self.nodes != 0:
                    raise AssertionError(
                        f"empty clock counts {self.nodes} nodes")
            elif self.nodes != 1:
                raise AssertionError(
                    f"1 node reachable without links but {self.nodes} counted")
            return
        if type(clk) is not list or len(clk) != self.k:
            raise AssertionError(f"dense clk is not a {self.k}-list")
        if None in links:
            raise AssertionError("dense clock lacks link arrays")
        if root == NIL:
            raise AssertionError("empty clock is dense")
        aclk, parent, head, nxt, prv = links
        if parent[root] != NIL:
            raise AssertionError("root has a parent")
        seen = [False] * self.k
        stack = [root]
        while stack:
            u = stack.pop()
            if seen[u]:
                raise AssertionError(f"node {u} reached twice")
            seen[u] = True
            v = head[u]
            last_aclk = None
            while v != NIL:
                if parent[v] != u:
                    raise AssertionError(f"parent link of {v} is stale")
                if (head[u] if prv[v] == NIL else nxt[prv[v]]) != v:
                    raise AssertionError(f"sibling links of {v} are stale")
                if aclk[v] > clk[u]:
                    raise AssertionError(
                        f"child {v} attached later ({aclk[v]}) than its "
                        f"parent's time ({clk[u]})")
                if last_aclk is not None and aclk[v] > last_aclk:
                    raise AssertionError(
                        f"sibling list of {u} not ordered by attachment time")
                last_aclk = aclk[v]
                stack.append(v)
                v = nxt[v]
        reached = sum(seen)
        if reached != self.nodes:
            raise AssertionError(
                f"{reached} nodes reachable but {self.nodes} counted")
        for t in range(self.k):
            if not seen[t]:
                if clk[t] != 0:
                    raise AssertionError(f"absent thread {t} has clk {clk[t]}")
                if parent[t] != NIL:
                    raise AssertionError(f"absent thread {t} has a parent")
                if head[t] != NIL:
                    raise AssertionError(f"absent thread {t} has children")

    def __repr__(self):
        return f"TreeClock(root={self.root}, {list(self.flatten())!r})"
