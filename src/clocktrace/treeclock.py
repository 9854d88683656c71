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

Nodes live in six dense arrays indexed by thread id (clk, aclk, parent,
head, nxt, prv), so thread-id lookup is O(1) and a structural copy is an
array copy. Nodes are only ever added: a thread joins the tree when a
join or copy first brings it in, and leaves only when a deep copy
replaces every array. Three invariants follow and check_integrity
asserts them:

- clk[t] == 0 for every thread t outside the tree, so an entry is read
  as clk[t] with no membership test, and flatten is tuple(clk);
- a thread is in the tree iff it is the root or parent[t] != NIL, and a
  thread outside it has no children (head[t] == NIL);
- nodes counts the threads in the tree.

An empty clock (aux) holds a zero clk tuple and no link arrays. Its first
mutation is always a deep copy, which allocates exactly the arrays it
keeps. All traversals are iterative.
"""

from operator import ne

from .vclock import ClockContractError

NIL = -1  # empty link
BOT = -1  # "no attachment time" marker for the root; never compared, only shown


class TreeClock:
    __slots__ = (
        "k", "clk", "aclk", "parent", "head", "nxt", "prv", "nodes",
        "root", "counter",
    )

    def __init__(self, size, counter=None, owner=NIL):
        self.k = size
        self.root = owner
        self.counter = counter
        if owner == NIL:  # empty: no link arrays until the first copy
            self.clk = (0,) * size
            self.aclk = self.parent = self.head = self.nxt = self.prv = None
            self.nodes = 0
            return
        self.clk = [0] * size
        self.aclk = [BOT] * size
        self.parent = [NIL] * size
        self.head = [NIL] * size  # first (most recently attached) child
        self.nxt = [NIL] * size   # next younger sibling
        self.prv = [NIL] * size   # previous (more recently attached) sibling
        self.nodes = 1

    # --- construction -----------------------------------------------------

    @classmethod
    def owned(cls, tid, size, counter=None):
        """A thread's own clock: a single root node at time 0."""
        return cls(size, counter, owner=tid)

    @classmethod
    def aux(cls, size, counter=None):
        """An auxiliary clock (for a lock or a variable): starts empty."""
        return cls(size, counter=counter)

    # --- basic queries ------------------------------------------------------

    def is_empty(self):
        return self.root == NIL

    def get(self, tid):
        return self.clk[tid]

    def flatten(self):
        return tuple(self.clk)

    def leq(self, other):
        """True iff every entry of self is <= the matching entry of other.
        Walks only self's nodes."""
        stack = [self.root] if self.root != NIL else []
        while stack:
            u = stack.pop()
            if self.clk[u] > other.get(u):
                return False
            v = self.head[u]
            while v != NIL:
                stack.append(v)
                v = self.nxt[v]
        return True

    # --- mutation ------------------------------------------------------------

    def increment(self, amount=1):
        if self.root == NIL:
            raise ClockContractError("increment on an empty tree clock")
        self.clk[self.root] += amount
        c = self.counter
        if c is not None:
            c.increments += 1
            c.impl_work += 1
            if amount:
                c.vt_work += 1

    def join(self, src):
        """self <- self max src.

        Gathers the source nodes that are ahead of self (with the two
        prunings described in the module docstring), detaches self's stale
        counterparts, rebuilds them mirroring the source, and hangs the
        rebuilt subtree at the front of self's root. A source that is
        strictly ahead on self's *own* root thread is outside this
        operation's contract.
        """
        c = self.counter
        if src.root == NIL:
            return
        if self.root == NIL:
            raise ClockContractError("join into an uninitialized tree clock")
        if c is not None:
            c.joins += 1
        z = src.root
        if src.clk[z] <= self.clk[z]:
            if c is not None:
                c.impl_work += 1  # examined the source root, nothing to do
            return
        if z == self.root:
            raise ClockContractError(
                "join source is ahead on the target's own root thread"
            )
        stack, visited = self._gather(src, copy_mode=False)
        self._detach_and_attach(src, stack, z, copy_mode=False)
        # hang the rebuilt subtree as the newest child of our root
        self.aclk[z] = self.clk[self.root]
        self._link_front(self.root, z)
        if c is not None:
            c.impl_work += visited + len(stack)  # examined + rebuilt
            if c.debug:
                self.check_integrity()

    def monotone_copy(self, src):
        """self <- src, assuming self <= src entrywise.

        Like join, but the target is wholly superseded: the result's root
        moves to the source's root thread. The node for self's current root
        thread is always regathered (even if its time is unchanged) so it
        can be reseated wherever the source holds it.
        """
        c = self.counter
        if src.root == NIL:
            raise ClockContractError("monotone copy from an empty clock")
        if self.root == NIL:
            self._become_copy_of(src)
            return
        if c is not None:
            c.copies += 1
            if c.debug and not self.leq(src):
                raise ClockContractError("monotone copy target is not below source")
        z = src.root
        stack, visited = self._gather(src, copy_mode=True)
        self._detach_and_attach(src, stack, z, copy_mode=True)
        self.aclk[z] = BOT
        self.parent[z] = NIL
        self.prv[z] = NIL
        self.nxt[z] = NIL
        self.root = z
        if c is not None:
            c.impl_work += visited + len(stack)  # examined + rebuilt
            if c.debug:
                self.check_integrity()

    def copy_check_monotone(self, src):
        """Copy src into self, deciding in O(1) whether the cheap monotone
        path applies: it does iff the source's entry for self's root thread
        has not fallen behind self's root time. Returns "monotone" or
        "deep". An empty target takes the deep (full structural) path; an
        empty source is outside the contract, as for monotone_copy."""
        if src.root == NIL:
            raise ClockContractError("copy from an empty clock")
        if self.root == NIL:
            self._become_copy_of(src)
            return "deep"
        r = self.root
        monotone = src.clk[r] >= self.clk[r]
        if self.counter is not None and self.counter.debug:
            # a non-monotone target must be caught by the single-entry test
            if monotone and not self.leq(src):
                raise ClockContractError(
                    "single-entry monotonicity test missed a non-monotone target"
                )
        if monotone:
            self.monotone_copy(src)
            return "monotone"
        self._become_copy_of(src)
        return "deep"

    # --- internals -------------------------------------------------------

    def _gather(self, src, copy_mode):
        """Walk src from its root, collecting nodes ahead of self in
        post-order (so the stack pops parents before children). Returns
        (stack, examined-node count)."""
        clk = self.clk
        z = src.root
        # (node, next child to look at); the root itself is always gathered
        frames = [(z, src.head[z])]
        out = []
        visited = 1
        while frames:
            u, v = frames[-1]
            if v == NIL:
                frames.pop()
                out.append(u)
                continue
            visited += 1
            descend = src.clk[v] > clk[v]
            if copy_mode and v == self.root:
                descend = True  # the old root must be regathered to be reseated
            # later siblings were attached no later than v; if we already
            # know the parent's thread past v's attachment, they are stale
            stop = src.aclk[v] <= clk[u]
            frames[-1] = (u, NIL if stop else src.nxt[v])
            if descend:
                if v == self.root and not copy_mode:
                    raise ClockContractError(
                        "join source is ahead on the target's own root thread"
                    )
                frames.append((v, src.head[v]))
        return out, visited

    def _detach_and_attach(self, src, stack, z, copy_mode):
        """Unlink every gathered node from self, then rebuild them in
        stack order (parents first) mirroring the source's shape. A
        gathered thread outside the tree already reads clk 0 and has no
        children, so it needs no reset to join."""
        parent, root = self.parent, self.root
        fresh = 0
        for u in stack:
            if parent[u] != NIL:
                self._unlink(u)
            elif u != root:
                fresh += 1
        self.nodes += fresh
        for i in range(len(stack) - 1, -1, -1):
            u = stack[i]
            newclk = src.clk[u]
            if copy_mode:
                if self.counter is not None and newclk != self.clk[u]:
                    self.counter.vt_work += 1
                self.clk[u] = newclk
            elif newclk > self.clk[u]:
                if self.counter is not None:
                    self.counter.vt_work += 1
                self.clk[u] = newclk
            if u != z:
                self.aclk[u] = src.aclk[u]
                self._link_front(src.parent[u], u)

    def _unlink(self, u):
        p, before, after = self.parent[u], self.prv[u], self.nxt[u]
        if before != NIL:
            self.nxt[before] = after
        else:
            self.head[p] = after
        if after != NIL:
            self.prv[after] = before
        self.parent[u] = NIL
        self.prv[u] = NIL
        self.nxt[u] = NIL

    def _link_front(self, p, u):
        old = self.head[p]
        self.head[p] = u
        self.prv[u] = NIL
        self.nxt[u] = old
        if old != NIL:
            self.prv[old] = u
        self.parent[u] = p

    def _become_copy_of(self, src):
        """Full structural copy (the deep path). Arena layout makes this an
        array copy; work is everything discarded plus everything built."""
        c = self.counter
        if c is not None:
            c.copies += 1
            c.impl_work += 2 * src.nodes + self.nodes
            c.vt_work += sum(map(ne, self.clk, src.clk))
        self.clk = src.clk[:]
        self.aclk = src.aclk[:]
        self.parent = src.parent[:]
        self.head = src.head[:]
        self.nxt = src.nxt[:]
        self.prv = src.prv[:]
        self.nodes = src.nodes
        self.root = src.root
        if c is not None and c.debug:
            self.check_integrity()

    # --- diagnostics -------------------------------------------------------

    def dump(self):
        """Tree as indented text, one node per line, children in list order."""
        if self.root == NIL:
            return "(empty)\n"
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

        Checked: parent/sibling links are mutually consistent, sibling
        aclk values never increase front to back, every non-root node's
        aclk is at most its parent's clk, the node count equals the
        number of nodes reachable from the root, and every thread outside
        the tree has clk 0, no parent and no children.
        """
        if self.root == NIL:
            assert self.nodes == 0, f"empty clock counts {self.nodes} nodes"
            assert not any(self.clk), "empty clock has a nonzero entry"
            return
        assert self.parent[self.root] == NIL, "root has a parent"
        seen = [False] * self.k
        stack = [self.root]
        while stack:
            u = stack.pop()
            assert not seen[u], f"node {u} reached twice"
            seen[u] = True
            v = self.head[u]
            last_aclk = None
            while v != NIL:
                assert self.parent[v] == u, f"parent link of {v} is stale"
                if self.prv[v] == NIL:
                    assert self.head[u] == v
                else:
                    assert self.nxt[self.prv[v]] == v
                assert self.aclk[v] <= self.clk[u], (
                    f"child {v} attached later ({self.aclk[v]}) than its "
                    f"parent's time ({self.clk[u]})"
                )
                if last_aclk is not None:
                    assert self.aclk[v] <= last_aclk, (
                        f"sibling list of {u} not ordered by attachment time"
                    )
                last_aclk = self.aclk[v]
                stack.append(v)
                v = self.nxt[v]
        reached = sum(seen)
        assert reached == self.nodes, (
            f"{reached} nodes reachable but {self.nodes} counted"
        )
        for t in range(self.k):
            if not seen[t]:
                assert self.clk[t] == 0, f"absent thread {t} has clk {self.clk[t]}"
                assert self.parent[t] == NIL, f"absent thread {t} has a parent"
                assert self.head[t] == NIL, f"absent thread {t} has children"

    def __repr__(self):
        return f"TreeClock(root={self.root}, {list(self.flatten())!r})"


def pruning_violations(a, b):
    """Check the two pruning soundness conditions of tree clock a against
    clock b (any clock with .get). Returns a list of human-readable
    violation strings; empty means both hold.

    Direct: if b knows a's node u at least to u's clk, then every
    descendant of u is also known to b. Indirect: if b knows u's thread at
    least to child v's attachment time, then v's whole subtree is known.
    """
    if a.root == NIL:
        return []
    out = []
    # bottom-up flag: does the subtree under u contain something b misses?
    order = []
    stack = [a.root]
    while stack:
        u = stack.pop()
        order.append(u)
        v = a.head[u]
        while v != NIL:
            stack.append(v)
            v = a.nxt[v]
    stale = [False] * a.k  # "subtree of u holds a node b does not know"
    for u in reversed(order):
        miss = a.clk[u] > b.get(u)
        v = a.head[u]
        while not miss and v != NIL:
            miss = stale[v]
            v = a.nxt[v]
        stale[u] = miss
    for u in order:
        known = a.clk[u] <= b.get(u)
        v = a.head[u]
        while v != NIL:
            if known and stale[v]:
                out.append(
                    f"direct: node {u} is known to the other clock but its "
                    f"descendant subtree under {v} is not"
                )
            if a.aclk[v] <= b.get(u) and (stale[v] or a.clk[v] > b.get(v)):
                out.append(
                    f"indirect: child {v} of {u} attached within the other "
                    f"clock's knowledge yet its subtree is not covered"
                )
            v = a.nxt[v]
    return out
