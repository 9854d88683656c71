"""Reference checks that only tests use: the vector-clock price of a run,
the pruning soundness conditions of a tree clock, a tree clock whose join
and monotone copy take two passes, the brute-force counts of unordered
conflicting pairs and of writes that force a deep last-write copy, a
flat-scan count of unordered pairs from given timestamps, and a splitmix64
generator that computes one output per call."""

from clocktrace.analyses import SHB
from clocktrace.oracle import oracle_order
from clocktrace.trace import READ, WRITE
from clocktrace.treeclock import NIL, TreeClock
from clocktrace.vclock import ClockContractError

_MASK64 = (1 << 64) - 1


def vc_work(run):
    """Entries a flat-vector implementation touches for the same run:
    every join and copy scans thread_count entries, every increment one."""
    c = run.counter
    return run.threads * (c.joins + c.copies) + c.increments


def pruning_violations(a, b):
    """Check the two pruning soundness conditions of tree clock a against
    clock b (either kind; both index entries as b.clk[tid]). Returns a list
    of human-readable violation strings; empty means both hold.

    Direct: if b knows a's node u at least to u's clk, then every
    descendant of u is also known to b. Indirect: if b knows u's thread at
    least to child v's attachment time, then v's whole subtree is known.
    """
    if a.links is None:  # empty or root-only: no edges, nothing to prune
        return []
    aclk, nxt, _ = a.links
    k = a.k
    out = []
    # bottom-up flag: does the subtree under u contain something b misses?
    order = []
    stack = [a.root]
    while stack:
        u = stack.pop()
        order.append(u)
        v = nxt[k + 1 + u]
        while v != k:
            stack.append(v)
            v = nxt[v]
    stale = [False] * a.k  # "subtree of u holds a node b does not know"
    for u in reversed(order):
        miss = a.clk[u] > b.clk[u]
        v = nxt[k + 1 + u]
        while not miss and v != k:
            miss = stale[v]
            v = nxt[v]
        stale[u] = miss
    for u in order:
        known = a.clk[u] <= b.clk[u]
        v = nxt[k + 1 + u]
        while v != k:
            if known and stale[v]:
                out.append(
                    f"direct: node {u} is known to the other clock but its "
                    f"descendant subtree under {v} is not"
                )
            if aclk[v] <= b.clk[u] and (stale[v] or a.clk[v] > b.clk[v]):
                out.append(
                    f"indirect: child {v} of {u} attached within the other "
                    f"clock's knowledge yet its subtree is not covered"
                )
            v = nxt[v]
    return out


class TwoPassTreeClock(TreeClock):
    """A tree clock whose _move gathers first and relinks after, the
    reference for TreeClock._move's single pass. The gather is the same;
    the rebuild walks the gathered list backwards, down to but not
    including z, and links each node at the front of its source parent's
    child list, so each parent's children are linked oldest first and
    end up newest first. It finds each source parent by walking the
    source's child lists, as the link set stores no parents."""

    __slots__ = ()

    def _move(self, src, copy_mode):
        links = self.links
        k = self.k
        if links is None:
            if type(self.clk) is list:
                if not copy_mode:
                    raise ClockContractError("join into a detached tree clock")
            else:
                self.clk = self._dense()
                self.links = links = ([NIL] * k, [k] * (2 * k + 1), [k] * (k + 1))
        elif self.shared:
            self.links = links = tuple(a[:] for a in links)
            self.shared = False
        clk, sclk, slinks = self.clk, src.clk, src.links
        root, z = self.root, src.root
        first = k + 1
        moved = [z]
        skipped = 0
        if slinks is None:
            if type(sclk) is list:
                raise ClockContractError("join from a detached tree clock")
        else:
            saclk, snxt, _ = slinks
            keep = root if copy_mode else NIL
            for u in moved:
                cu = clk[u]
                v = snxt[first + u]
                while v != k:
                    if sclk[v] > clk[v] or v == keep:
                        moved.append(v)
                    else:
                        skipped += 1
                    if saclk[v] <= cu:
                        break
                    v = snxt[v]
        n = len(moved)
        changed = n
        if copy_mode:
            changed -= (clk[z] == sclk[z]) + (z != root and clk[root] == sclk[root])
        c = self.counter
        c.impl_work += 2 * n + skipped
        c.vt_work += changed
        if links is None:
            self._take_tree(src)
            if c.debug:
                self.check_integrity()
            return
        sparent = {}
        if slinks is not None:
            stack = [z]
            while stack:
                u = stack.pop()
                v = snxt[first + u]
                while v != k:
                    sparent[v] = u
                    stack.append(v)
                    v = snxt[v]
        aclk, nxt, prv = links
        for u in moved[:0:-1]:
            before, after = prv[u], nxt[u]
            nxt[before] = after
            prv[after] = before
            clk[u] = sclk[u]
            aclk[u] = saclk[u]
            p = first + sparent[u]
            after = nxt[p]
            nxt[p] = u
            prv[u] = p
            nxt[u] = after
            prv[after] = u
        before, after = prv[z], nxt[z]
        nxt[before] = after
        prv[after] = before
        clk[z] = sclk[z]
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


def oracle_unordered_pairs(trace, po):
    """Count of conflicting access pairs (same variable, at least one
    write) that the partial order leaves unordered."""
    leq = oracle_order(trace, po)
    by_var = {}
    count = 0
    for i, ev in enumerate(trace.events):
        if ev.op == READ or ev.op == WRITE:
            prior = by_var.setdefault(ev.target, [])
            wr = ev.op == WRITE
            for j, jw in prior:
                if (jw or wr) and not leq(j, i):
                    count += 1
            prior.append((i, wr))
    return count


def flat_unordered_pairs(trace, stamps):
    """Count of unordered conflicting access pairs, given each event's
    timestamp: every access scans its variable's whole log of prior
    accesses (tid, local time, is write), and a prior one is unordered
    iff the access's timestamp is below its local time in its thread.
    Quadratic per variable, but not capped like the oracle."""
    logs = {}
    count = 0
    for ev, stamp in zip(trace.events, stamps):
        if ev.op == READ or ev.op == WRITE:
            log = logs.setdefault(ev.target, [])
            wr = ev.op == WRITE
            for t2, c2, w2 in log:
                if (w2 or wr) and stamp[t2] < c2:
                    count += 1
            log.append((ev.tid, stamp[ev.tid], wr))
    return count


def oracle_forced_deep_copies(trace):
    """Writes whose preceding write on the same variable is not ordered
    before them under the stronger-than-races order (SHB): exactly the
    occasions on which a last-write clock cannot be updated monotonically."""
    leq = oracle_order(trace, SHB)
    last_write = {}
    n = 0
    for i, ev in enumerate(trace.events):
        if ev.op == WRITE:
            w = last_write.get(ev.target)
            if w is not None and not leq(w, i):
                n += 1
            last_write[ev.target] = i
    return n


class OneDrawSplitMix64:
    """splitmix64 stepped and mixed one output per call, the reference for
    tracegen.SplitMix64's blocks of outputs: the same next() and below()."""

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound):
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must be in 1..2**64, got {bound}")
        limit = (1 << 64) - (1 << 64) % bound
        while True:
            z = self.next()
            if z < limit:
                return z % bound
