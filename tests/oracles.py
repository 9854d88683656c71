"""Reference checks that only tests use: the vector-clock price of a run,
the pruning soundness conditions of a tree clock, and the brute-force counts
of unordered conflicting pairs and of writes that force a deep last-write
copy."""

from clocktrace.analyses import SHB
from clocktrace.oracle import oracle_order
from clocktrace.trace import READ, WRITE
from clocktrace.treeclock import NIL


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
    if a.head is None:  # empty or root-only: no edges, nothing to prune
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
        miss = a.clk[u] > b.clk[u]
        v = a.head[u]
        while not miss and v != NIL:
            miss = stale[v]
            v = a.nxt[v]
        stale[u] = miss
    for u in order:
        known = a.clk[u] <= b.clk[u]
        v = a.head[u]
        while v != NIL:
            if known and stale[v]:
                out.append(
                    f"direct: node {u} is known to the other clock but its "
                    f"descendant subtree under {v} is not"
                )
            if a.aclk[v] <= b.clk[u] and (stale[v] or a.clk[v] > b.clk[v]):
                out.append(
                    f"indirect: child {v} of {u} attached within the other "
                    f"clock's knowledge yet its subtree is not covered"
                )
            v = a.nxt[v]
    return out


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
