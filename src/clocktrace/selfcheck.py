"""Embedded fixture suite behind the `selfcheck` CLI command.

Everything here is self-contained and deterministic: a 16-event lock
trace with its expected per-event timestamps and two expected tree
shapes, two small traces spotlighting the join prunings (the final
acquire must touch fewer nodes than a flat vector scan), pinned
vector-clock arithmetic, and a randomized mini-sweep. Every fixture
trace, and every sweep trace under every order, goes through
metrics.cross_check, the comparison behind `analyze --clock both
--oracle --debug`: both clock kinds against each other and against the
brute-force oracle, with debug checks on, and each run through
verify_bounds. What a fixture adds is only what cross_check cannot
know: the pinned timestamps, tree shapes and spotlight costs.

Each check returns a list of failure strings; `run` aggregates them.
"""

from .analyses import CLOCK_KINDS, HB, ORDERS, Engine
from .metrics import cross_check, verify_bounds
from .oracle import oracle_timestamps
from .trace import parse_trace
from .tracegen import random_trace
from .vclock import vt_leq

# A five-thread, three-lock trace whose processing exercises joins that
# carry whole subtrees, nested acquires, and an early-exit reacquire.
WALKTHROUGH_TRACE = """\
t1 acq l1
t1 rel l1
t4 acq l2
t4 rel l2
t5 acq l3
t5 rel l3
t3 acq l1
t3 acq l3
t3 rel l3
t3 rel l1
t4 acq l2
t4 rel l2
t2 acq l1
t2 rel l1
t2 acq l2
t2 rel l2
"""

# Thread ids below are interned in order of first appearance:
# t1 -> 0, t4 -> 1, t5 -> 2, t3 -> 3, t2 -> 4.
WALKTHROUGH_TIMESTAMPS = [
    (1, 0, 0, 0, 0),
    (2, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 2, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 2, 0, 0),
    (2, 0, 0, 1, 0),
    (2, 0, 2, 2, 0),
    (2, 0, 2, 3, 0),
    (2, 0, 2, 4, 0),
    (0, 3, 0, 0, 0),
    (0, 4, 0, 0, 0),
    (2, 0, 2, 4, 1),
    (2, 0, 2, 4, 2),
    (2, 4, 2, 4, 3),
    (2, 4, 2, 4, 4),
]

# Tree of the acting thread right after the eighth event (t3 has pulled
# l1's and l3's releases under its root)...
WALKTHROUGH_DUMP_E8 = (
    "tid=3 clk=2 aclk=⊥\n"
    "  tid=2 clk=2 aclk=2\n"
    "  tid=0 clk=2 aclk=1\n"
)
# ...and after the fifteenth (t2 adopts t4's root and keeps t3's whole
# subtree in place one level down).
WALKTHROUGH_DUMP_E15 = (
    "tid=4 clk=3 aclk=⊥\n"
    "  tid=1 clk=4 aclk=3\n"
    "  tid=3 clk=4 aclk=1\n"
    "    tid=2 clk=2 aclk=2\n"
    "    tid=0 clk=2 aclk=1\n"
)


def _sync(t, lock):
    return f"{t} acq {lock}\n{t} rel {lock}\n"


# Direct-monotonicity showcase: the final acquire pulls a clock whose
# subtree is already fully known to the target, so the traversal stops
# at the subtree's root instead of walking all of it.
INTUITION_DIRECT = (
    _sync("t1", "l0") + _sync("t2", "l0") + _sync("t3", "l0")
    + _sync("t2", "l1") + _sync("t4", "l1") + _sync("t3", "l2")
    + "t4 acq l2\n"
)

# Indirect-monotonicity showcase: a child edge carries an attachment
# time the target already covers, so the siblings attached before it
# are skipped without being visited.
INTUITION_INDIRECT = (
    _sync("t1", "l0") + _sync("t3", "l0") + _sync("t2", "l1")
    + _sync("t3", "l1") + _sync("t4", "l1") + _sync("t3", "l2")
    + "t4 acq l2\n"
)

# Cost of the spotlight event (local increment plus the acquire's join):
# the tree walk touches 3 nodes, a flat vector always scans all 4.
INTUITION_TREE_COST = 4
INTUITION_VECTOR_COST = 5

# Pinned six-thread example: one timestamp strictly below another, and a
# third, incomparable with the first, whose join with it is the second.
VECTOR_SMALL = (11, 6, 5, 32, 14, 20)
VECTOR_LARGE = (28, 6, 9, 45, 17, 26)
VECTOR_OTHER = (28, 5, 9, 45, 17, 26)

# Seeds of the random traces the sweep checks against the oracle.
SWEEP_SEEDS = range(6)


def _cross_check(where, trace, po=HB):
    """Failures of one cross_check of trace under po, as `analyze --clock
    both --oracle --debug` runs it, and of verify_bounds on its runs."""
    runs, kind_problems, oracle_problems = cross_check(
        trace, po, CLOCK_KINDS, oracle=True, debug=True)
    fails = [f"{where}: {p}" for p in kind_problems + oracle_problems]
    for run in runs:
        try:
            verify_bounds(run)
        except AssertionError as exc:
            fails.append(f"{where} {run.clock_kind}: {exc}")
    return fails


def check_walkthrough():
    trace = parse_trace(WALKTHROUGH_TRACE)
    fails = _cross_check("walkthrough", trace)
    if oracle_timestamps(trace, HB) != WALKTHROUGH_TIMESTAMPS:
        fails.append("walkthrough: oracle disagrees with pinned timestamps")
    engine = Engine(HB, trace.thread_count, "tree")
    dumps = [engine.process(ev).dump() for ev in trace.events]
    for i, want in ((7, WALKTHROUGH_DUMP_E8), (14, WALKTHROUGH_DUMP_E15)):
        if dumps[i] != want:
            fails.append(f"walkthrough: tree after event {i + 1}:\n{dumps[i]}")
    return fails


def check_intuitions():
    fails = []
    for name, text in (("direct", INTUITION_DIRECT), ("indirect", INTUITION_INDIRECT)):
        trace = parse_trace(text)
        fails += _cross_check(f"intuition {name}", trace)
        for kind, want in (("tree", INTUITION_TREE_COST),
                           ("vector", INTUITION_VECTOR_COST)):
            engine = Engine(HB, trace.thread_count, kind)
            for ev in trace.events[:-1]:
                engine.process(ev)
            before = engine.counter.impl_work
            engine.process(trace.events[-1])
            cost = engine.counter.impl_work - before
            if cost != want:
                fails.append(f"intuition {name}: {kind} spotlight cost {cost} != {want}")
    return fails


def check_vector_arithmetic():
    fails = []
    a, b, c = VECTOR_SMALL, VECTOR_LARGE, VECTOR_OTHER
    if not vt_leq(a, b):
        fails.append("vector arithmetic: pointwise order on the pinned pair")
    if vt_leq(b, a):
        fails.append("vector arithmetic: pointwise order is not antisymmetric here")
    if vt_leq(a, c) or vt_leq(c, a):
        fails.append("vector arithmetic: the third pinned time is comparable with the first")
    return fails


def check_sweep():
    fails = []
    for seed in SWEEP_SEEDS:
        trace = random_trace(seed)
        for po in ORDERS:
            fails += _cross_check(f"sweep seed={seed} po={po}", trace, po)
    return fails


CHECKS = (
    ("walkthrough", check_walkthrough),
    ("intuitions", check_intuitions),
    ("vector arithmetic", check_vector_arithmetic),
    ("randomized sweep", check_sweep),
)


def run(report=print):
    """Run every embedded check; returns the list of failure strings."""
    failures = []
    for name, check in CHECKS:
        fails = check()
        failures.extend(fails)
        status = "ok" if not fails else f"FAIL ({len(fails)})"
        report(f"selfcheck {name}: {status}")
        for f in fails:
            report(f"  - {f}")
    return failures
