"""Embedded fixture suite behind the `selfcheck` CLI command.

Everything here is self-contained and deterministic: a 16-event lock
trace walked through event by event with its expected per-event
timestamps and two expected tree shapes, two small traces spotlighting
the join prunings (the final acquire must touch fewer nodes than a flat
vector scan), a star-relay round showing which clocks stay sparse, a
maz round showing reader clocks drop their trees once a write has
joined them and share their thread clock's at the next read, pinned
vector-clock arithmetic, and a randomized mini-sweep that runs
metrics.cross_check, the comparison behind `analyze --clock both
--oracle`, with debug assertions on: both clock kinds against each
other and against the brute-force oracle.

Each check returns a list of failure strings; `run` aggregates them.
"""

from .analyses import CLOCK_KINDS, HB, MAZ, ORDERS, Engine
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

# Storage showcase, a star relay: each client acq/rels its own lock and
# the hub (t0) acquires one of them last. Before that acquire every clock
# is root-only and stores one entry; the acquire links a second node into
# the hub's clock alone, which makes it the one dense clock.
INTUITION_STORAGE = _sync("t1", "l1") + _sync("t2", "l2") + "t0 acq l1\n"

# maz storage showcase: t2 and t3 each learn another thread through l,
# then read x, which copies their linked clocks into two reader clocks.
# t1's write joins both readers, and nothing reads their trees after
# that: both drop them (detached) and keep their entries. t2's next read
# copies into its reader clock monotonically, and the copy takes t2's
# link set by sharing it.
INTUITION_MAZ_STORAGE = (
    _sync("t1", "l") + _sync("t2", "l") + _sync("t3", "l")
    + "t2 r x\nt3 r x\nt1 w x\nt2 r x\n"
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


def check_walkthrough():
    fails = []
    trace = parse_trace(WALKTHROUGH_TRACE)
    dumps = {}
    for kind in ("tree", "vector"):
        engine = Engine(HB, trace.thread_count, kind, debug=True)
        stamps = []
        for i, ev in enumerate(trace.events):
            clock = engine.process(ev)
            stamps.append(clock.flatten())
            if kind == "tree" and i in (7, 14):
                dumps[i] = clock.dump()
        if stamps != WALKTHROUGH_TIMESTAMPS:
            fails.append(f"walkthrough {kind}: timestamps diverge: {stamps}")
        if engine.races:
            fails.append(f"walkthrough {kind}: unexpected races {engine.races}")
    if dumps.get(7) != WALKTHROUGH_DUMP_E8:
        fails.append(f"walkthrough: tree after event 8:\n{dumps.get(7)}")
    if dumps.get(14) != WALKTHROUGH_DUMP_E15:
        fails.append(f"walkthrough: tree after event 15:\n{dumps.get(14)}")
    if oracle_timestamps(trace, HB) != WALKTHROUGH_TIMESTAMPS:
        fails.append("walkthrough: oracle disagrees with pinned timestamps")
    return fails


def check_intuitions():
    fails = []
    for name, text in (("direct", INTUITION_DIRECT), ("indirect", INTUITION_INDIRECT)):
        trace = parse_trace(text)
        costs = {}
        for kind in ("tree", "vector"):
            engine = Engine(HB, trace.thread_count, kind, debug=True)
            stamps, marks = [], []
            for ev in trace.events:
                stamps.append(engine.process(ev).flatten())
                marks.append(engine.counter.impl_work)
            costs[kind] = marks[-1] - marks[-2]
            if stamps != oracle_timestamps(trace, HB):
                fails.append(f"intuition {name} {kind}: timestamps diverge")
        if costs["tree"] != INTUITION_TREE_COST:
            fails.append(f"intuition {name}: tree spotlight cost {costs['tree']} != {INTUITION_TREE_COST}")
        if costs["vector"] != INTUITION_VECTOR_COST:
            fails.append(f"intuition {name}: vector spotlight cost {costs['vector']} != {INTUITION_VECTOR_COST}")
    return fails + check_storage_intuition() + check_maz_storage_intuition()


def check_storage_intuition():
    fails = []
    trace = parse_trace(INTUITION_STORAGE)
    engine = Engine(HB, trace.thread_count, "tree", debug=True)
    for ev in trace.events[:-1]:
        engine.process(ev)
    clocks = engine.thread_clocks + list(engine.lock_clocks.values())
    stored = [len(clock.clk) for clock in clocks]
    if stored != [1] * len(clocks):
        fails.append(f"intuition storage: relay round stores {stored} entries")
    hub = engine.process(trace.events[-1])
    dense = [clock for clock in clocks if type(clock.clk) is list]
    if dense != [hub]:
        fails.append(f"intuition storage: after the hub acquire {len(dense)} "
                     f"clocks are dense, the hub's among them: {hub in dense}")
    return fails


def check_maz_storage_intuition():
    fails = []
    trace = parse_trace(INTUITION_MAZ_STORAGE)
    engine = Engine(MAZ, trace.thread_count, "tree", debug=True)
    for ev in trace.events[:-2]:
        engine.process(ev)
    readers = list(engine.read_clocks.values())
    before = [reader.flatten() for reader in readers]
    engine.process(trace.events[-2])  # the write
    detached = [reader.links is None and type(reader.clk) is list
                for reader in readers]
    if detached != [True, True]:
        fails.append(f"intuition maz storage: after the write the readers' "
                     f"detached forms are {detached}")
    if [reader.flatten() for reader in readers] != before:
        fails.append("intuition maz storage: the write changed a reader's entries")
    thread = engine.process(trace.events[-1])  # the re-read
    if not (readers[0].links is thread.links is not None
            and readers[0].shared and thread.shared):
        fails.append("intuition maz storage: the re-read does not share its "
                     "thread clock's link set")
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
            where = f"sweep seed={seed} po={po}"
            runs, kind_problems, oracle_problems = cross_check(
                trace, po, CLOCK_KINDS, oracle=True, debug=True)
            fails.extend(f"{where}: {p}" for p in kind_problems + oracle_problems)
            for run in runs:
                try:
                    verify_bounds(run)
                except AssertionError as exc:
                    fails.append(f"{where} {run.clock_kind}: {exc}")
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
        if report is not None:
            status = "ok" if not fails else f"FAIL ({len(fails)})"
            report(f"selfcheck {name}: {status}")
            for f in fails:
                report(f"  - {f}")
    return failures
