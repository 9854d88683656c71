"""Embedded fixture suite behind the `selfcheck` CLI command.

Everything here is self-contained and deterministic: a 16-event lock
trace walked through event by event with its expected per-event
timestamps and two expected tree shapes, two small traces spotlighting
the join prunings (the final acquire must touch fewer nodes than a flat
vector scan), a star-relay round showing which clocks stay sparse,
pinned vector-clock arithmetic, and a randomized
mini-sweep cross-checking both engines against the brute-force oracle
with debug assertions on.

Each check returns a list of failure strings; `run` aggregates them.
"""

from .analyses import HB, ORDERS, Engine, race_event_indices
from .metrics import verify_bounds, vtwork
from .oracle import oracle_races, oracle_timestamps
from .trace import parse_trace
from .tracegen import random_trace
from .vclock import vt_join, vt_leq

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

# Cost of the spotlight event (local increment plus the acquire's join):
# the tree walk touches 3 nodes, a flat vector always scans all 4.
INTUITION_TREE_COST = 4
INTUITION_VECTOR_COST = 5

# Pinned six-thread example: one timestamp strictly below another, and a
# third, incomparable with the first, whose join with it is the second.
VECTOR_SMALL = (11, 6, 5, 32, 14, 20)
VECTOR_LARGE = (28, 6, 9, 45, 17, 26)
VECTOR_OTHER = (28, 5, 9, 45, 17, 26)


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
    return fails + check_storage_intuition()


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


def check_vector_arithmetic():
    fails = []
    a, b, c = VECTOR_SMALL, VECTOR_LARGE, VECTOR_OTHER
    if not vt_leq(a, b):
        fails.append("vector arithmetic: pointwise order on the pinned pair")
    if vt_leq(b, a):
        fails.append("vector arithmetic: pointwise order is not antisymmetric here")
    if vt_join(c, a) != b:
        fails.append(f"vector arithmetic: join gave {vt_join(c, a)}")
    return fails


def check_sweep(seeds=range(6)):
    fails = []
    for seed in seeds:
        trace = random_trace(seed)
        for po in ORDERS:
            want_ts = oracle_timestamps(trace, po)
            want_races = oracle_races(trace, po)
            want_vt = vtwork(trace, po)
            for kind in ("tree", "vector"):
                engine = Engine(po, trace.thread_count, kind, debug=True)
                stamps = [engine.process(ev).flatten() for ev in trace.events]
                run = engine.record(trace)
                where = f"sweep seed={seed} po={po} {kind}"
                if stamps != want_ts:
                    fails.append(f"{where}: timestamps diverge from oracle")
                if race_event_indices(trace, run.races) != want_races:
                    fails.append(f"{where}: races diverge from oracle")
                if run.vt_work != want_vt:
                    fails.append(f"{where}: vt_work {run.vt_work} != snapshot-diff {want_vt}")
                try:
                    verify_bounds(run)
                except AssertionError as exc:
                    fails.append(f"{where}: {exc}")
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
