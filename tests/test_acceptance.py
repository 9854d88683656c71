"""Acceptance suite: numbered end-to-end properties, one test (and one
`pytest -v` line) per criterion; number 9 is retired. Tolerances are
pinned in each test body; every comparison is exact unless a tolerance
constant appears next to it.

Criteria 3 and 4 also have strict expected failures, placed after
criterion 4: each bound read beyond its provable scope (the weakest
order), with a pinned counterexample; criterion 3 has one under shb and
one under maz — see the docstrings of those tests.
"""

import json
import time

import pytest
from conftest import corpus_trace, debug_run, each_event
from oracles import oracle_forced_deep_copies, pruning_violations, vc_work

from clocktrace.analyses import (
    HB,
    MAZ,
    ORDERS,
    SHB,
    Engine,
    race_event_indices,
    run_analysis,
)
from clocktrace.metrics import verify_bounds, vtwork
from clocktrace.oracle import oracle_races, oracle_timestamps
from clocktrace.trace import ACQ, REL, Event, Trace, parse_trace
from clocktrace.tracegen import GenSpec, generate
from clocktrace.treeclock import NIL
from clocktrace.cli import main as cli_main


def test_criterion_01_tree_and_vector_runs_are_identical():
    """1000 randomized traces (<=500 events, <=8 threads, <=4 locks,
    <=6 variables), all three orders: identical per-event timestamps and
    identical race reports from both clock structures. Exact; < 2 min."""
    t0 = time.monotonic()
    for seed in range(1000):
        trace = corpus_trace(seed)
        assert len(trace.events) <= 500 and trace.thread_count <= 8
        assert trace.lock_count <= 4 and trace.var_count <= 6
        for po in ORDERS:
            tree = Engine(po, trace.thread_count, "tree")
            vec = Engine(po, trace.thread_count, "vector")
            for ev in trace.events:
                assert tree.process(ev).flatten() == vec.process(ev).flatten()
            assert tree.races == vec.races
    assert time.monotonic() - t0 < 120.0


def test_criterion_02_engine_matches_transitive_closure_oracle():
    """200 randomized traces (<=300 events), all three orders: engine
    timestamps equal the explicit generating-edges/transitive-closure
    recomputation, and so do the reported races. Exact; < 2 min."""
    t0 = time.monotonic()
    for seed in range(200):
        trace = corpus_trace(seed + 5000, max_events=300)
        for po in ORDERS:
            engine = Engine(po, trace.thread_count, "tree")
            stamps = [engine.process(ev).flatten() for ev in trace.events]
            assert stamps == oracle_timestamps(trace, po)
            assert race_event_indices(trace, engine.races) == oracle_races(trace, po)
    assert time.monotonic() - t0 < 120.0


def test_criterion_03_tree_work_at_most_three_times_entries_changed():
    """Under the weakest order, tree-clock implementation work never
    exceeds three times the number of entries changed — hard assertion on
    every corpus trace and every generator pattern."""
    for seed in range(300):
        run = run_analysis(corpus_trace(seed + 9000), HB, "tree")
        assert run.impl_work <= 3 * run.vt_work
    specs = []
    for threads in (4, 16):
        specs.append(GenSpec(pattern="single_lock", threads=threads,
                             events=2000, seed=1))
        specs.append(GenSpec(pattern="skewed_locks", threads=threads,
                             events=2000, seed=1))
        specs.append(GenSpec(pattern="pairwise", threads=threads,
                             events=2000, seed=1))
        for style in ("paired", "relay"):
            specs.append(GenSpec(pattern="star", threads=threads,
                                 events=2000, seed=1, star_style=style))
    for spec in specs:
        run = run_analysis(generate(spec), HB, "tree")
        assert run.impl_work <= 3 * run.vt_work


def test_criterion_04_entries_changed_bounds():
    """Every event changes at least one entry (n <= vt_work, any order);
    under the weakest order no event changes more than one entry per
    thread (vt_work <= n*k). The ceiling provably holds only for that
    order — the companion expected-failure test below pins a
    counterexample for the stronger orders — so it is asserted exactly
    where it holds. Hard assertions, exact."""
    for seed in range(200):
        trace = corpus_trace(seed + 13000)
        n, k = len(trace.events), trace.thread_count
        for po in ORDERS:
            run = run_analysis(trace, po, "tree")
            assert n <= run.vt_work
            if po == HB:
                assert run.vt_work <= n * k
            verify_bounds(run)


@pytest.mark.xfail(
    strict=True,
    reason="the n*k ceiling is specific to the weakest order: two threads "
    "alternating unsynchronized writes to one variable force 3n-1 entry "
    "changes under the stronger orders (the last-write clock swings "
    "between unordered clocks), exceeding n*k = 2n",
)
def test_criterion_04_ceiling_read_literally_for_every_order():
    """The unscoped reading of criterion 4 (ceiling on every run of every
    order) is genuinely false; this strict expected failure keeps the
    counterexample pinned instead of weakening the passing test above."""
    lines = []
    for _ in range(30):
        lines.append("t0 w x")
        lines.append("t1 w x")
    trace = parse_trace("\n".join(lines) + "\n")
    n, k = len(trace.events), trace.thread_count
    assert vtwork(trace, SHB) <= n * k


@pytest.mark.xfail(
    strict=True,
    reason="the 3x tree-work bound is specific to the weakest order: under "
    "shb each unordered write deep-copies a 32-node thread clock into the "
    "last-write clock while changing few entries (impl_work 197,420 > "
    "3 * vt_work 7,710, with 1999 races and 1999 deep copies)",
)
def test_criterion_03_tree_work_bound_read_for_shb():
    """The 3x bound on tree work (impl_work <= 3 * vt_work) read for shb
    fails: all 32 threads take and release one lock in turn, twice, so
    every thread clock knows all 32 threads; then two threads alternate
    1000 rounds of unsynchronized writes to one variable. This strict
    expected failure keeps that counterexample pinned instead of widening
    criterion 3's test beyond the weakest order."""
    lines = [f"t{t} {op} l0" for _ in range(2) for t in range(32)
             for op in ("acq", "rel")]
    lines += ["t0 w x", "t1 w x"] * 1000
    run = run_analysis(parse_trace("\n".join(lines) + "\n"), SHB, "tree")
    assert run.impl_work <= 3 * run.vt_work


@pytest.mark.xfail(
    strict=True,
    reason="the 3x tree-work bound is specific to the weakest order: under "
    "maz each write joins the last-write clock and copies back into it, "
    "with one increment for both (impl_work 1,991 > 3 * vt_work 644, and "
    "metrics.vtwork also gives 644)",
)
def test_criterion_03_tree_work_bound_read_for_maz():
    """The 3x bound on tree work read for maz fails: all 4 threads take
    and release one lock in turn, twice, then two threads alternate 100
    rounds of writes to one variable. Under maz each write joins the
    last write and monotone-copies into it (re-rooting it), which costs
    about 19/6 units per changed entry; under hb the same join and copy
    fall on two events with an increment each."""
    lines = [f"t{t} {op} l0" for _ in range(2) for t in range(4)
             for op in ("acq", "rel")]
    lines += ["t0 w x", "t1 w x"] * 100
    run = run_analysis(parse_trace("\n".join(lines) + "\n"), MAZ, "tree")
    assert run.impl_work <= 3 * run.vt_work


def test_criterion_05_debug_runs_trigger_no_precondition_violations():
    """The full randomized corpus, all orders, tree clocks with debug
    checks on: every tree copy (releases, last-write and reader clocks)
    takes the path the engine predicts, deep exactly for an empty target
    or a forced shb write, and every monotone path's single-entry test is
    sound (a violation raises)."""
    for seed in range(1000):
        trace = corpus_trace(seed)
        for po in ORDERS:
            debug_run(trace, po)


def test_criterion_06_pruning_monotonicity_after_every_event():
    """On 100+ traces (<=200 events), the direct and indirect monotonicity
    properties hold for all pairs of maintained tree clocks after every
    event. Only pairs involving a clock that changed this event are
    re-checked: an unchanged pair was checked the last time either side
    changed, so all pairs stay covered inductively. Exact."""

    def watch_run(trace, po):
        last = {}

        def check(i, ev, engine):
            clocks = list(engine.thread_clocks) \
                + list(engine.lock_clocks.values()) \
                + list(engine.write_clocks.values()) \
                + list(engine.read_clocks.values())
            changed = []
            for c in clocks:
                flat = c.flatten()
                if last.get(id(c)) != flat:
                    last[id(c)] = flat
                    changed.append(c)
            for a in changed:
                if a.root == NIL:
                    continue
                for b in clocks:
                    if a is b or b.root == NIL:
                        continue
                    assert pruning_violations(a, b) == []
                    assert pruning_violations(b, a) == []

        for i, ev, engine in each_event(trace, po):
            check(i, ev, engine)

    for seed in range(100):
        trace = corpus_trace(seed + 17000, max_events=200)
        watch_run(trace, HB)
        watch_run(trace, SHB)
    for seed in range(30):
        trace = corpus_trace(seed + 18000, max_events=120)
        watch_run(trace, MAZ)


def _globally_locked(trace):
    """Wrap every access in a fresh global lock: provably race-free."""
    g = trace.lock_count
    events = []
    for ev in trace.events:
        if ev.op in (ACQ, REL):
            events.append(ev)
        else:
            events.append(Event(ev.tid, ACQ, g))
            events.append(ev)
            events.append(Event(ev.tid, REL, g))
    return Trace(events, trace.thread_count, g + 1, trace.var_count)


def test_criterion_07_deep_copies_bounded_by_unordered_writes():
    """On randomized traces, forced full rebuilds of the last-write clock
    never exceed the brute-force count of consecutive-write conflicts, and
    race-free traces force none at all. Exact."""
    for seed in range(150):
        trace = corpus_trace(seed + 21000, max_events=300)
        run = run_analysis(trace, SHB, "tree")
        assert run.deep_copies <= oracle_forced_deep_copies(trace)
        if not run.races:
            assert run.deep_copies == 0
    for seed in range(30):
        trace = _globally_locked(corpus_trace(seed + 22000, max_events=200))
        run = run_analysis(trace, SHB, "tree")
        assert run.races == []
        assert run.deep_copies == 0


def test_criterion_08_star_scaling_keeps_tree_work_flat():
    """Hub-and-spoke rounds at k in {10, 40, 160} with n = 100*k events:
    vector work per event grows >= 10x from k=10 to k=160 while tree work
    per event varies by < 2x across the same range. < 1 min."""
    t0 = time.monotonic()
    tree_per_event = []
    vector_per_event = []
    for k in (10, 40, 160):
        trace = generate(GenSpec(pattern="star", star_style="relay",
                                 threads=k, events=100 * k, seed=2026))
        n = len(trace.events)
        tree = run_analysis(trace, HB, "tree", count_unordered=False)
        vec = run_analysis(trace, HB, "vector", count_unordered=False)
        assert vc_work(tree) == vec.impl_work  # op-for-op pricing agrees
        tree_per_event.append(tree.impl_work / n)
        vector_per_event.append(vec.impl_work / n)
    assert vector_per_event[2] / vector_per_event[0] >= 10.0
    assert max(tree_per_event) / min(tree_per_event) < 2.0
    assert time.monotonic() - t0 < 60.0


def test_criterion_10_pinned_seed_pipeline_is_deterministic(tmp_path):
    """The same gen command twice yields byte-identical trace files; the
    same analyze command twice yields identical records except for the
    wall time."""
    outputs = []
    for attempt in ("one", "two"):
        # identical command both times: same file names, fresh directory
        workdir = tmp_path / attempt
        workdir.mkdir()
        trace_path = workdir / "star.trace"
        json_path = workdir / "runs.jsonl"
        rc = cli_main(["gen", "--pattern", "skewed_locks", "--threads", "6",
                       "--events", "400", "--seed", "4242",
                       "--out", str(trace_path)])
        assert rc == 0
        rc = cli_main(["analyze", "--po", "shb", "--input", str(trace_path),
                       "--json", str(json_path), "--repeat", "1"])
        assert rc == 0
        records = [json.loads(line) for line in json_path.read_text().splitlines()]
        assert len(records) == 2 and all("time_ms" in r for r in records)
        for r in records:
            del r["time_ms"]
        outputs.append((trace_path.read_bytes(), records))
    assert outputs[0] == outputs[1]
