"""Tests for the streaming engines: agreement with the brute-force oracle,
nesting of the three partial orders, race reporting discipline, copy
accounting, and run metadata."""

import gc
import weakref

import pytest
from conftest import corpus_trace, debug_run, engine_timestamps
from oracles import (
    flat_unordered_pairs,
    oracle_forced_deep_copies,
    oracle_unordered_pairs,
)

from clocktrace import treeclock
from clocktrace.analyses import (
    CLOCK_KINDS,
    FLAT_LOG_LIMIT,
    HB,
    MAZ,
    ORDERS,
    SHB,
    Engine,
    race_event_indices,
    run_analysis,
)
from clocktrace.metrics import cross_check, verify_bounds
from clocktrace.oracle import oracle_races, oracle_timestamps
from clocktrace.trace import WRITE, Violation, parse_trace, serialize_trace
from clocktrace.tracegen import GenSpec, generate, random_trace
from clocktrace.treeclock import TreeClock


@pytest.mark.parametrize("seed", range(10))
def test_engines_match_oracle(seed):
    trace = random_trace(seed + 300, events=150, threads=5, locks=3, variables=3)
    for po in ORDERS:
        expect_ts = oracle_timestamps(trace, po)
        expect_races = oracle_races(trace, po)
        expect_unordered = oracle_unordered_pairs(trace, po)
        for kind in ("tree", "vector"):
            run = run_analysis(trace, po, kind)
            assert engine_timestamps(trace, po, kind) == expect_ts
            assert race_event_indices(trace, run.races) == expect_races
            assert run.unordered_pairs == expect_unordered


@pytest.mark.parametrize("seed", range(6))
def test_order_strength_nests(seed):
    """Each order is a refinement of the previous one: timestamps dominate
    pointwise, unordered pairs shrink, and reported races only disappear."""
    trace = random_trace(seed + 900, events=150, threads=5, locks=3, variables=4)
    runs = {po: run_analysis(trace, po, "tree") for po in (HB, SHB, MAZ)}
    stamps = {po: engine_timestamps(trace, po, "tree") for po in (HB, SHB, MAZ)}
    for weak, strong in ((HB, SHB), (SHB, MAZ)):
        for a, b in zip(stamps[weak], stamps[strong]):
            assert all(x <= y for x, y in zip(a, b))
        assert runs[strong].unordered_pairs <= runs[weak].unordered_pairs
        weak_keys = {(var, later) for _, var, _, later
                     in race_event_indices(trace, runs[weak].races)}
        strong_keys = {(var, later) for _, var, _, later
                       in race_event_indices(trace, runs[strong].races)}
        assert strong_keys <= weak_keys
    # the strongest order relates every conflicting pair by construction,
    # so its engine counts none (the oracle test below checks the theorem)
    assert runs[MAZ].unordered_pairs == 0
    assert runs[MAZ].races == []


class TestRaceReporting:
    def test_kinds_name_the_earlier_access_first(self):
        trace = parse_trace("t0 w x\nt1 r x\nt1 w x\n")
        run = run_analysis(trace, HB, "tree")
        assert race_event_indices(trace, run.races) == [
            ("write-read", 0, 0, 1),
            ("write-write", 0, 0, 2),
        ]

    def test_write_write_takes_priority_over_read_write(self):
        # the later write races with both an earlier write and an earlier
        # read; only one report is made and the write pair wins
        trace = parse_trace("t0 w x\nt1 r x\nt2 w x\n")
        run = run_analysis(trace, HB, "tree")
        assert race_event_indices(trace, run.races) == [
            ("write-read", 0, 0, 1),
            ("write-write", 0, 0, 2),
        ]

    def test_first_unordered_reader_is_reported(self):
        trace = parse_trace("t0 r x\nt1 r x\nt2 w x\n")
        run = run_analysis(trace, HB, "tree")
        assert race_event_indices(trace, run.races) == [
            ("read-write", 0, 0, 2),
        ]

    def test_one_report_per_variable_and_later_access(self):
        # three earlier unordered writes, one later write: a single report
        trace = parse_trace("t0 w x\nt1 w x\nt2 w x\nt3 w x\n")
        run = run_analysis(trace, HB, "tree")
        later = [(var, i) for _, var, _, i in race_event_indices(trace, run.races)]
        assert len(later) == len(set(later))
        assert [i for _, i in later] == [1, 2, 3]
        assert all(r.kind == "write-write" for r in run.races)

    def test_reads_do_not_race_each_other(self):
        trace = parse_trace("t0 r x\nt1 r x\nt2 r x\n")
        assert run_analysis(trace, HB, "tree").races == []

    @pytest.mark.parametrize("make, text", [
        (lambda: run_analysis(parse_trace("t0 w x\nt1 r x\n"), HB, "tree").races[0],
         "RaceReport(kind='write-read', var=0, earlier=Epoch(tid=0, clk=1), "
         "later=Epoch(tid=1, clk=1))"),
        (lambda: Violation(1, "reacquire", "event 1: thread #1 acquires lock #0"),
         "Violation(index=1, kind='reacquire', "
         "message='event 1: thread #1 acquires lock #0')"),
    ], ids=["RaceReport", "Violation"])
    def test_reports_are_immutable_hashable_values(self, make, text):
        report = make()
        assert repr(report) == text
        assert isinstance(report, tuple)
        with pytest.raises(AttributeError):
            report.kind = "x"
        with pytest.raises(AttributeError):
            del report.kind
        twin = make()  # built apart, so equal but not the same object
        assert twin == report and twin is not report
        assert hash(twin) == hash(report)
        assert len({report, twin}) == 1

    def test_synchronized_accesses_do_not_race(self):
        trace = parse_trace(
            "t0 acq m\nt0 w x\nt0 rel m\nt1 acq m\nt1 w x\nt1 rel m\n"
        )
        run = run_analysis(trace, HB, "tree")
        assert run.races == []
        assert run.unordered_pairs == 0


def test_shb_orders_reads_after_the_last_write():
    trace = parse_trace("t0 w x\nt1 r x\n")
    assert run_analysis(trace, HB, "tree").races != []
    assert run_analysis(trace, SHB, "tree").races == []


def test_maz_write_orders_after_prior_readers():
    trace = parse_trace("t0 r x\nt1 w x\nt0 r x\n")
    run = run_analysis(trace, MAZ, "tree")
    assert engine_timestamps(trace, MAZ, "tree") == [(1, 0), (1, 1), (2, 1)]
    assert run.races == []
    assert run.unordered_pairs == 0


@pytest.mark.parametrize("seed", range(8))
def test_shb_deep_copies_match_brute_force(seed):
    trace = random_trace(seed + 50, events=150, threads=4, locks=2, variables=4)
    expected = oracle_forced_deep_copies(trace)
    for kind in ("tree", "vector"):
        run = run_analysis(trace, SHB, kind)
        # deep_copies is derived from the shb write-write races, so the
        # brute-force count of forced copies is the independent check
        assert run.deep_copies == expected
    # the other orders never hit the non-monotone write path
    assert run_analysis(trace, HB, "tree").deep_copies == 0
    assert run_analysis(trace, MAZ, "tree").deep_copies == 0


def test_race_free_trace_has_no_deep_copies():
    trace = parse_trace(
        "t0 acq m\nt0 w x\nt0 rel m\nt1 acq m\nt1 w x\nt1 r x\nt1 rel m\n"
    )
    run = run_analysis(trace, SHB, "tree")
    assert run.races == []
    assert run.deep_copies == 0
    assert run.fresh_copies == 1


def test_fresh_copies_count_first_writes():
    # one fresh copy into a last-write clock per written variable
    traces = [parse_trace("t0 w x\nt1 w x\nt0 w y\nt1 r x\n")]
    traces += [random_trace(seed + 50, events=150, threads=4, locks=2, variables=4)
               for seed in range(8)]
    for trace in traces:
        written = len({ev.target for ev in trace.events if ev.op == WRITE})
        for kind in ("tree", "vector"):
            assert run_analysis(trace, SHB, kind).fresh_copies == written
            assert run_analysis(trace, MAZ, kind).fresh_copies == written
            assert run_analysis(trace, HB, kind).fresh_copies == 0


def test_unordered_pairs_can_be_skipped():
    trace = random_trace(78, events=60)
    run = run_analysis(trace, HB, "tree", count_unordered=False)
    assert run.unordered_pairs is None


@pytest.mark.parametrize("seed", range(40))
def test_maz_leaves_no_conflicting_pair_unordered(seed):
    """The theorem the maz engine's count of 0 rests on, checked on the
    oracle alone: every write follows the last write and each reader
    since it, and every read follows the last write."""
    trace = corpus_trace(seed + 4000, max_threads=10, max_locks=3, max_vars=5)
    lock_free = random_trace(seed, events=300, threads=2 + seed % 7, locks=0,
                             variables=1 + seed % 4)
    for t in (trace, lock_free):
        assert oracle_unordered_pairs(t, MAZ) == 0


@pytest.mark.parametrize("kind", CLOCK_KINDS)
def test_maz_engine_keeps_no_access_log(kind):
    trace = random_trace(17, events=400, threads=4, locks=0, variables=2)
    engine = Engine(MAZ, trace.thread_count, kind)
    for ev in trace.events:
        engine.process(ev)
    assert engine._access_log is None
    assert engine.record(trace).unordered_pairs == 0
    skipped = run_analysis(trace, MAZ, kind, count_unordered=False)
    assert skipped.unordered_pairs is None


def counted(trace, po, kind):
    """The engine's pair count and the log form of each variable."""
    engine = Engine(po, trace.thread_count, kind)
    for ev in trace.events:
        engine.process(ev)
    forms = {type(log) for log in engine._access_log.values()}
    return engine.unordered_pairs, forms


@pytest.mark.parametrize("threads", [8, 64])
def test_short_logs_stay_flat(threads):
    """Logs of at most FLAT_LOG_LIMIT accesses are scanned flat, the
    cheaper form for them, and count exactly as the oracle does."""
    trace = random_trace(threads, events=1500, threads=threads, locks=2,
                         variables=8)
    for po in (HB, SHB):
        expected = oracle_unordered_pairs(trace, po)
        for kind in CLOCK_KINDS:
            assert counted(trace, po, kind) == (expected, {list})


@pytest.mark.parametrize("threads", [2, 4, 8])
@pytest.mark.parametrize("events, variables", [(2000, 1), (3000, 3)])
def test_long_logs_count_like_the_oracle(threads, events, variables):
    """Logs that outgrow the flat scan count exactly as the oracle does,
    both while flat and once kept per thread."""
    trace = random_trace(threads * 10 + variables, events=events,
                         threads=threads, locks=2, variables=variables)
    for po in (HB, SHB):
        expected = oracle_unordered_pairs(trace, po)
        for kind in CLOCK_KINDS:
            assert counted(trace, po, kind) == (expected, {dict})


def test_very_long_logs_count_like_a_flat_scan():
    """About 20k accesses to 32 variables, each log past the flat
    limit and the trace past the oracle's cap: the count equals a flat
    scan over the timestamps."""
    trace = random_trace(2027, events=33000, threads=8, locks=2, variables=32)
    accesses = sum(ev.op in ("r", "w") for ev in trace.events)
    assert accesses > 32 * 2 * FLAT_LOG_LIMIT
    for po in (HB, SHB):
        expected = flat_unordered_pairs(trace, engine_timestamps(trace, po, "vector"))
        for kind in CLOCK_KINDS:
            assert counted(trace, po, kind) == (expected, {dict})


def test_empty_trace():
    run = run_analysis(parse_trace(""), HB, "tree")
    assert run.events == 0
    assert run.races == []
    assert run.vt_work == 0
    assert engine_timestamps(parse_trace(""), HB, "tree") == []


def test_single_thread_counts_its_own_events():
    trace = parse_trace("t0 w x\nt0 r x\nt0 w y\n")
    run = run_analysis(trace, HB, "tree")
    assert engine_timestamps(trace, HB, "tree") == [(1,), (2,), (3,)]
    assert run.vt_work == 3
    assert run.unordered_pairs == 0


def test_run_metadata_fields():
    trace = random_trace(5, events=80, threads=4, locks=2, variables=2)
    run = run_analysis(trace, MAZ, "vector")
    assert run.po == MAZ
    assert run.events == len(trace.events)
    assert run.threads == trace.thread_count
    assert run.locks == trace.lock_count
    assert run.vars == trace.var_count
    assert run.clock_kind == "vector"
    assert run.elapsed >= 0.0


@pytest.mark.parametrize("po", ORDERS)
def test_debug_mode_is_clean_on_legal_traces(po):
    for seed in range(3):
        trace = random_trace(seed + 11, events=100)
        debug_run(trace, po, "tree")
        debug_run(trace, po, "vector")


def test_debug_reports_a_copy_off_the_predicted_path(monkeypatch):
    # a tree clock that reports the other path than the one it took: the
    # release's copy into the new lock clock is deep, reported monotone
    class Misreported(TreeClock):
        __slots__ = ()

        def copy_check_monotone(self, src):
            status = super().copy_check_monotone(src)
            return "monotone" if status == "deep" else "deep"

    monkeypatch.setattr(treeclock, "TreeClock", Misreported)
    trace = parse_trace("t0 acq l\nt0 rel l\n")
    assert type(Engine(HB, 1).thread_clocks[0]) is Misreported
    run_analysis(trace, HB, "tree")  # unchecked without debug
    with pytest.raises(AssertionError, match="event 1: monotone copy where "
                                             "the engine predicts deep"):
        debug_run(trace, HB)


@pytest.mark.parametrize("po,kind,message", [
    ("po", "tree", "unknown partial order 'po'"),
    (HB, "flat", "unknown clock kind 'flat'"),
], ids=["order", "clock-kind"])
def test_unknown_order_or_clock_kind_is_refused(po, kind, message):
    with pytest.raises(ValueError, match=message):
        Engine(po, 2, kind)


def test_runs_are_deterministic():
    trace = random_trace(123, events=200, threads=6, locks=3, variables=4)
    a = run_analysis(trace, MAZ, "tree")
    b = run_analysis(trace, MAZ, "tree")
    assert engine_timestamps(trace, MAZ, "tree") == engine_timestamps(trace, MAZ, "tree")
    assert a.vt_work == b.vt_work
    assert a.impl_work == b.impl_work
    assert race_event_indices(trace, a.races) == race_event_indices(trace, b.races)


@pytest.mark.parametrize("kind", ["tree", "vector"])
def test_process_returns_the_acting_threads_clock(kind):
    trace = random_trace(9, events=50)
    engine = Engine(SHB, trace.thread_count, kind)
    for ev in trace.events:
        assert engine.process(ev) is engine.thread_clocks[ev.tid]
    # the debug check numbers events by this count
    assert engine.counter.increments == len(trace.events)


@pytest.mark.parametrize("kind", ["tree", "vector"])
def test_finished_engine_is_freed_without_the_cycle_collector(kind):
    """An engine holds no reference back to itself, so dropping the last
    reference frees it and all its clocks at once, with no cyclic GC."""
    trace = random_trace(9, events=200, threads=4, locks=2, variables=3)
    engine = Engine(SHB, trace.thread_count, kind)
    for ev in trace.events:
        engine.process(ev)
    ref = weakref.ref(engine)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del engine
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_analysis_pipeline_leaves_no_cyclic_garbage():
    """The command line runs every command with the cyclic GC off. That is
    safe only if the pipeline it drives builds no reference cycle: with
    the collector off from a clean heap, a final collection finds
    nothing to free."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for seed in range(20):
            trace = parse_trace(serialize_trace(random_trace(
                seed, events=300, threads=5, locks=3, variables=4)))
            for po in ORDERS:
                for kind in ("tree", "vector"):
                    verify_bounds(run_analysis(trace, po, kind))
                _, kind_problems, oracle_problems = cross_check(
                    trace, po, CLOCK_KINDS, oracle=True)
                assert kind_problems == oracle_problems == []
        run_analysis(generate(GenSpec("pairwise", 8, 2000, seed=3)), HB, "tree")
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
