"""Tests for the streaming engines: agreement with the brute-force oracle,
nesting of the three partial orders, race reporting discipline, copy
accounting, and run metadata."""

import gc
import weakref

import pytest
from conftest import engine_timestamps
from oracles import oracle_forced_deep_copies, oracle_unordered_pairs

from clocktrace.analyses import (
    HB,
    MAZ,
    ORDERS,
    SHB,
    Engine,
    race_event_indices,
    run_analysis,
)
from clocktrace.oracle import oracle_races, oracle_timestamps
from clocktrace.trace import parse_trace
from clocktrace.tracegen import random_trace


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
        weak_keys = {(r.var, r.index) for r in runs[weak].races}
        strong_keys = {(r.var, r.index) for r in runs[strong].races}
        assert strong_keys <= weak_keys
    # the strongest order relates every conflicting pair by construction
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
        later = [(r.var, r.index) for r in run.races]
        assert len(later) == len(set(later))
        assert [r.index for r in run.races] == [1, 2, 3]
        assert all(r.kind == "write-write" for r in run.races)

    def test_reads_do_not_race_each_other(self):
        trace = parse_trace("t0 r x\nt1 r x\nt2 r x\n")
        assert run_analysis(trace, HB, "tree").races == []

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
        assert run.deep_copies == expected
        # a write unordered with the last write races it and forces the copy
        assert run.deep_copies == sum(r.kind == "write-write" for r in run.races)
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
    trace = parse_trace("t0 w x\nt1 w x\nt0 w y\nt1 r x\n")
    assert run_analysis(trace, SHB, "tree").fresh_copies == 2
    assert run_analysis(trace, MAZ, "tree").fresh_copies == 2
    assert run_analysis(trace, HB, "tree").fresh_copies == 0


def test_unordered_pairs_can_be_skipped():
    trace = random_trace(78, events=60)
    run = run_analysis(trace, HB, "tree", count_unordered=False)
    assert run.unordered_pairs is None


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
        run_analysis(trace, po, "tree", debug=True)
        run_analysis(trace, po, "vector", debug=True)


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
    assert engine.index == len(trace.events)


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
