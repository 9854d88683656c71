"""Tests for the work metrics: the independent entries-changed recount
and the oracle's size cap it shares, the bound checks and their
documented scope, and the hypothetical vector cost."""

import pytest
from oracles import vc_work

from clocktrace.analyses import HB, MAZ, ORDERS, SHB, run_analysis
from clocktrace.metrics import verify_bounds, vtwork
from clocktrace.oracle import ORACLE_MAX_EVENTS, oracle_races, oracle_timestamps
from clocktrace.trace import parse_trace
from clocktrace.tracegen import random_trace


@pytest.mark.parametrize("seed", range(8))
def test_engine_tally_matches_independent_recount(seed):
    """The engines' running vt_work equals the definitional recount: after
    each event, the number of entries that changed across all maintained
    clocks, summed over events — for every order and both clock kinds."""
    trace = random_trace(seed + 600, events=150, threads=5, locks=3, variables=3)
    for po in ORDERS:
        expected = vtwork(trace, po)
        for kind in ("tree", "vector"):
            assert run_analysis(trace, po, kind).vt_work == expected


def test_single_thread_changes_one_entry_per_event_under_hb():
    # no locks, and the weakest order ignores access targets: each event
    # moves exactly the thread's own entry
    trace = parse_trace("t0 w x\nt0 r x\nt0 w x\nt0 r x\n")
    assert vtwork(trace, HB) == len(trace.events)


def test_single_thread_aux_clock_changes_are_counted():
    # same trace under the stronger orders: the last-write clock (and the
    # per-thread read clock) are maintained clocks, so their entries count.
    # Writes at times 1 and 3 move the last-write clock (+1 each); reads at
    # times 2 and 4 move the read clock under the strongest order (+1 each).
    trace = parse_trace("t0 w x\nt0 r x\nt0 w x\nt0 r x\n")
    n = len(trace.events)
    assert vtwork(trace, SHB) == n + 2
    assert vtwork(trace, MAZ) == n + 4


def test_vtwork_rejects_unknown_order():
    with pytest.raises(ValueError):
        vtwork(parse_trace("t0 w x\n"), "total")


@pytest.mark.parametrize("reference", [oracle_timestamps, oracle_races, vtwork],
                         ids=lambda f: f.__name__)
def test_references_refuse_traces_over_the_oracle_cap(reference):
    trace = parse_trace("t0 w x\n" * (ORACLE_MAX_EVENTS + 1))
    with pytest.raises(ValueError, match="oracle is quadratic"):
        reference(trace, HB)


class TestBounds:
    def test_every_event_changes_at_least_one_entry(self):
        # the increment alone moves the acting thread's own entry
        for seed in range(5):
            trace = random_trace(seed, events=100)
            for po in ORDERS:
                run = run_analysis(trace, po, "tree")
                assert run.vt_work >= run.events
                verify_bounds(run)

    def test_hb_upper_bound_holds(self):
        for seed in range(5):
            trace = random_trace(seed + 40, events=150, threads=5)
            for kind in ("tree", "vector"):
                run = run_analysis(trace, HB, kind)
                assert run.vt_work <= run.events * run.threads
                verify_bounds(run)

    def test_upper_bound_is_specific_to_hb(self):
        """Two threads alternating unsynchronized writes to one variable:
        the last-write clock swings between unordered clocks, so each write
        after the first changes three entries and the total is 3n - 1 for
        n > 1 events — above the n*k = 2n ceiling that holds under the
        weakest order. The ceiling is a property of that order, not of the
        metric."""
        rounds = 30
        lines = []
        for _ in range(rounds):
            lines.append("t0 w x")
            lines.append("t1 w x")
        trace = parse_trace("\n".join(lines) + "\n")
        n, k = len(trace.events), 2
        shb = vtwork(trace, SHB)
        assert shb == 3 * n - 1
        assert shb > n * k
        assert vtwork(trace, HB) == n  # no synchronization at all under HB
        # verify_bounds therefore only enforces the ceiling for HB runs
        verify_bounds(run_analysis(trace, SHB, "tree"))

    def test_tree_work_within_three_times_entries_changed_on_hb(self):
        for seed in range(5):
            trace = random_trace(seed + 80, events=150)
            run = run_analysis(trace, HB, "tree")
            assert run.impl_work <= 3 * run.vt_work
            verify_bounds(run)

    def test_verify_bounds_rejects_doctored_counters(self):
        trace = random_trace(7, events=80)
        run = run_analysis(trace, HB, "tree")
        run.counter.vt_work = run.events - 1  # below the floor
        with pytest.raises(AssertionError):
            verify_bounds(run)
        run = run_analysis(trace, HB, "tree")
        run.counter.vt_work = run.events * run.threads + 1  # above the ceiling
        with pytest.raises(AssertionError):
            verify_bounds(run)
        run = run_analysis(trace, HB, "tree")
        run.counter.impl_work = 3 * run.vt_work + 1  # structure overspent
        with pytest.raises(AssertionError):
            verify_bounds(run)
        run = run_analysis(parse_trace("t0 acq l0\nt0 rel l0\n"), HB, "tree")
        run.counter.vt_work -= 1  # within n*k, but one-thread counts are exact
        with pytest.raises(AssertionError):
            verify_bounds(run)

    def test_empty_run_passes_with_zero_work(self):
        run = run_analysis(parse_trace(""), HB, "tree")
        assert run.vt_work == 0
        verify_bounds(run)


def test_vc_work_is_the_vector_cost_of_the_same_ops():
    trace = random_trace(42, events=120, threads=4, locks=2, variables=3)
    for po in ORDERS:
        tree = run_analysis(trace, po, "tree")
        vec = run_analysis(trace, po, "vector")
        # for a vector run the formula is exactly its implementation work
        assert vc_work(vec) == vec.impl_work
        # for a tree run it prices the identical op sequence at vector rates
        assert (tree.counter.joins, tree.counter.copies, tree.counter.increments) == (
            vec.counter.joins,
            vec.counter.copies,
            vec.counter.increments,
        )
        assert vc_work(tree) == vc_work(vec)


# Whole-run counters on one seeded trace with locks, reads and writes,
# per (order, clock kind): vt_work, impl_work, races, unordered pairs,
# deep copies. Any change to what a clock operation visits or counts
# moves impl_work here.
PINNED_COUNTERS = {
    (HB, "tree"): (278, 427, 114, 802, 0),
    (HB, "vector"): (278, 460, 114, 802, 0),
    (SHB, "tree"): (584, 1342, 59, 400, 44),
    (SHB, "vector"): (584, 1165, 59, 400, 44),
    (MAZ, "tree"): (1033, 2349, 0, 0, 0),
    (MAZ, "vector"): (1033, 2185, 0, 0, 0),
}


def test_counters_are_pinned_on_a_seeded_trace():
    trace = random_trace(2026, events=200, threads=5, locks=3, variables=4)
    got = {}
    for po, kind in PINNED_COUNTERS:
        run = run_analysis(trace, po, kind)
        got[po, kind] = (run.vt_work, run.impl_work, len(run.races),
                         run.unordered_pairs, run.deep_copies)
    assert got == PINNED_COUNTERS

