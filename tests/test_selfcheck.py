"""The embedded fixture suite must pass, and its frozen constants must keep
their documented shape."""

import re

import pytest

from clocktrace import analyses, cli, selfcheck
from clocktrace.trace import parse_trace, serialize_trace, validate_trace
from clocktrace.tracegen import random_trace
from clocktrace.vclock import VectorClock


def test_all_embedded_checks_pass():
    lines = []
    assert selfcheck.run(report=lines.append) == []
    assert lines == [
        "selfcheck walkthrough: ok",
        "selfcheck intuitions: ok",
        "selfcheck vector arithmetic: ok",
        "selfcheck randomized sweep: ok",
    ]


def test_sweep_builds_one_engine_per_cell(monkeypatch):
    # each (seed, order, kind) cell yields timestamps, races, vt_work and
    # the bounds check from a single engine
    built = []
    real_init = analyses.Engine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(analyses.Engine, "__init__", counting_init)
    assert selfcheck.check_sweep() == []
    assert len(built) == 6 * len(analyses.ORDERS) * len(analyses.CLOCK_KINDS)


def test_sweep_reports_a_divergence(monkeypatch, capsys):
    # the skew reaches only vector timestamps, which the sweep compares
    # with the tree's and never with the oracle's
    real = VectorClock.flatten
    monkeypatch.setattr(VectorClock, "flatten",
                        lambda self: tuple(v + 1 for v in real(self)))
    fails = selfcheck.check_sweep()
    assert "sweep seed=0 po=hb: tree and vector timestamps differ" in fails
    assert all(re.fullmatch(r"sweep seed=\d+ po=\w+: tree and vector "
                            r"timestamps differ", f) for f in fails), fails
    assert cli.main(["selfcheck"]) == 1
    assert "selfcheck randomized sweep: FAIL" in capsys.readouterr().out


def test_walkthrough_fixture_shape():
    trace = parse_trace(selfcheck.WALKTHROUGH_TRACE)
    assert len(trace.events) == 16
    assert trace.thread_count == 5
    assert len(selfcheck.WALKTHROUGH_TIMESTAMPS) == 16
    assert all(len(ts) == 5 for ts in selfcheck.WALKTHROUGH_TIMESTAMPS)
    assert selfcheck.WALKTHROUGH_DUMP_E8.startswith("tid=3 ")
    assert selfcheck.WALKTHROUGH_DUMP_E15.startswith("tid=4 ")


def test_spotlight_costs_differ_by_structure():
    # the same event is cheaper for the tree (visits only progressed
    # regions) than for the vector (always rewrites k entries)
    assert selfcheck.INTUITION_TREE_COST == 4
    assert selfcheck.INTUITION_VECTOR_COST == 5
    assert selfcheck.INTUITION_TREE_COST < selfcheck.INTUITION_VECTOR_COST


def test_random_trace_is_legal_and_deterministic():
    a = random_trace(3, events=100)
    b = random_trace(3, events=100)
    assert serialize_trace(a) == serialize_trace(b)
    assert validate_trace(a) == []
    assert len(a.events) == 100
    assert a.thread_count == 4
    # with no event asked for, a missing check returns instead of looping
    with pytest.raises(ValueError, match="need at least one lock or variable"):
        random_trace(3, events=0, locks=0, variables=0)

