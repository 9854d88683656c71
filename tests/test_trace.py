"""Trace parsing, serialization, and lock-discipline validation."""

import pytest

from clocktrace.trace import (
    ACQ,
    READ,
    REL,
    WRITE,
    Event,
    Trace,
    TraceParseError,
    parse_trace,
    serialize_trace,
    validate_trace,
)


def test_parse_basic():
    tr = parse_trace("t0 acq l0\nt0 w x0\nt0 rel l0\nt1 r x0\n")
    assert tr.thread_count == 2
    assert tr.lock_count == 1
    assert tr.var_count == 1
    assert tr.events == [
        Event(0, ACQ, 0),
        Event(0, WRITE, 0),
        Event(0, REL, 0),
        Event(1, READ, 0),
    ]
    assert len(tr) == 4
    assert list(iter(tr)) == tr.events


def test_parse_comments_and_blanks():
    text = "\n# full-line comment\n  t0 acq l0   # trailing\n\nt0 rel l0\n"
    tr = parse_trace(text)
    assert [ev.op for ev in tr.events] == [ACQ, REL]


def test_interning_order_is_first_occurrence():
    tr = parse_trace("t9 w x5\nt2 w x5\nt9 r x1\n")
    assert tr.events[0].tid == 0  # t9 seen first
    assert tr.events[1].tid == 1
    assert tr.events[0].target == 0  # x5 seen first
    assert tr.events[2].target == 1


def test_lock_and_variable_namespaces_are_separate():
    tr = parse_trace("t0 acq m\nt0 w m\nt0 rel m\n")
    assert tr.lock_count == 1
    assert tr.var_count == 1
    assert tr.events[0].target == 0 and tr.events[1].target == 0


def test_parse_empty():
    tr = parse_trace("")
    assert tr.events == [] and tr.thread_count == 0
    assert serialize_trace(tr) == ""


@pytest.mark.parametrize(
    "bad, lineno",
    [
        ("t0 acq\n", 1),
        ("hello world extra junk\n", 1),
        ("t0 acq l0\nx1 acq l0\n", 2),
        ("t0 frob l0\n", 1),
        ("t0 acq l0\nt0 rel l0\nt0 r 1!bad\n", 3),
        ("t0 fork t1\n", 1),
        ("t0 join t1 t2\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(bad, lineno):
    with pytest.raises(TraceParseError) as exc:
        parse_trace(bad)
    assert exc.value.lineno == lineno
    assert f"line {lineno}" in str(exc.value)


def test_unsupported_ops_are_named():
    with pytest.raises(TraceParseError, match="unsupported operation 'fork'"):
        parse_trace("t0 fork t1\n")


def test_serialize_round_trip():
    text = "t0 acq l0\nt1 r x0\nt0 w x1\nt0 rel l0\n"
    tr = parse_trace(text)
    assert serialize_trace(tr) == text
    again = parse_trace(serialize_trace(tr))
    assert again.events == tr.events


def test_serialize_renames_canonically():
    tr = parse_trace("t7 acq biglock\nt7 rel biglock\n")
    assert serialize_trace(tr) == "t0 acq l0\nt0 rel l0\n"


def test_validate_clean():
    tr = parse_trace("t0 acq l0\nt0 rel l0\nt1 acq l0\nt1 rel l0\n")
    assert validate_trace(tr) == []


def test_validate_reacquire():
    tr = parse_trace("t0 acq l0\nt1 acq l0\n")
    problems = validate_trace(tr)
    assert [p.kind for p in problems] == ["reacquire"]
    assert problems[0].index == 1


def test_validate_reentrant_acquire_flagged():
    tr = parse_trace("t0 acq l0\nt0 acq l0\n")
    assert [p.kind for p in validate_trace(tr)] == ["reacquire"]


def test_validate_release_not_held():
    tr = parse_trace("t0 acq l0\nt1 rel l0\n")
    assert [p.kind for p in validate_trace(tr)] == ["release-not-held"]


def test_validate_message_names_interned_ids_not_trace_names():
    # t5 and m are interned as thread #0 and lock #0, t7 as thread #1;
    # naming them t1/l0 would read as names the trace never used
    tr = parse_trace("t5 acq m\nt7 rel m\n")
    (problem,) = validate_trace(tr)
    assert problem.message == (
        "event 1: thread #1 releases lock #0 held by thread #0"
    )
    assert "t1" not in problem.message and "l0" not in problem.message


def test_validate_release_free():
    tr = parse_trace("t0 rel l0\n")
    assert [p.kind for p in validate_trace(tr)] == ["release-free"]


def test_validate_unreleased_at_end_is_fine():
    tr = parse_trace("t0 acq l0\n")
    assert validate_trace(tr) == []
