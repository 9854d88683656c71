"""Trace parsing, serialization, and lock-discipline validation."""

import io

import pytest

from clocktrace.tracegen import SplitMix64
from clocktrace.trace import (
    ACQ,
    READ,
    REL,
    WRITE,
    Event,
    Trace,
    TraceParseError,
    Violation,
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
        # names are checked when first seen, on whichever line that is
        ("t0 w x\nt1 w x\nt0 r x\nt1 r x\nt2x w x\n", 5),
        ("t0 w x\nt0 acq l\nt0 rel l\nt0 w y\nt0 w 9y\n", 5),
        # the first bad line in file order wins, lock misuse or malformed
        ("t0 acq l0\nt0 w x\nt1 acq l0\n" + "t0 w x\n" * 6 + "t0 w\n", 3),
        ("t0 acq l0\nt0 w\nt1 acq l0\n", 2),
        # thread digits are ASCII: a superscript or Arabic-Indic digit is not
        ("t\u00b2 acq l0\n", 1),
        ("t1 w x\nt\u0661 w x\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(bad, lineno):
    with pytest.raises(TraceParseError) as exc:
        parse_trace(bad)
    assert exc.value.lineno == lineno
    assert f"line {lineno}" in str(exc.value)


@pytest.mark.parametrize(
    "text, lineno, kind, line",
    [
        ("t0 acq l0\nt1 acq l0\n", 2, "reacquire", "t1 acq l0"),
        ("t0 acq m\n\n# c\nt0 acq m  # again\n", 4, "reacquire", "t0 acq m"),
        ("t0 acq l0\nt1 rel l0\n", 2, "release-not-held", "t1 rel l0"),
        ("t0 w x\nt0 rel l0\n", 2, "release-free", "t0 rel l0"),
        ("t0 acq l0\nt0 rel l0\nt0 rel l0\n", 3, "release-free", "t0 rel l0"),
    ],
)
def test_parse_rejects_lock_misuse_on_its_line(text, lineno, kind, line):
    with pytest.raises(TraceParseError) as exc:
        parse_trace(text)
    assert exc.value.lineno == lineno
    assert str(exc.value) == (
        f"line {lineno}: lock discipline violated ({kind}): {line!r}")


def parse_outcome(source):
    try:
        return parse_trace(source)
    except TraceParseError as exc:
        return exc.lineno, str(exc)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("t0 acq l\r\nt0 w x\r\nt0 rel l\r\n", None),
        ("t0 w x\rt1 w x\rt0 r x\n", None),
        ("t0 w x\x0ct1 w x\n", None),
        ("t0 w x\u2028t1 w x\u2029t2 w x\x85t0 r x\n", None),
        ("t0 w x\x1ct1 w x\x1dt2 w x\x1et0 r x\x0bt1 r x\n", None),
        ("\n# comment only\n   \n\r\nt0 w x  # trailing\n\n", None),
        ("t0 acq l\nt0 rel l", None),
        ("", None),
        ("t0 w x\r\n\r\nt0 w\r\n", 3),
        ("t0 w x\rt0 w\n", 2),
        ("t0 w x\x0c\nt0 w x y\n", 3),
        ("t0 acq l\u2028t1 acq l\n", 2),
        ("t0 w x\n# c\n\nt0 rel l", 4),
        ("t0 acq l\x0ct0 w x\x85t0 w x\n\n", None),
    ],
)
def test_file_stream_and_text_agree(tmp_path, text, lineno):
    """A file read line by line (as analyze reads one), a text stream (as
    stdin is) and the text itself give the same Trace, or fail on the
    same line, numbered as str.splitlines numbers lines."""
    path = tmp_path / "t.trace"
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, encoding="utf-8") as fh:
        from_file = parse_outcome(fh)
    from_stream = parse_outcome(io.StringIO(text))
    from_text = parse_outcome(text)
    assert from_file == from_stream == from_text
    if lineno is None:
        assert isinstance(from_text, Trace)
        assert len(from_text) == sum(
            bool(ln.split("#", 1)[0].strip()) for ln in text.splitlines())
    else:
        assert from_text[0] == lineno


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


def built_trace(*events):
    """An in-memory trace of lock events, as the generators build theirs;
    parse_trace would reject the misuse before validate_trace saw it."""
    return Trace(list(events), 1 + max(ev.tid for ev in events),
                 1 + max(ev.target for ev in events), 0)


def test_validate_reacquire():
    tr = built_trace(Event(0, ACQ, 0), Event(1, ACQ, 0))
    problems = validate_trace(tr)
    assert [p.kind for p in problems] == ["reacquire"]
    assert problems[0].index == 1


def test_validate_reentrant_acquire_flagged():
    tr = built_trace(Event(0, ACQ, 0), Event(0, ACQ, 0))
    assert [p.kind for p in validate_trace(tr)] == ["reacquire"]


def test_validate_release_not_held():
    tr = built_trace(Event(0, ACQ, 0), Event(1, REL, 0))
    assert [p.kind for p in validate_trace(tr)] == ["release-not-held"]


def test_validate_message_names_interned_ids_not_trace_names():
    # thread #1 releases lock #0 held by thread #0; naming them t1/l0
    # would read as names a trace text used, which it need not have
    tr = built_trace(Event(0, ACQ, 0), Event(1, REL, 0))
    (problem,) = validate_trace(tr)
    assert problem.message == (
        "event 1: thread #1 releases lock #0 held by thread #0"
    )
    assert "t1" not in problem.message and "l0" not in problem.message


def test_validate_release_free():
    tr = built_trace(Event(0, REL, 0))
    assert [p.kind for p in validate_trace(tr)] == ["release-free"]


def test_validate_unreleased_at_end_is_fine():
    tr = parse_trace("t0 acq l0\n")
    assert validate_trace(tr) == []


def test_validate_reports_only_the_first_misuse():
    # event 1 reacquires lock 0; event 3 releases the free lock 1
    tr = built_trace(Event(0, ACQ, 0), Event(1, ACQ, 0), Event(0, REL, 0),
                     Event(1, REL, 1))
    assert validate_trace(tr) == [Violation(
        1, "reacquire", "event 1: thread #1 acquires lock #0 already held by thread #0")]


def random_lock_events(seed):
    """1-12 acquires and releases of 2 locks by 3 threads. Three steps in
    four acquire a free lock or release a held one by its holder, as the
    earlier such steps left them; the rest are random, so many traces
    break lock discipline."""
    rng = SplitMix64(seed)
    holder = {}
    events = []
    for _ in range(1 + rng.below(12)):
        t, lock = rng.below(3), rng.below(2)
        if rng.below(4) == 0:
            op = (ACQ, REL)[rng.below(2)]
        elif lock in holder:
            t, op = holder.pop(lock), REL
        else:
            holder[lock], op = t, ACQ
        events.append(Event(t, op, lock))
    return events


def test_parser_and_validator_apply_one_rule():
    """parse_trace stops at line i+1 with kind K exactly when validate_trace
    reports Violation(i, K) for the same events built in memory."""
    outcomes = set()
    for seed in range(300):
        events = random_lock_events(seed)
        problems = validate_trace(built_trace(*events))
        lines = [f"t{ev.tid} {ev.op} l{ev.target}" for ev in events]
        outcome = parse_outcome("\n".join(lines))
        if problems:
            (p,) = problems
            assert outcome == (p.index + 1, f"line {p.index + 1}: lock discipline "
                               f"violated ({p.kind}): {lines[p.index]!r}"), seed
            outcomes.add(p.kind)
        else:
            assert isinstance(outcome, Trace), seed
            outcomes.add("legal")
    assert outcomes == {"legal", "reacquire", "release-free", "release-not-held"}
