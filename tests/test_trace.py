"""Trace parsing, serialization, and lock-discipline validation."""

import io
import os
import pickle
import subprocess
import sys

import pytest

from clocktrace import cli
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


def test_parsed_trace_keeps_thread_and_variable_names():
    tr = parse_trace("t9 w x5\nt2 acq m\nt2 w x5\nt2 rel m\nt9 r x1\n")
    assert (tr.thread_names, tr.var_names) == (["t9", "t2"], ["x5", "x1"])
    assert (tr.thread_name(0), tr.var_name(1)) == ("t9", "x1")
    built = Trace(tr.events, 2, 1, 2)  # in memory: named as serialized
    assert (built.thread_names, built.var_names) == (None, None)
    assert (built.thread_name(0), built.var_name(1)) == ("t0", "x1")


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
        # a repeated line shares its Event and is checked again
        ("t0 acq l0\nt0 acq l0\n", 2, "reacquire", "t0 acq l0"),
        ("t0 acq l0  # take\nt0 rel l0\nt0 acq l0  # take\nt0 acq l0  # take\n",
         4, "reacquire", "t0 acq l0"),
    ],
)
def test_parse_rejects_lock_misuse_on_its_line(text, lineno, kind, line):
    with pytest.raises(TraceParseError) as exc:
        parse_trace(text)
    assert exc.value.lineno == lineno
    assert str(exc.value) == (
        f"line {lineno}: lock discipline violated ({kind}): {line!r}")


def test_parse_names_the_line_of_an_undecodable_byte():
    # a reader decodes with surrogateescape, which keeps a bad byte as a
    # lone surrogate for parse_trace to find
    text = b"t0 w x\n# caf\xe9\nt1 w x\n".decode("utf-8", "surrogateescape")
    with pytest.raises(TraceParseError) as exc:
        parse_trace(text)
    assert str(exc.value) == "line 2: undecodable byte 0xe9 (traces are UTF-8)"
    assert len(parse_trace("t0 w x  # café\n")) == 1


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
        # repeated lines, with and without a trailing comment
        ("t0 acq l\nt0 w x\nt0 rel l\nt0 acq l\nt0 w x  # again\nt0 rel l\n"
         "t0 w x  # again\nt1 r x\nt0 w x\n", None),
        ("t0 acq l\nt0 rel l  # out\nt0 w x\nt0 w x\nt0 rel l  # out\n", 5),
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
        lines = [ln for ln in text.splitlines() if ln.split("#", 1)[0].strip()]
        assert len(from_text) == len(lines)
        # one Event per distinct line text
        assert len(set(map(id, from_text.events))) == len(set(lines))
    else:
        assert from_text[0] == lineno


def as_read(raw):
    """raw as a file reader returns it, with CRLF and lone CR line ends
    read as LF: the reader's blocks are counted in that text."""
    return raw.replace("\r\n", "\n").replace("\r", "\n")


def filler(raw, upto):
    """Whole CRLF-ended lines that bring raw, as read, to upto characters."""
    gap = upto - len(as_read(raw))
    assert gap >= 9
    return "t1 w x\r\n" * (gap // 7 - 1) + "#" * (gap % 7 + 6) + "\r\n"


def multi_block_trace(fault):
    """A trace four read blocks long, ending without a line break: one
    line straddles the first block boundary, the second block ends with
    a form feed and the third starts with U+2028, and CRLF and lone-CR
    line ends mix. fault ("undecodable", "misuse" or None) puts an
    undecodable byte in the second block or a lock misuse in the third."""
    block = cli._READ_BLOCK
    raw = "t0 acq l0\r\n"
    raw += filler(raw, block - 4) + "t2 w x  # across the boundary\r\n"
    if fault == "undecodable":
        raw += "t1 r x  # caf\udce9\r\n"
    raw += filler(raw, 2 * block - 7) + "t1 r x\x0c\u2028t0 r x\n"
    raw += "t2 r x\rt1 r x\r" * 10
    if fault == "misuse":
        raw += "t1 rel l0\r\n"
    raw += filler(raw, 3 * block + 5) + "t0 rel l0\r\nt2 acq l1\rt2 rel l1"
    text = as_read(raw)
    assert text[block - 5] == "\n"
    assert text[block - 4:].startswith("t2 w x  # across")
    assert text[2 * block - 1:2 * block + 1] == "\x0c\u2028"
    assert len(text) > 3 * block and not text.endswith("\n")
    return raw


# reads stdin as analyze does and pickles the outcome as parse_outcome
# gives it
STDIN_PROBE = """
import pickle, sys
from clocktrace.cli import _read_trace
from clocktrace.trace import TraceParseError
try:
    outcome = _read_trace("-")
except TraceParseError as exc:
    outcome = exc.lineno, str(exc)
sys.stdout.buffer.write(pickle.dumps(outcome))
"""


@pytest.mark.parametrize("fault, error", [
    (None, None),
    ("undecodable", "undecodable byte 0xe9 (traces are UTF-8)"),
    ("misuse", "lock discipline violated (release-not-held): 't1 rel l0'"),
], ids=["legal", "undecodable", "misuse"])
def test_block_reads_parse_as_the_text_does(tmp_path, fault, error):
    """analyze reads a file, and stdin, in blocks cut at their last line
    break: the Trace, or the line and message of the error, match
    parse_trace on the whole text."""
    raw = multi_block_trace(fault)
    data = raw.encode("utf-8", "surrogateescape")
    path = tmp_path / "t.trace"
    path.write_bytes(data)
    from_text = parse_outcome(raw)
    if error is None:
        assert isinstance(from_text, Trace)
        assert (from_text.thread_count, from_text.lock_count) == (3, 2)
    else:
        lineno, message = from_text
        assert message == f"line {lineno}: {error}"
        first_block = as_read(raw)[:cli._READ_BLOCK]
        assert lineno > len(first_block.splitlines())
    try:
        from_file = cli._read_trace(str(path))
    except TraceParseError as exc:
        from_file = exc.lineno, str(exc)
    assert from_file == from_text
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    proc = subprocess.run([sys.executable, "-c", STDIN_PROBE], input=data,
                          capture_output=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert pickle.loads(proc.stdout) == from_text


def test_unsupported_ops_are_named():
    with pytest.raises(TraceParseError, match="unsupported operation 'fork'"):
        parse_trace("t0 fork t1\n")
    with pytest.raises(TraceParseError, match="unsupported operation 'fork'"):
        parse_trace("t0 fork\n")  # its target left out


def test_serialize_round_trip():
    text = "t0 acq l0\nt1 r x0\nt0 w x1\nt0 rel l0\n"
    tr = parse_trace(text)
    assert serialize_trace(tr) == text
    again = parse_trace(serialize_trace(tr))
    assert again.events == tr.events


def test_serialize_renames_canonically():
    tr = parse_trace("t7 acq biglock\nt7 rel biglock\n")
    assert serialize_trace(tr) == "t0 acq l0\nt0 rel l0\n"


def test_serialize_writes_each_id_as_itself_whatever_the_counts():
    # names are rendered once per id, and kept by id, not in lists
    # sized by the trace's counts
    tr = Trace([Event(5, ACQ, 9), Event(-1, WRITE, 3), Event(0, READ, 12),
                Event(5, REL, 9), Event(-1, WRITE, 3)], 1, 1, 1)
    assert serialize_trace(tr) == (
        "t5 acq l9\nt-1 w x3\nt0 r x12\nt5 rel l9\nt-1 w x3\n")


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
