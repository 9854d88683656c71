"""Concurrent execution traces: parsing, serialization, validation.

A trace is a sequence of events, one per line:

    t0 acq l0
    t0 w x0
    t0 rel l0      # trailing comments are fine
    t1 r x0

Thread names must look like ``t<digits>``. Targets may be ``l<digits>`` /
``x<digits>`` or any bare identifier; what namespace a target lives in is
decided by the operation (acq/rel -> lock, r/w -> variable). Names are
interned to dense integer ids in order of first occurrence.
"""

from dataclasses import dataclass, field

ACQ = "acq"
REL = "rel"
READ = "r"
WRITE = "w"

OPS = (READ, WRITE, ACQ, REL)

# Recognized-but-unsupported event kinds. We reject these explicitly so a
# trace using them fails loudly instead of being misread as identifiers.
UNSUPPORTED_OPS = ("fork", "join")


class TraceParseError(ValueError):
    """Raised on malformed trace text. Carries the 1-based line number."""

    def __init__(self, lineno, message):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


@dataclass(frozen=True)
class Event:
    tid: int
    op: str
    target: int  # lock id for acq/rel, variable id for r/w


@dataclass
class Trace:
    events: list
    thread_count: int
    lock_count: int
    var_count: int

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


@dataclass
class Violation:
    """One lock-discipline problem found by validate_trace."""

    index: int  # event index (0-based)
    kind: str  # "reacquire" | "release-not-held" | "release-free"
    message: str


def _intern(name, table):
    if name not in table:
        table[name] = len(table)
    return table[name]


def parse_trace(text):
    """Parse trace text into a Trace. Raises TraceParseError on bad input."""
    threads = {}
    locks = {}
    variables = {}
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            if len(parts) == 2 and parts[1] in UNSUPPORTED_OPS:
                raise TraceParseError(lineno, f"unsupported operation {parts[1]!r}")
            raise TraceParseError(
                lineno, f"expected 'tid op target', got {line!r}"
            )
        tname, op, target = parts
        if not (tname.startswith("t") and tname[1:].isdigit()):
            raise TraceParseError(lineno, f"bad thread name {tname!r} (want t<digits>)")
        if op in UNSUPPORTED_OPS:
            raise TraceParseError(lineno, f"unsupported operation {op!r}")
        if op not in OPS:
            raise TraceParseError(lineno, f"unknown operation {op!r}")
        if not target.isidentifier():
            raise TraceParseError(lineno, f"bad target name {target!r}")
        tid = _intern(tname, threads)
        if op in (ACQ, REL):
            tgt = _intern(target, locks)
        else:
            tgt = _intern(target, variables)
        events.append(Event(tid, op, tgt))
    return Trace(events, len(threads), len(locks), len(variables))


def event_source(text, index):
    """(1-based line number, text without comment) of the index-th event
    in trace text, counting the lines parse_trace turns into events."""
    seen = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            seen += 1
            if seen == index:
                return lineno, line
    raise IndexError(f"trace text has no event {index}")


def serialize_trace(trace):
    """Render a Trace back to canonical text (t<i>, l<i>, x<i> names)."""
    lines = []
    for ev in trace.events:
        prefix = "l" if ev.op in (ACQ, REL) else "x"
        lines.append(f"t{ev.tid} {ev.op} {prefix}{ev.target}")
    return "\n".join(lines) + ("\n" if lines else "")


def validate_trace(trace):
    """Check lock discipline. Returns a list of Violations (empty if clean).

    Flagged: acquiring a lock that is already held by anyone (reentrant
    locking included), releasing a lock the thread does not hold, and
    releasing a lock nobody holds.

    Messages name threads and locks by their interned ids ("thread #1",
    "lock #0"), which number each kind in order of first appearance in
    the trace, not by the names the trace text used.
    """
    holder = {}  # lock id -> tid
    problems = []
    for i, ev in enumerate(trace.events):
        if ev.op == ACQ:
            if ev.target in holder:
                problems.append(
                    Violation(
                        i,
                        "reacquire",
                        f"event {i}: thread #{ev.tid} acquires lock #{ev.target} "
                        f"already held by thread #{holder[ev.target]}",
                    )
                )
            else:
                holder[ev.target] = ev.tid
        elif ev.op == REL:
            if ev.target not in holder:
                problems.append(
                    Violation(
                        i,
                        "release-free",
                        f"event {i}: thread #{ev.tid} releases lock #{ev.target} "
                        f"which is not held",
                    )
                )
            elif holder[ev.target] != ev.tid:
                problems.append(
                    Violation(
                        i,
                        "release-not-held",
                        f"event {i}: thread #{ev.tid} releases lock #{ev.target} "
                        f"held by thread #{holder[ev.target]}",
                    )
                )
            else:
                del holder[ev.target]
    return problems
