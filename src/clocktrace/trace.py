"""Concurrent execution traces: parsing, serialization, validation.

A trace is a sequence of events, one per line:

    t0 acq l0
    t0 w x0
    t0 rel l0      # trailing comments are fine
    t1 r x0

Thread names must look like ``t<digits>``, with ASCII digits. Targets
may be ``l<digits>`` / ``x<digits>`` or any bare identifier; what
namespace a target lives in is decided by the operation (acq/rel ->
lock, r/w -> variable). Names are interned to dense integer ids in order
of first occurrence.

parse_trace reads a trace in one pass, from text or line by line from a
file, and checks lock discipline in the same pass, so the first bad line
in file order, malformed or misusing a lock, is the one reported.
validate_trace checks lock discipline of a trace built in memory and
reports its first misuse. Both apply one rule, _lock_misuse.
"""

from dataclasses import dataclass

ACQ = "acq"
REL = "rel"
READ = "r"
WRITE = "w"

# Recognized-but-unsupported event kinds. We reject these explicitly so a
# trace using them fails loudly instead of being misread as identifiers.
UNSUPPORTED_OPS = ("fork", "join")


class TraceParseError(ValueError):
    """Raised on malformed trace text or lock misuse. Carries the 1-based
    line number."""

    def __init__(self, lineno, message):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


@dataclass(slots=True)
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


@dataclass
class Violation:
    """The first lock-discipline misuse validate_trace finds."""

    index: int  # event index (0-based)
    kind: str  # "reacquire" | "release-not-held" | "release-free"
    message: str


def parse_trace(source):
    """Parse a trace, checking lock discipline as it goes, into a Trace.

    source is the trace text or any iterable of its lines, such as an
    open file or sys.stdin, which is read once, line by line. Either way
    lines are numbered as str.splitlines numbers them. Raises
    TraceParseError, naming the line, at the first line in the trace
    that is malformed or breaks lock discipline (see _lock_misuse): the
    analyses assume well-formed lock use and would answer wrongly.
    """
    if isinstance(source, str):
        source = (source,)
    threads = {}
    locks = {}
    variables = {}
    # op -> (the op's constant, the namespace its targets are interned in)
    ops = {ACQ: (ACQ, locks), REL: (REL, locks),
           READ: (READ, variables), WRITE: (WRITE, variables)}
    holder = {}  # lock id -> id of the thread holding it
    events = []
    append = events.append
    lineno = 0
    for chunk in source:
        # a file splits lines only at \n, \r and \r\n; splitlines also
        # splits at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029
        for raw in chunk.splitlines():
            lineno += 1
            if "#" in raw:
                raw = raw.split("#", 1)[0]
            parts = raw.split()
            if not parts:
                continue
            if len(parts) != 3:
                if len(parts) == 2 and parts[1] in UNSUPPORTED_OPS:
                    raise TraceParseError(lineno, f"unsupported operation {parts[1]!r}")
                raise TraceParseError(
                    lineno, f"expected 'tid op target', got {raw.strip()!r}"
                )
            tname, op, target = parts
            # a name's syntax is checked only when it is first seen
            tid = threads.get(tname)
            if tid is None:
                if not (tname.startswith("t") and tname.isascii()
                        and tname[1:].isdigit()):
                    raise TraceParseError(
                        lineno, f"bad thread name {tname!r} (want t<digits>)")
                tid = threads[tname] = len(threads)
            known = ops.get(op)
            if known is None:
                if op in UNSUPPORTED_OPS:
                    raise TraceParseError(lineno, f"unsupported operation {op!r}")
                raise TraceParseError(lineno, f"unknown operation {op!r}")
            op, table = known
            tgt = table.get(target)
            if tgt is None:
                if not target.isidentifier():
                    raise TraceParseError(lineno, f"bad target name {target!r}")
                tgt = table[target] = len(table)
            if table is locks:
                misuse = _lock_misuse(holder, tid, op, tgt)
                if misuse:
                    raise TraceParseError(
                        lineno,
                        f"lock discipline violated ({misuse[0]}): {raw.strip()!r}")
            append(Event(tid, op, tgt))
    return Trace(events, len(threads), len(locks), len(variables))


def _lock_misuse(holder, tid, op, lock):
    """Apply thread tid's acquire or release of lock to holder (lock id ->
    id of the thread holding it). Returns None, or (kind, the lock's
    holder before the event, None if free) when the event breaks lock
    discipline: acquiring a lock anyone holds, reentrant locking included
    ("reacquire"); releasing a lock nobody holds ("release-free"), or one
    another thread holds ("release-not-held")."""
    if op == ACQ:
        held_by = holder.get(lock)
        if held_by is not None:
            return "reacquire", held_by
        holder[lock] = tid
        return None
    held_by = holder.pop(lock, None)
    if held_by == tid:
        return None
    return ("release-free" if held_by is None else "release-not-held"), held_by


def serialize_trace(trace):
    """Render a Trace back to canonical text (t<i>, l<i>, x<i> names)."""
    lines = []
    for ev in trace.events:
        prefix = "l" if ev.op in (ACQ, REL) else "x"
        lines.append(f"t{ev.tid} {ev.op} {prefix}{ev.target}")
    return "\n".join(lines) + ("\n" if lines else "")


_MISUSE_MESSAGES = {
    "reacquire": "acquires lock #{} already held by thread #{}",
    "release-free": "releases lock #{} which is not held",
    "release-not-held": "releases lock #{} held by thread #{}",
}


def validate_trace(trace):
    """Check the lock discipline of a trace built in memory by the rule
    parse_trace applies (see _lock_misuse). Returns [] if it holds, else
    a one-item list: the Violation of the first misuse, as parse_trace
    stops at the first.

    Messages name threads and locks by their interned ids ("thread #1",
    "lock #0"), which number each kind in order of first appearance in
    the trace, not by the names the trace text used.
    """
    holder = {}
    for i, ev in enumerate(trace.events):
        if ev.op == ACQ or ev.op == REL:
            misuse = _lock_misuse(holder, ev.tid, ev.op, ev.target)
            if misuse:
                kind, held_by = misuse
                what = _MISUSE_MESSAGES[kind].format(ev.target, held_by)
                return [Violation(i, kind, f"event {i}: thread #{ev.tid} {what}")]
    return []
