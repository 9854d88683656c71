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
of first occurrence; the parsed Trace keeps the thread and variable
names by id, so reports can name what the text named.

parse_trace reads a trace in one pass, from text or from pieces of it
that each end at a line break (a file's lines, or the 16 KiB blocks
analyze reads, each cut after its last line break), and checks lock
discipline in the same pass, so the first bad line in file order,
malformed or misusing a lock, is the one reported.
validate_trace checks lock discipline of a trace built in memory and
reports its first misuse. Both apply one rule, _lock_misuse.

parse_trace builds one Event per distinct line text: a line that repeats
an earlier one, byte for byte, comment included, gets the same Event
object, so events are shared and never mutated; the generator shares
each distinct round's events alike. Its memo, dropped when parse_trace
returns, holds one copy of each distinct line while parsing: in the
worst case, a trace with no repeated line, the whole text once.
serialize_trace renders each thread's name and each op and target's text
once, on first use, and joins the whole text once.
Trace text is UTF-8. Readers decode it with errors="surrogateescape",
and parse_trace names the first line, comment included, that holds the
lone surrogate a byte that is not UTF-8 becomes.

Value records (Violation, analyses.RaceReport, analyses.AnalysisRun,
vclock.Epoch) are namedtuples. Event and Trace are __slots__ classes on
one base, Record: Event fields read faster from slots, and Trace has a
length and name lookups. None is a dataclass, so reading and analyzing a
trace never imports dataclasses or its inspect.
"""

from collections import namedtuple

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


class Record:
    """Base of the plain record classes: the fields are the class's
    __slots__, in order. == compares them between two records of the same
    class, and repr shows them, as a dataclass's do. A record is
    unhashable, as defining __eq__ makes it."""

    __slots__ = ()

    def _values(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"


class Event(Record):
    __slots__ = ("tid", "op", "target")

    def __init__(self, tid, op, target):
        self.tid = tid
        self.op = op
        self.target = target  # lock id for acq/rel, variable id for r/w


class Trace(Record):
    __slots__ = ("events", "thread_count", "lock_count", "var_count",
                 "thread_names", "var_names")

    def __init__(self, events, thread_count, lock_count, var_count,
                 thread_names=None, var_names=None):
        self.events = events
        self.thread_count = thread_count
        self.lock_count = lock_count
        self.var_count = var_count
        # id -> name as the trace text spelled it (parse_trace keeps them);
        # None for a trace built in memory, named as serialize_trace names it
        self.thread_names = thread_names
        self.var_names = var_names

    def __len__(self):
        return len(self.events)

    def thread_name(self, tid):
        names = self.thread_names
        return f"t{tid}" if names is None else names[tid]

    def var_name(self, var):
        names = self.var_names
        return f"x{var}" if names is None else names[var]


Violation = namedtuple("Violation", ("index", "kind", "message"))
Violation.__doc__ = """The first lock-discipline misuse validate_trace finds: the
event's index (0-based), its kind ("reacquire" | "release-not-held" |
"release-free") and a message."""


def parse_trace(source):
    """Parse a trace, checking lock discipline as it goes, into a Trace.

    source is the trace text or any iterable of pieces of it that each
    end at a line break (or at the end of the text), such as an open
    file, which is read once, one piece at a time. Each piece is split
    with one str.splitlines call, and lines are numbered as
    str.splitlines numbers the whole text. Raises
    TraceParseError, naming the line, at the first line in the trace
    that is not UTF-8, malformed or breaks lock discipline (_lock_misuse):
    the analyses assume well-formed lock use and would answer wrongly.
    Lines with the same text share one Event (see the module docstring).
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
    seen = {}  # line text -> the Event parsed from it
    events = []
    append = events.append
    lineno = 0
    for chunk in source:
        # a file splits lines only at \n, \r and \r\n; splitlines also
        # splits at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029
        for raw in chunk.splitlines():
            lineno += 1
            ev = seen.get(raw)
            if ev is None:
                if not raw.isascii():
                    _check_decoded(raw, lineno)
                line = raw.split("#", 1)[0] if "#" in raw else raw
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != 3:
                    if len(parts) == 2 and parts[1] in UNSUPPORTED_OPS:
                        raise TraceParseError(
                            lineno, f"unsupported operation {parts[1]!r}")
                    raise TraceParseError(
                        lineno, f"expected 'tid op target', got {line.strip()!r}")
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
                ev = seen[raw] = Event(tid, op, tgt)
            # a repeated line is checked again: lock discipline depends on
            # the events before it, not on the line alone
            op = ev.op
            if op == ACQ or op == REL:
                misuse = _lock_misuse(holder, ev.tid, op, ev.target)
                if misuse:
                    line = raw.split("#", 1)[0].strip()
                    raise TraceParseError(
                        lineno, f"lock discipline violated ({misuse[0]}): {line!r}")
            append(ev)
    return Trace(events, len(threads), len(locks), len(variables),
                 list(threads), list(variables))


def _check_decoded(raw, lineno):
    """Raise TraceParseError if raw holds a lone surrogate: a byte that
    was not UTF-8 when the line was decoded with surrogateescape."""
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError as exc:
        char = raw[exc.start]
        what = (f"undecodable byte {ord(char) - 0xDC00:#04x}"
                if "\udc80" <= char <= "\udcff" else f"lone surrogate {char!r}")
        raise TraceParseError(lineno, f"{what} (traces are UTF-8)") from None


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
    """Render a Trace back to canonical text (t<i>, l<i>, x<i> names).

    Each thread's "t<i> " and each op and target's "acq l<j>", with its
    line end, is rendered once, the first time an event uses it, and the
    text is joined once. The renderings are kept by id, not by position
    in a list sized by the trace's counts, so any integer id is written
    as itself, whatever the counts say."""
    threads = {}
    # op -> {target id -> the op, the target's name and a line end}
    texts = {ACQ: {}, REL: {}, READ: {}, WRITE: {}}
    parts = []
    append = parts.append
    for ev in trace.events:
        tid = ev.tid
        thread = threads.get(tid)
        if thread is None:
            thread = threads[tid] = f"t{tid} "
        op = ev.op
        target = ev.target
        named = texts[op]
        text = named.get(target)
        if text is None:
            prefix = "l" if op in (ACQ, REL) else "x"
            text = named[target] = f"{op} {prefix}{target}\n"
        append(thread)
        append(text)
    return "".join(parts)


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
