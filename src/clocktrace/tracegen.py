"""Deterministic synthetic trace generator.

Four communication topologies over lock acquire/release rounds, each
driven by a splitmix64 stream so the output is bit-identical across
platforms and releases for a given spec:

- single_lock: every round, a uniformly chosen thread acquires and
  releases the one shared lock.
- skewed_locks: like single_lock but with 50 locks chosen uniformly,
  and a "hot" fifth of the threads (the first ceil(k / 5)) weighted 5
  times higher when choosing the acting thread. The shape is fixed.
- star: one server (thread 0) and k-1 clients, with a dedicated lock
  per client. Two interleavings, selected by star_style:
  * "paired" (default): each round picks a client uniformly and emits
    four events — client acq/rel of its lock, then server acq/rel of
    the same lock — so every client round is immediately relayed.
  * "relay": each round picks any thread uniformly and emits two
    events — acq/rel of the thread's own lock for a client, of a
    uniformly chosen client lock for the server.
- pairwise: a dedicated lock per unordered thread pair; each round
  picks an ordered pair (i, j) uniformly and emits four events —
  i acq/rel then j acq/rel of the pair's lock.

Event counts round down to whole rounds (2 or 4 events each); a count
below one round is refused, as it would give an empty trace. These
patterns emit no read or write events; var_count is 0.

Set-up work is done once per distinct thing. SplitMix64 computes its
outputs _BLOCK at a time with a few operations on one big int, and
below() takes them from a list, keeping each bound's rejection limit.
single_lock, skewed_locks and both star styles build a round's events
the first time the round is drawn, in a list indexed by the round's
thread and lock ids, and every later draw of it shares them, as
parse_trace shares one Event per distinct line; pairwise builds each
round's, since its k(k - 1) ordered rounds rarely repeat.

random_trace draws small legal traces that mix lock events with reads
and writes, for tests and the selfcheck sweep.
"""

import struct
from dataclasses import dataclass

from .trace import ACQ, READ, REL, WRITE, Event, Trace, validate_trace

PATTERNS = ("single_lock", "skewed_locks", "star", "pairwise")
STAR_STYLES = ("paired", "relay")

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# SplitMix64 mixes _BLOCK states at once, one per 128-bit lane of a big
# int: _LANES has a 1 at the bottom of each lane, lane i - 1 of _STEPS
# holds i * _GAMMA mod 2**64, and _LOW keeps each lane's low 64 bits
_BLOCK = 256
_LANES = ((1 << 128 * _BLOCK) - 1) // ((1 << 128) - 1)
_STEPS = int.from_bytes(b"".join((i * _GAMMA & _MASK64).to_bytes(16, "little")
                                 for i in range(1, _BLOCK + 1)), "little")
_LOW = _MASK64 * _LANES
# every other little-endian word of the mixed int is a lane's low 64 bits
_WORDS = struct.Struct("<%dQ" % (2 * _BLOCK)).unpack

# skewed_locks' fixed shape: 50 locks chosen uniformly, and a hot fifth
# of the threads each 5 times as likely to act as any other
_SKEWED_LOCKS = 50
_SKEWED_HOT_WEIGHT = 5


class SplitMix64:
    """splitmix64 PRNG (Steele-Lea-Vigna constants), 64-bit state.

    The state after output i is seed + i * gamma mod 2**64, whatever the
    bounds drawn from, and each rejection-sampling attempt uses exactly
    one output, so outputs can be computed ahead of the draws that use
    them. A refill puts the next _BLOCK states in the low 64 bits of
    their own 128-bit lanes of one int and runs the mix on the whole
    int. Each right shift pulls the next lane's low bits into the top of
    this lane; masking with _LOW after the shift and before the multiply
    drops them, so each 64 x 64-bit product stays inside its lane, and
    the draws are the ones a state stepped one output at a time gives.
    The words are unpacked in explicit little-endian order, so every
    platform reads the same draws. A trace with few draws still pays for
    one whole block.

    _state is the state after the buffered block; _block holds its
    unused outputs, next last. below() keeps each bound's rejection
    limit and checks a bound only the first time it sees it. next() is
    below(2**64), the same draw."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._block = []
        # bound -> the largest multiple of bound <= 2**64, which no kept
        # draw reaches
        self._limits = {}

    def next(self) -> int:
        return self.below(1 << 64)

    def below(self, bound: int) -> int:
        """Unbiased draw from range(bound), 0 < bound <= 2**64, by
        rejection sampling."""
        limit = self._limits.get(bound)
        if limit is None:
            if not 0 < bound <= 1 << 64:
                raise ValueError(f"bound must be in 1..2**64, got {bound}")
            limit = self._limits[bound] = (1 << 64) - (1 << 64) % bound
        block = self._block
        while True:
            if not block:
                z = (self._state * _LANES + _STEPS) & _LOW
                z = ((z ^ z >> 30) & _LOW) * 0xBF58476D1CE4E5B9 & _LOW
                z = ((z ^ z >> 27) & _LOW) * 0x94D049BB133111EB & _LOW
                z ^= z >> 31
                # to_bytes has no default length or byte order before 3.11
                block.extend(_WORDS(z.to_bytes(16 * _BLOCK, "little"))[-2::-2])
                self._state = (self._state + _BLOCK * _GAMMA) & _MASK64
            z = block.pop()
            if z < limit:
                return z % bound


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one generated trace."""

    pattern: str
    threads: int
    events: int
    seed: int = 0
    star_style: str = "paired"  # checked for every pattern, used by star only

    def validate(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}; expected one of {PATTERNS}")
        if self.threads < 2:
            raise ValueError(f"threads must be >= 2, got {self.threads}")
        shape = f"star {self.star_style}" if self.pattern == "star" else self.pattern
        size = 4 if shape in ("star paired", "pairwise") else 2
        if self.events < size:
            raise ValueError(
                f"events must be >= {size}, one {shape} round, got {self.events}")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.star_style not in STAR_STYLES:
            raise ValueError(f"unknown star_style {self.star_style!r}; expected one of {STAR_STYLES}")
        # the bound of generate's first draw, refused here with below()'s
        # message so that no draw is made and no output file is created
        if self.pattern == "skewed_locks":
            first = _skewed_total(self.threads)[1]
        elif shape == "star paired":
            first = self.threads - 1
        else:
            first = self.threads
        if first > 1 << 64:
            raise ValueError(f"bound must be in 1..2**64, got {first}")


def generate(spec: GenSpec) -> Trace:
    """Generate the trace described by spec. Deterministic in spec."""
    spec.validate()
    below = SplitMix64(spec.seed).below
    k = spec.threads

    if spec.pattern == "single_lock":
        lock_count = 1
        events = _share_rounds([below(k) for _ in range(spec.events // 2)], k,
                               lambda t: _round(t, 0))
    elif spec.pattern == "skewed_locks":
        lock_count = _SKEWED_LOCKS
        hot, total = _skewed_total(k)
        w = _SKEWED_HOT_WEIGHT
        draws = []  # thread * lock_count + lock
        for _ in range(spec.events // 2):
            r = below(total)
            t = r // w if r < hot * w else hot + (r - hot * w)
            draws.append(t * lock_count + below(lock_count))
        events = _share_rounds(draws, k * lock_count,
                               lambda i: _round(*divmod(i, lock_count)))
    elif spec.pattern == "star":
        lock_count = k - 1  # lock i is client (i + 1)'s dedicated lock
        if spec.star_style == "paired":
            events = _share_rounds(
                [below(k - 1) for _ in range(spec.events // 4)], k - 1,
                lambda lock: _round(lock + 1, lock) + _round(0, lock))
        else:  # relay
            draws = []  # a client's lock, or lock_count + the server's lock
            for _ in range(spec.events // 2):
                t = below(k)
                draws.append(t - 1 if t else lock_count + below(k - 1))
            events = _share_rounds(draws, 2 * lock_count, lambda i: (
                _round(i + 1, i) if i < lock_count else _round(0, i - lock_count)))
    else:  # pairwise: its k(k - 1) ordered rounds rarely repeat
        lock_count = k * (k - 1) // 2
        events = []
        emit = events.append
        for _ in range(spec.events // 4):
            i = below(k)
            j = below(k - 1)
            if j >= i:
                j += 1
            lock = _pair_lock(min(i, j), max(i, j), k)
            emit(Event(i, ACQ, lock))
            emit(Event(i, REL, lock))
            emit(Event(j, ACQ, lock))
            emit(Event(j, REL, lock))

    trace = Trace(events, k, lock_count, 0)
    problems = validate_trace(trace)
    if problems:
        raise AssertionError(
            f"generator produced an illegal trace: {problems[0].message}")
    return trace


def _skewed_total(k):
    """skewed_locks' hot threads, the first ceil(k / 5), and the weighted
    total its acting thread is drawn from."""
    hot = -(-k // 5)
    return hot, hot * _SKEWED_HOT_WEIGHT + (k - hot)


def _round(t, lock):
    """Thread t's acquire and release of lock."""
    return Event(t, ACQ, lock), Event(t, REL, lock)


def _share_rounds(draws, size, build):
    """The events of the rounds drawn, in order. draws holds each round's
    index in range(size), and build(i) makes round i's events: once per
    distinct index, the first time it is drawn, after which every draw of
    it shares them, as parse_trace shares one Event per distinct line.
    The table of built rounds has no more slots than there are draws;
    a round past it is built each time it is drawn."""
    table = [None] * min(size, len(draws))
    cap = len(table)
    events = []
    extend = events.extend
    for i in draws:
        evs = table[i] if i < cap else None
        if evs is None:
            evs = build(i)
            if i < cap:
                table[i] = evs
        extend(evs)
    return events


def _pair_lock(a: int, b: int, k: int) -> int:
    """Index of pair (a, b), a < b, in lexicographic pair order."""
    return a * (2 * k - a - 1) // 2 + (b - a - 1)


def random_trace(seed, events=120, threads=4, locks=3, variables=3):
    """Small legal trace, deterministic in seed (lock discipline holds)."""
    if locks == 0 and variables == 0:
        raise ValueError("need at least one lock or variable to emit events")
    rng = SplitMix64(seed)
    held = {}
    out = []
    while len(out) < events:
        t = rng.below(threads)
        c = rng.below(10)
        if c < 2:
            free = [l for l in range(locks) if l not in held]
            if free:
                lock = free[rng.below(len(free))]
                held[lock] = t
                out.append(Event(t, ACQ, lock))
        elif c < 4:
            mine = [l for l, h in held.items() if h == t]
            if mine:
                lock = mine[rng.below(len(mine))]
                del held[lock]
                out.append(Event(t, REL, lock))
        elif c < 7:
            if variables:
                out.append(Event(t, READ, rng.below(variables)))
        elif variables:
            out.append(Event(t, WRITE, rng.below(variables)))
    return Trace(out, threads, locks, variables)
