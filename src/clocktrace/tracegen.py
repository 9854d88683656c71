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

Event counts round down to whole rounds (2 or 4 events each). These
patterns emit no read or write events; var_count is 0.

random_trace draws small legal traces that mix lock events with reads
and writes, for tests and the selfcheck sweep.
"""

from dataclasses import dataclass

from .trace import ACQ, READ, REL, WRITE, Event, Trace, validate_trace

PATTERNS = ("single_lock", "skewed_locks", "star", "pairwise")
STAR_STYLES = ("paired", "relay")

_MASK64 = (1 << 64) - 1

# skewed_locks' fixed shape: 50 locks chosen uniformly, and a hot fifth
# of the threads each 5 times as likely to act as any other
_SKEWED_LOCKS = 50
_SKEWED_HOT_WEIGHT = 5


class SplitMix64:
    """splitmix64 PRNG (Steele-Lea-Vigna constants), 64-bit state."""

    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + self.GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Unbiased draw from range(bound), 0 < bound <= 2**64, by
        rejection sampling."""
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must be in 1..2**64, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next()
            if r < limit:
                return r % bound


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one generated trace."""

    pattern: str
    threads: int
    events: int
    seed: int = 0
    star_style: str = "paired"  # star only

    def validate(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}; expected one of {PATTERNS}")
        if self.threads < 2:
            raise ValueError(f"threads must be >= 2, got {self.threads}")
        if self.events < 2:
            raise ValueError(f"events must be >= 2, got {self.events}")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.pattern == "star" and self.star_style not in STAR_STYLES:
            raise ValueError(f"unknown star_style {self.star_style!r}; expected one of {STAR_STYLES}")


def generate(spec: GenSpec) -> Trace:
    """Generate the trace described by spec. Deterministic in spec."""
    spec.validate()
    rng = SplitMix64(spec.seed)
    k = spec.threads
    events = []
    emit = events.append

    if spec.pattern == "single_lock":
        lock_count = 1
        for _ in range(spec.events // 2):
            t = rng.below(k)
            emit(Event(t, ACQ, 0))
            emit(Event(t, REL, 0))
    elif spec.pattern == "skewed_locks":
        lock_count = _SKEWED_LOCKS
        hot = -(-k // 5)  # the first ceil(k / 5) threads
        w = _SKEWED_HOT_WEIGHT
        total = hot * w + (k - hot)
        for _ in range(spec.events // 2):
            r = rng.below(total)
            t = r // w if r < hot * w else hot + (r - hot * w)
            lock = rng.below(lock_count)
            emit(Event(t, ACQ, lock))
            emit(Event(t, REL, lock))
    elif spec.pattern == "star":
        lock_count = k - 1  # lock i is client (i + 1)'s dedicated lock
        if spec.star_style == "paired":
            for _ in range(spec.events // 4):
                lock = rng.below(k - 1)
                client = lock + 1
                emit(Event(client, ACQ, lock))
                emit(Event(client, REL, lock))
                emit(Event(0, ACQ, lock))
                emit(Event(0, REL, lock))
        else:  # relay
            for _ in range(spec.events // 2):
                t = rng.below(k)
                lock = rng.below(k - 1) if t == 0 else t - 1
                emit(Event(t, ACQ, lock))
                emit(Event(t, REL, lock))
    else:  # pairwise
        lock_count = k * (k - 1) // 2
        for _ in range(spec.events // 4):
            i = rng.below(k)
            j = rng.below(k - 1)
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
