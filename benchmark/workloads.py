"""Workloads, trace set-up, `analyze` invocations and the correctness gate.

Each workload fixes one partial order and one seeded trace generator. The
program under test only ever sees the trace file this module writes.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace

from clocktrace.trace import Trace, serialize_trace
from clocktrace.tracegen import GenSpec, generate
from rwgen import RWSpec, generate_rw

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
KINDS = ("tree", "vector")
PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")
# counts that do not depend on the clock structure; impl_work is not pinned,
# because its definition is expected to change
PINNED_FIELDS = ("vt_work", "races", "pairs_unordered")
# counts on which tree and vector runs of one trace must agree exactly
AGREE_FIELDS = PINNED_FIELDS + ("deep_copies", "events")
ORACLE_PREFIX = 2000  # events; the oracle is quadratic


@dataclass(frozen=True)
class Workload:
    name: str
    po: str
    gen: object  # GenSpec (seed ignored) or RWSpec


# Sizes are set by noise: one `analyze` process varies by 15-20% (IQR over
# median) on a shared 2-core VM, so a run needs about nine invocations of
# each kind for its median to be steady, and each tree+vector pair must
# take about 2 s of a 30 s run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("hub-relay", "hb", GenSpec("star", 1280, 16_000, star_style="relay")),
        Workload("single-lock", "hb", GenSpec("single_lock", 160, 16_000)),
        Workload("rw-shb", "shb", RWSpec()),
        Workload("rw-maz", "maz", RWSpec()),
    )
}


def make_trace(w, seed):
    if isinstance(w.gen, RWSpec):
        return generate_rw(w.gen, seed)
    return generate(replace(w.gen, seed=seed))


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_oracle_prefix(trace, path):
    prefix = Trace(trace.events[:ORACLE_PREFIX], trace.thread_count,
                   trace.lock_count, trace.var_count)
    write_text(path, serialize_trace(prefix))


@dataclass
class Invocation:
    wall_s: float
    maxrss_mb: float
    exit_code: int
    output: str

    def records(self):
        """The `po=... key=value ...` summary lines, one dict per clock kind."""
        out = {}
        for line in self.output.splitlines():
            if line.startswith("po="):
                fields = dict(item.split("=", 1) for item in line.split())
                out[fields["clock"]] = fields
        return out


def analyze_argv(po, clock, path, *extra):
    return [sys.executable, "-m", "clocktrace.cli", "analyze", "--po", po,
            "--clock", clock, "--input", path, "--repeat", "1", *extra]


def invoke(argv):
    """Run one command to completion; wall time and peak RSS are its own.

    stderr is merged into stdout so that one pipe drains everything the
    child writes. The rusage comes from wait4 on this child alone.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    with proc.stdout:
        output = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                      output.decode("utf-8", "replace"))


def load_pinned():
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Gate:
    """Counts attempted and failed `analyze` runs of one workload.

    A run fails if it exits non-zero (which covers verify_bounds), if its
    counts differ from the first run's (tree and vector must agree), if
    the default seed's counts differ from the pinned ones, or, for the
    oracle run, if the engines disagree with the brute-force oracle.
    """

    def __init__(self, events, pinned=None):
        self.events = events
        self.pinned = pinned  # {field: value} or None
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)
        return False

    def check_counts(self, label, counts):
        """counts: {field: value} as analyze prints them. True if they pass."""
        self.attempted += 1
        got = {f: str(counts.get(f)) for f in AGREE_FIELDS}
        if got["events"] != str(self.events):
            return self.fail(f"{label}: events={got['events']}, trace has {self.events}")
        if self.reference is None:
            self.reference = got
        elif got != self.reference:
            return self.fail(f"{label}: counts {got} differ from {self.reference}")
        if self.pinned is not None:
            want = {f: str(self.pinned[f]) for f in PINNED_FIELDS}
            have = {f: got[f] for f in PINNED_FIELDS}
            if have != want:
                return self.fail(f"{label}: counts {have} differ from pinned {want}")
        return True

    def check_invocation(self, inv, kind):
        if inv.exit_code != 0:
            self.attempted += 1
            return self.fail(f"{kind}: exit {inv.exit_code}: {inv.output.strip()[-300:]}")
        record = inv.records().get(kind)
        if record is None:
            self.attempted += 1
            return self.fail(f"{kind}: no summary line in {inv.output.strip()[-300:]!r}")
        return self.check_counts(kind, record)

    def check_oracle(self, inv):
        self.attempted += 1
        if inv.exit_code != 0 or "oracle agreement" not in inv.output:
            return self.fail(f"oracle prefix: exit {inv.exit_code}: {inv.output.strip()[-300:]}")
        return True
