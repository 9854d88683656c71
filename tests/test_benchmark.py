"""The benchmark drives the clock classes directly: benchmark/layers.py
subclasses VectorClock and records, then replays, the engine's clock
calls. Run its smoke test, and check the recorded stream, so a change to
that API fails here."""

import os
import subprocess
import sys

import pytest

from clocktrace.analyses import ORDERS, Engine
from clocktrace.tracegen import random_trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmark", "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("po", ORDERS)
def test_recorded_stream_has_every_clock_the_engine_builds(monkeypatch, po):
    # the aux_init_ns metrics time the ("aux", id) ops of this stream: an
    # engine that stopped building clocks through cls.aux would leave them
    # empty without failing the benchmark
    monkeypatch.syspath_prepend(os.path.join(ROOT, "benchmark"))
    from layers import record_ops

    trace = random_trace(11, events=300, threads=4, locks=3, variables=3)
    ops = record_ops(trace, po)
    engine = Engine(po, trace.thread_count, "vector", count_unordered=False)
    for ev in trace.events:
        engine.process(ev)
    built = (len(engine.lock_clocks) + len(engine.write_clocks)
             + len(engine.read_clocks))
    assert built > 0
    codes = [op[0] for op in ops]
    assert codes.count("inc") == len(trace)
    assert [op[1] for op in ops if op[0] == "aux"] == list(
        range(trace.thread_count, trace.thread_count + built))
    assert codes.count("join") == engine.counter.joins
    assert codes.count("check") == engine.counter.copies
