"""The benchmark drives the clock classes directly: benchmark/layers.py
subclasses VectorClock and records, then replays, the engine's clock
calls. Run its smoke test so a change to that API fails here."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmark", "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
