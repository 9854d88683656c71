"""Benchmark of `clocktrace analyze`: tree vs vector clocks, end to end.

    python3 benchmark/run.py --workload hub-relay --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. With --trace 0 the run generates the
workload's trace, then runs `python -m clocktrace.cli analyze` on it as a
closed loop of one client: one process at a time, alternating --clock tree
and --clock vector, until --seconds have passed. It reports end-to-end
metrics from the wall time and rusage of those processes and from
repeated set-ups, with times scaled to a reference host speed by the
loads in calibrate.py run next to them (README.md says why). With --trace 1 it
instead makes one in-process pass that times calls into each module and
reports per-layer metrics (see layers.py). The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. README.md in
this directory explains how to read it.
"""

import argparse
import gc
import itertools
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS_PER_PAIR = 3
CALIBRATE_ARGV = [sys.executable, os.path.join(HERE, "calibrate.py")]
# median wall times of calibrate.py and of its allocation_load on the
# 2-core VM the benchmark was written on; times are reported as if the
# host ran at that speed
REFERENCE_CAL_S = 0.25
REFERENCE_ALLOCATION_S = 0.008


def machine_context():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def timed_run(w, seed, seconds, out_dir, pinned):
    """End-to-end metrics of one workload. Returns (gate, metrics, samples)."""
    from calibrate import allocation_load
    from clocktrace.trace import serialize_trace
    from workloads import (KINDS, Gate, analyze_argv, invoke, make_trace,
                           write_oracle_prefix, write_text)

    path = os.path.join(out_dir, "trace.txt")
    setup = []  # (wall time, allocation load before it, after it)

    def set_up():
        """The trace, its set-up's wall time, and the wall times of the
        allocation loads just before and after it.

        A set-up takes tens of ms, so a collection of this process's heap
        in the middle of one would swamp it: collect first, then time it
        with the collector off."""
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            allocation_load()
            t1 = time.perf_counter()
            trace = make_trace(w, seed)
            write_text(path, serialize_trace(trace))
            t2 = time.perf_counter()
            allocation_load()
            t3 = time.perf_counter()
        finally:
            gc.enable()
        return trace, (t2 - t1, t1 - t0, t3 - t2)

    trace, _ = set_up()  # untimed: it also warms the generator's code paths
    gate = Gate(len(trace), pinned)
    # the oracle run also warms the interpreter's caches before timing
    prefix = os.path.join(out_dir, "prefix.txt")
    write_oracle_prefix(trace, prefix)
    gate.check_oracle(invoke(analyze_argv(w.po, "both", prefix, "--oracle")))

    calibration = []

    def calibrate():
        cal = invoke(CALIBRATE_ARGV)
        if cal.exit_code != 0:
            raise RuntimeError(f"calibrate.py failed: {cal.output}")
        calibration.append(cal.wall_s)

    # closed loop: alternate the kinds, and stop before the invocation
    # that the medians of earlier ones say would not fit. The host's speed
    # drifts within seconds, so a calibration runs between any two
    # invocations, and SETUPS_PER_PAIR set-ups before each pair.
    timed = {kind: [] for kind in KINDS}  # (invocation, calibration just before it)
    walls = {kind: [] for kind in KINDS}
    start = time.perf_counter()
    for i in itertools.count():
        kind = KINDS[i % len(KINDS)]
        if walls[kind]:
            need = statistics.median(walls[kind]) + statistics.median(calibration)
            if time.perf_counter() - start + need > seconds:
                break
        calibrate()
        if kind == KINDS[0]:
            setup.extend(set_up()[1] for _ in range(SETUPS_PER_PAIR))
        inv = invoke(analyze_argv(w.po, kind, path))
        walls[kind].append(inv.wall_s)
        if gate.check_invocation(inv, kind):
            timed[kind].append((inv, len(calibration) - 1))
    calibrate()  # the one after the last invocation

    # Each process is scaled to the reference host speed, judged by the
    # calibrations just before and just after it; each set-up, by the
    # allocation loads just before and just after it.
    def slowdown(c):
        return (calibration[c] + calibration[c + 1]) / (2 * REFERENCE_CAL_S)

    print(f"calibration median {statistics.median(calibration)} s, "
          f"reference {REFERENCE_CAL_S} s")
    print(f"raw setup_s {statistics.median(wall for wall, _, _ in setup)} s")
    metrics = {"setup_s": (statistics.median(
        wall * 2 * REFERENCE_ALLOCATION_S / (before + after)
        for wall, before, after in setup), "s")}
    for kind in KINDS:
        ok = timed[kind]
        if ok:
            raw = statistics.median(len(trace) / inv.wall_s for inv, _ in ok)
            print(f"raw {kind}_events_per_s {raw} events/s")
            rate = statistics.median(
                len(trace) / inv.wall_s * slowdown(c) for inv, c in ok)
            metrics[f"{kind}_events_per_s"] = (rate, "events/s")
            metrics[f"{kind}_peak_rss_mb"] = (max(inv.maxrss_mb for inv, _ in ok), "MB")
    samples = {
        "calibration_s": calibration,
        "setup_s": [{"wall_s": wall, "allocation_load_s": [before, after]}
                    for wall, before, after in setup],
        **{kind: [{"wall_s": inv.wall_s, "maxrss_mb": inv.maxrss_mb, "calibration": c}
                  for inv, c in timed[kind]]
           for kind in KINDS},
    }
    return gate, metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "clocktrace", "cli.py")):
        print(f"error: no clocktrace sources under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, load_pinned

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 1 << 64:
        print(f"error: seed must fit in 64 bits, got {args.seed}", file=sys.stderr)
        return 2
    pinned_all = load_pinned()
    pinned = pinned_all["counts"][w.name] if args.seed == pinned_all["seed"] else None
    result = run_workload(w, args.seed, args.seconds, args.trace, pinned)
    print(json.dumps(result))
    return 0


def run_workload(w, seed, seconds, trace, pinned, out_root=None):
    """One run of workload w. Prints a readable report, writes the full
    record (and spans, when traced) under out_root, and returns the
    result object that main prints as its last line."""
    out_root = out_root or os.path.join(HERE, "out")
    out_dir = os.path.join(out_root, f"{w.name}-seed{seed}")
    os.makedirs(out_dir, exist_ok=True)
    context = machine_context()
    print(f"machine: {json.dumps(context)}")
    print(f"workload {w.name}: po={w.po} seed={seed} trace={trace}")

    if trace:
        from layers import traced_run
        gate, metrics, extra = traced_run(w, seed, out_dir, pinned)
    else:
        gate, metrics, extra = timed_run(w, seed, seconds, out_dir, pinned)

    for problem in gate.problems:
        print(f"FAILED {problem}")
    error_rate = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"error_rate {error_rate} ({gate.failed} of {gate.attempted} analyze runs failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed if gate.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": w.name, "po": w.po, "seed": seed, "trace": trace,
              "machine": context, "result": result, "samples": extra,
              "problems": gate.problems}
    with open(os.path.join(out_dir, f"result-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


if __name__ == "__main__":
    sys.exit(main())
