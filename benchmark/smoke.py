"""Smoke test of the benchmark itself.

    python3 benchmark/smoke.py

Runs every workload at a tiny size, untraced and traced, twice with one
seed. Checks that each run passes its correctness gate, that it emits
exactly the end-to-end or per-layer metrics BENCHMARK.json names, each
with its unit, and that the two runs wrote bit-identical trace files and
reported identical exact counters. Last, checks that run.py refuses to
run, without printing a result, where the repository's sources are
missing. Exits non-zero on the first failure.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from rwgen import RWSpec  # noqa: E402
from run import run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
TINY_THREADS = {"hub-relay": 40, "single-lock": 8}
TINY_RW = RWSpec(threads=8, events=600, variables=40, locks=4)


def tiny(w):
    if isinstance(w.gen, RWSpec):
        return replace(w, gen=TINY_RW)
    return replace(w, gen=replace(w.gen, threads=TINY_THREADS[w.name], events=400))


def check(ok, message):
    if not ok:
        raise SystemExit(f"smoke: FAIL: {message}")


def run_quietly(w, trace, out_root):
    with contextlib.redirect_stdout(io.StringIO()):
        return run_workload(w, SEED, 0, trace, None, out_root=out_root)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    out = os.path.join(HERE, "out", "smoke")
    shutil.rmtree(out, ignore_errors=True)
    for name, w in WORKLOADS.items():
        w = tiny(w)
        for trace in (0, 1):
            first, second = (run_quietly(w, trace, os.path.join(out, side))
                             for side in ("a", "b"))
            label = f"{name} --trace {trace}"
            for res in (first, second):
                check(res["correct"] and res["failed"] == 0, f"{label}: gate failed: {res}")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                check(got == expected[trace],
                      f"{label}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(got) ^ set(expected[trace]))}")
            exact = {k for k, unit in expected[trace].items() if unit == "count"}
            counters = [{k: r["metrics"][k]["value"] for k in exact} for r in (first, second)]
            check(counters[0] == counters[1], f"{label}: exact counters differ: {counters}")
            texts = []
            for side in ("a", "b"):
                with open(os.path.join(out, side, f"{name}-seed{SEED}", "trace.txt"), "rb") as fh:
                    texts.append(fh.read())
            check(texts[0] == texts[1], f"{label}: trace files differ")
            print(f"smoke: ok {label}: {len(first['metrics'])} metrics, "
                  f"{first['attempted']} analyze runs")

    # a directory holding only BENCHMARK.json and this directory
    bare = os.path.join(out, "bare")
    shutil.copytree(HERE, os.path.join(bare, "benchmark"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "rw-shb",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"run.py without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("smoke: ok run.py refuses to run without the sources")
    shutil.rmtree(out)
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
