"""Command-line interface.

Four commands:

- analyze: read a trace file, or stdin, in one streamed pass that
  parses it and checks its lock discipline; run one partial order over
  it with tree clocks, vector clocks, or both, print a summary line per
  run, optionally append a CSV row per run, and list races. With both
  clocks, or with --oracle (small inputs only), one untimed pass then
  replays the trace through one engine per clock kind in lockstep and
  compares every event's timestamp across the kinds and with the
  brute-force oracle; races and vt_work are compared once the runs are
  done.
- gen: write a synthetic trace from the deterministic generator.
- bench: run a (pattern x thread-count x clock) matrix, append all rows
  to a CSV, and print each cell's vector/tree wall-time and impl_work
  ratios.
- selfcheck: run the embedded fixture suite.

Exit codes: 0 success; 1 divergence, race-check mismatch, or assertion
failure; 2 usage or I/O errors, malformed traces, and traces that break
lock discipline (the first bad line in file order, malformed or misusing
a lock, is named). Timing uses a monotonic clock, covers only the engine
(not parsing or the comparison pass), and reports the median over
--repeat runs (default 3).
"""

import argparse
import os
import sys

from .analyses import CLOCK_KINDS, ORDERS, Engine, race_event_indices, run_analysis
from .metrics import verify_bounds
from .oracle import ORACLE_MAX_EVENTS, oracle_races, oracle_timestamps
from .trace import TraceParseError, parse_trace, serialize_trace
from .tracegen import PATTERNS, STAR_STYLES, GenSpec, generate

CSV_COLUMNS = (
    "trace", "po", "clock", "events", "threads", "locks", "vars", "time_ms",
    "races", "pairs_unordered", "vt_work", "impl_work", "deep_copies",
)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, TraceParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="clocktrace",
        description="Tree-clock and vector-clock analyses over concurrent traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run one partial order over a trace file")
    p.add_argument("--po", choices=ORDERS, required=True)
    p.add_argument("--clock", choices=CLOCK_KINDS + ("both",), default="both")
    p.add_argument("--input", required=True, help="trace file, or - for stdin")
    p.add_argument("--csv", help="append one CSV row per run to this file")
    p.add_argument("--races", action="store_true", help="print each race report")
    p.add_argument("--oracle", action="store_true",
                   help=f"cross-check against the brute-force oracle (<= {ORACLE_MAX_EVENTS} events)")
    p.add_argument("--debug", action="store_true",
                   help="re-verify structural invariants after every clock operation")
    p.add_argument("--repeat", type=int, default=3, metavar="N",
                   help="timing repetitions; the median is reported (default 3)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gen", help="write a synthetic trace")
    p.add_argument("--pattern", choices=PATTERNS, required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--star-style", choices=STAR_STYLES, default="paired", help="star only")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run a generator/analysis matrix")
    p.add_argument("--patterns", default=",".join(PATTERNS),
                   help="comma-separated generator patterns (default: all)")
    p.add_argument("--threads", default="10,40,160",
                   help="comma-separated thread counts (default 10,40,160)")
    p.add_argument("--events", type=int, default=0,
                   help="events per trace (default 0 = 100 per thread)")
    p.add_argument("--po", choices=ORDERS, default="hb")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--star-style", choices=STAR_STYLES, default="paired")
    p.add_argument("--csv", default="bench.csv", help="output CSV (default bench.csv)")
    p.add_argument("--repeat", type=int, default=3, metavar="N")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("selfcheck", help="run the embedded fixture suite")
    p.set_defaults(func=_cmd_selfcheck)
    return parser


def _read_trace(path):
    """Parse a trace file, or stdin for "-", line by line as it is read
    (see parse_trace). Raises TraceParseError, naming the line, at the
    first malformed line or lock-discipline violation."""
    if path == "-":
        return parse_trace(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh)


def _timed_runs(trace, po, kind, repeat, debug=False, count_unordered=True):
    """Run `repeat` times; return (last run, median elapsed ms). The
    median is taken as statistics.median takes it (the mean of the middle
    two for an even count) without that module's import cost."""
    elapsed = []
    run = None
    for _ in range(max(1, repeat)):
        run = run_analysis(trace, po, kind, debug=debug,
                           count_unordered=count_unordered)
        elapsed.append(run.elapsed)
    elapsed.sort()
    m = len(elapsed) // 2
    return run, (elapsed[m] + elapsed[~m]) / 2 * 1000.0


def _append_csv(path, results):
    """Append one CSV_COLUMNS row per (trace name, run, ms) result; an
    uncounted pair count is written as an empty field."""
    import csv

    new_file = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(CSV_COLUMNS)
        for name, run, ms in results:
            pairs = "" if run.unordered_pairs is None else run.unordered_pairs
            writer.writerow((
                name, run.po, run.clock_kind, run.events, run.threads,
                run.locks, run.vars, f"{ms:.3f}", len(run.races), pairs,
                run.vt_work, run.impl_work, run.deep_copies,
            ))


def _summary_line(run, ms):
    pairs = "-" if run.unordered_pairs is None else run.unordered_pairs
    return (
        f"po={run.po} clock={run.clock_kind} events={run.events} "
        f"threads={run.threads} locks={run.locks} vars={run.vars} "
        f"races={len(run.races)} pairs_unordered={pairs} "
        f"vt_work={run.vt_work} impl_work={run.impl_work} "
        f"deep_copies={run.deep_copies} time_ms={ms:.3f}"
    )


def _compare_timestamps(trace, po, kinds, want):
    """Replay the trace untimed through one engine per clock kind in
    lockstep, keeping nothing per event. Returns (kinds differ, oracle
    differs): whether any event's timestamps differ between the kinds,
    and whether the first kind's differ from want, the oracle's list
    (None to skip that check)."""
    engines = [Engine(po, trace.thread_count, kind, count_unordered=False)
               for kind in kinds]
    kinds_differ = oracle_differs = False
    for i, ev in enumerate(trace.events):
        stamps = [engine.process(ev).flatten() for engine in engines]
        if stamps[-1] != stamps[0]:
            kinds_differ = True
        if want is not None and stamps[0] != want[i]:
            oracle_differs = True
    return kinds_differ, oracle_differs


def _cmd_analyze(args):
    trace = _read_trace(args.input)
    kinds = [args.clock] if args.clock != "both" else ["tree", "vector"]
    compare = args.clock == "both" or args.oracle
    if args.oracle and len(trace) > ORACLE_MAX_EVENTS:
        print(f"error: --oracle is limited to {ORACLE_MAX_EVENTS} events, "
              f"trace has {len(trace)}", file=sys.stderr)
        return 2

    name = "-" if args.input == "-" else os.path.basename(args.input)
    runs, results = [], []
    for kind in kinds:
        run, ms = _timed_runs(trace, args.po, kind, args.repeat, args.debug)
        verify_bounds(run)
        runs.append(run)
        results.append((name, run, ms))
        print(_summary_line(run, ms))

    if args.races:
        for r in runs[0].races:
            print(f"race {r.kind} var=x{r.var} earlier=t{r.earlier.tid}@{r.earlier.clk} "
                  f"later=t{r.later.tid}@{r.later.clk} event={r.index}")

    if args.csv:
        _append_csv(args.csv, results)

    if not compare:
        return 0
    want = oracle_timestamps(trace, args.po) if args.oracle else None
    kinds_differ, oracle_differs = _compare_timestamps(trace, args.po, kinds, want)

    if args.clock == "both":
        a, b = runs
        if kinds_differ:
            print("divergence: tree and vector timestamps differ", file=sys.stderr)
            return 1
        if a.races != b.races:
            print("divergence: tree and vector race reports differ", file=sys.stderr)
            return 1
        if a.vt_work != b.vt_work:
            print(f"divergence: vt_work differs (tree={a.vt_work}, vector={b.vt_work})",
                  file=sys.stderr)
            return 1
        print("clocks agree: timestamps, races, and entries changed identical")

    if args.oracle:
        if oracle_differs:
            print("divergence: engine timestamps differ from oracle", file=sys.stderr)
            return 1
        if race_event_indices(trace, runs[0].races) != oracle_races(trace, args.po):
            print("divergence: engine races differ from oracle", file=sys.stderr)
            return 1
        print("oracle agreement: timestamps and races match")
    return 0


def _cmd_gen(args):
    spec = GenSpec(
        pattern=args.pattern,
        threads=args.threads,
        events=args.events,
        seed=args.seed,
        star_style=args.star_style,
    )
    text = serialize_trace(generate(spec))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args):
    patterns = [p.strip() for p in args.patterns.split(",") if p.strip()]
    if not patterns:
        print(f"error: no pattern in {args.patterns!r}", file=sys.stderr)
        return 2
    for p in patterns:
        if p not in PATTERNS:
            print(f"error: unknown pattern {p!r}", file=sys.stderr)
            return 2
    try:
        grid = [int(s) for s in args.threads.split(",") if s.strip()]
    except ValueError:
        grid = []
    if not grid:
        print(f"error: bad thread grid {args.threads!r}", file=sys.stderr)
        return 2

    results = []
    for pattern in patterns:
        for k in grid:
            n = args.events if args.events else 100 * k
            trace = generate(GenSpec(pattern, k, n, seed=args.seed,
                                     star_style=args.star_style))
            name = f"{pattern}-k{k}"
            if pattern == "star":
                name += f"-{args.star_style}"
            for kind in ("tree", "vector"):
                run, ms = _timed_runs(trace, args.po, kind, args.repeat,
                                      count_unordered=False)
                verify_bounds(run)
                results.append((name, run, ms))

    _append_csv(args.csv, results)
    for name, run, ms in results:
        print(f"{name}: {_summary_line(run, ms)}")
    _print_speedups(results)
    return 0


def _print_speedups(results):
    """Print the vector/tree wall-time and impl_work ratios of each
    trace cell, which locate the crossover; no threshold. results holds
    each cell's tree row just before its vector row."""
    for (name, tree, tree_ms), (_, vector, vector_ms) in zip(results[::2], results[1::2]):
        if tree_ms > 0:
            print(f"speedup {name} {tree.po}: vector/tree wall time = "
                  f"{vector_ms / tree_ms:.2f}x, "
                  f"impl_work = {vector.impl_work / tree.impl_work:.2f}x")


def _cmd_selfcheck(args):
    from . import selfcheck

    failures = selfcheck.run(report=print)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
