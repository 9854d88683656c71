"""Command-line interface.

Four commands:

- analyze: read a trace file, or stdin, in one streamed pass that
  parses it and checks its lock discipline; run one partial order over
  it with tree clocks, vector clocks, or both, print a summary line per
  run, optionally append a CSV row per run, and list races. With both
  clocks, or with --oracle (small inputs only), metrics.cross_check
  then replays the trace untimed through one engine per clock kind in
  lockstep and compares every event's timestamp, the race reports and
  vt_work across the kinds and, with --oracle, with the brute-force
  oracle. The timed runs' unordered-pair counts must agree as well; the
  first problem found is printed as a divergence.
- gen: write a synthetic trace from the deterministic generator.
  GenSpec.validate is the one check of pattern and star-style names.
- bench: run a (pattern x thread-count x clock) matrix, append all rows
  to a CSV, and print each cell's vector/tree wall-time and impl_work
  ratios.
- selfcheck: run the embedded fixture suite.

Exit codes: 0 success; 1 divergence, race-check mismatch, or assertion
failure; 2 usage or I/O errors, malformed traces, traces that break lock
discipline (the first bad line in file order, malformed or misusing a
lock, is named), and an analyze input with no events; 3 out of memory,
reported as one line that names the command and, when an engine run was
in progress, its thread count k and clock kind. Timing uses a
monotonic clock, covers only the engine (not parsing or the comparison
pass), and reports the median over --repeat runs (default 3).

Every command runs with the cyclic garbage collector off: the pipeline
builds no reference cycles, so a collection would only scan the clocks'
lists and free nothing. Reported times therefore exclude collection
pauses. Library calls (run_analysis, Engine, parse_trace) keep the
caller's GC settings; main() restores them when the command returns.

gen and bench import tracegen when they run, so analyze never loads it.
"""

import argparse
import gc
import os
import sys
from contextlib import contextmanager

from .analyses import CLOCK_KINDS, ORDERS, run_analysis
from .metrics import cross_check, verify_bounds
from .oracle import ORACLE_MAX_EVENTS
from .trace import TraceParseError, parse_trace, serialize_trace

CSV_COLUMNS = (
    "trace", "po", "clock", "events", "threads", "locks", "vars", "time_ms",
    "races", "pairs_unordered", "vt_work", "impl_work", "deep_copies",
)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (OSError, TraceParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        where = f" ({exc})" if str(exc) else ""
        print(f"error: {args.command}: out of memory{where}", file=sys.stderr)
        return 3
    finally:
        if enabled:
            gc.enable()


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
    p.add_argument("--repeat", type=_positive_int, default=3, metavar="N",
                   help="timing repetitions; the median is reported (default 3)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gen", help="write a synthetic trace")
    p.add_argument("--pattern", required=True, help="generator pattern")
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--star-style", default="paired", help="star interleaving (star only)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run a generator/analysis matrix")
    p.add_argument("--patterns",
                   help="comma-separated generator patterns (default: all)")
    p.add_argument("--threads", default="10,40,160",
                   help="comma-separated thread counts (default 10,40,160)")
    p.add_argument("--events", type=int, default=0,
                   help="events per trace (default 0 = 100 per thread)")
    p.add_argument("--po", choices=ORDERS, default="hb")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--star-style", default="paired", help="star interleaving (star only)")
    p.add_argument("--csv", default="bench.csv", help="output CSV (default bench.csv)")
    p.add_argument("--repeat", type=_positive_int, default=3, metavar="N")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("selfcheck", help="run the embedded fixture suite")
    p.set_defaults(func=_cmd_selfcheck)
    return parser


def _positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _read_trace(path):
    """Parse a trace file, or stdin for "-", line by line as it is read
    (see parse_trace). Raises TraceParseError, naming the line, at the
    first line that is not UTF-8 (file and stdin are decoded alike, see
    clocktrace.trace), is malformed or breaks lock discipline."""
    stdin = path == "-"
    # stdin is read from file descriptor 0, whatever sys.stdin is (None
    # when the descriptor is closed, which open reports as an OSError)
    with open(0 if stdin else path, encoding="utf-8",
              errors="surrogateescape", closefd=not stdin) as fh:
        return parse_trace(fh)


def _timed_runs(trace, po, kind, repeat, debug=False, count_unordered=True):
    """Run `repeat` (>= 1) times; return (last run, median elapsed ms,
    every run's elapsed ms in ascending order). The median is taken as
    statistics.median takes it (the mean of the middle two for an even
    count) without that module's import cost. Each repeat starts after
    the previous run, race list included, has been released."""
    elapsed = []
    for _ in range(repeat):
        run = None
        with _engine_context(trace, kind):
            run = run_analysis(trace, po, kind, debug=debug,
                               count_unordered=count_unordered)
        elapsed.append(run.elapsed)
    elapsed.sort()
    m = len(elapsed) // 2
    return (run, (elapsed[m] + elapsed[~m]) / 2 * 1000.0,
            [e * 1000.0 for e in elapsed])


@contextmanager
def _engine_context(trace, kind):
    """Re-raise a MemoryError from the engine runs inside it with the
    trace's thread count and the clock kind, which main() reports."""
    try:
        yield
    except MemoryError:
        raise MemoryError(f"k={trace.thread_count}, clock={kind}") from None


def _csv_row(name, run, ms):
    """The CSV_COLUMNS row of one run of trace `name`; an uncounted pair
    count is written as an empty field."""
    pairs = "" if run.unordered_pairs is None else run.unordered_pairs
    return (name, run.po, run.clock_kind, run.events, run.threads,
            run.locks, run.vars, f"{ms:.3f}", len(run.races), pairs,
            run.vt_work, run.impl_work, run.deep_copies)


def _append_csv(path, rows):
    """Append rows (see _csv_row), with a header if the file is new."""
    import csv

    new_file = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


def _summary_line(run, ms):
    pairs = "-" if run.unordered_pairs is None else run.unordered_pairs
    return (
        f"po={run.po} clock={run.clock_kind} events={run.events} "
        f"threads={run.threads} locks={run.locks} vars={run.vars} "
        f"races={len(run.races)} pairs_unordered={pairs} "
        f"vt_work={run.vt_work} impl_work={run.impl_work} "
        f"deep_copies={run.deep_copies} time_ms={ms:.3f}"
    )


def _cmd_analyze(args):
    trace = _read_trace(args.input)
    if not trace.events:  # e.g. the empty output of a failed upstream gen
        print(f"error: {args.input}: trace has no events", file=sys.stderr)
        return 2
    kinds = [args.clock] if args.clock != "both" else ["tree", "vector"]
    compare = args.clock == "both" or args.oracle
    if args.oracle and len(trace) > ORACLE_MAX_EVENTS:
        print(f"error: --oracle is limited to {ORACLE_MAX_EVENTS} events, "
              f"trace has {len(trace)}", file=sys.stderr)
        return 2

    name = "-" if args.input == "-" else os.path.basename(args.input)
    # a run's race list can be hundreds of MB: keep only the printed one,
    # the first kind's, and each run's counts; release every run before
    # the next kind's runs and the cross-check start
    rows, pairs, races = [], [], None
    for kind in kinds:
        run, ms, _ = _timed_runs(trace, args.po, kind, args.repeat, args.debug)
        verify_bounds(run)
        rows.append(_csv_row(name, run, ms))
        pairs.append((kind, run.unordered_pairs))
        print(_summary_line(run, ms))
        if args.races and races is None:
            races = run.races
        run = None

    if args.races:
        for r in races:
            print(f"race {r.kind} var={trace.var_name(r.var)} "
                  f"earlier={trace.thread_name(r.earlier.tid)}@{r.earlier.clk} "
                  f"later={trace.thread_name(r.later.tid)}@{r.later.clk} "
                  f"event={r.index}")
        races = None

    if args.csv:
        _append_csv(args.csv, rows)

    if not compare:
        return 0
    with _engine_context(trace, "+".join(kinds)):
        _, kind_problems, oracle_problems = cross_check(trace, args.po, kinds,
                                                        args.oracle)
    (a_kind, a), (b_kind, b) = pairs[0], pairs[-1]
    if a != b:  # cross_check counts no pairs; the timed runs did
        kind_problems.append(f"unordered pairs differ ({a_kind}={a}, {b_kind}={b})")
    if kind_problems:
        print(f"divergence: {kind_problems[0]}", file=sys.stderr)
        return 1
    if args.clock == "both":
        print("clocks agree: timestamps, races, and entries changed identical")
    if oracle_problems:
        print(f"divergence: {oracle_problems[0]}", file=sys.stderr)
        return 1
    if args.oracle:
        print("oracle agreement: timestamps and races match")
    return 0


def _cmd_gen(args):
    from .tracegen import GenSpec, generate

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
    from .tracegen import PATTERNS, GenSpec, generate

    if args.patterns is None:
        patterns = PATTERNS
    else:
        patterns = [p.strip() for p in args.patterns.split(",") if p.strip()]
    if not patterns:
        print(f"error: no pattern in {args.patterns!r}", file=sys.stderr)
        return 2
    try:
        grid = [int(s) for s in args.threads.split(",") if s.strip()]
    except ValueError:
        grid = []
    if not grid:
        print(f"error: bad thread grid {args.threads!r}", file=sys.stderr)
        return 2

    specs = [GenSpec(pattern, k, args.events or 100 * k, seed=args.seed,
                     star_style=args.star_style)
             for pattern in patterns for k in grid]
    for spec in specs:  # refuse a bad cell before any cell runs
        spec.validate()

    results, times = [], []
    for spec in specs:
        trace = generate(spec)
        name = f"{spec.pattern}-k{spec.threads}"
        if spec.pattern == "star":
            name += f"-{args.star_style}"
        for kind in ("tree", "vector"):
            run, ms, elapsed = _timed_runs(trace, args.po, kind, args.repeat,
                                           count_unordered=False)
            verify_bounds(run)
            results.append((name, run, ms))
            times.append(elapsed)

    _append_csv(args.csv, [_csv_row(*result) for result in results])
    for name, run, ms in results:
        print(f"{name}: {_summary_line(run, ms)}")
    _print_speedups(results, times)
    return 0


def _print_speedups(results, times):
    """Print the vector/tree wall-time and impl_work ratios of each
    trace cell, which locate the crossover; no threshold. Then print the
    fastest and slowest repeat of each kind, so a time ratio can be read
    against its spread. results holds each cell's tree row just before
    its vector row, and times each row's repeat times in ascending order."""
    for (name, tree, tree_ms), (_, vector, vector_ms), tree_t, vector_t in zip(
            results[::2], results[1::2], times[::2], times[1::2]):
        if tree_ms > 0:
            print(f"speedup {name} {tree.po}: vector/tree wall time = "
                  f"{vector_ms / tree_ms:.2f}x, "
                  f"impl_work = {vector.impl_work / tree.impl_work:.2f}x")
        print(f"spread {name} {tree.po}: tree {tree_t[0]:.3f}–{tree_t[-1]:.3f} ms, "
              f"vector {vector_t[0]:.3f}–{vector_t[-1]:.3f} ms "
              f"over {len(tree_t)} repeats")


def _cmd_selfcheck(args):
    from . import selfcheck

    failures = selfcheck.run(report=print)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
