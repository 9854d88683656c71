"""Command-line interface.

Four commands:

- analyze: read a trace file, or stdin, in one streamed pass that
  parses it and checks its lock discipline; run one partial order over
  it with tree clocks, vector clocks, or both, print a summary line per
  run, optionally append each run's record to a JSON-lines file, and
  list races. With both clocks, --oracle (small inputs only) or
  --debug, metrics.cross_check then replays the trace untimed through
  one engine per clock kind in lockstep and compares every event's
  timestamp, the race reports and vt_work across the kinds and, with
  --oracle, with the brute-force oracle. The timed runs' unordered-pair
  counts must agree as well; the first problem found is printed as a
  divergence. --debug turns on the engines' invariant and copy-path
  checks in that pass only, so each kind is checked once and the timed
  runs stay plain.
- gen: write a synthetic trace from the deterministic generator.
  GenSpec.validate is the one check of pattern and star-style names; gen
  validates the spec, then opens --out, then generates.
- bench: run a (pattern x thread-count x clock) matrix, print each
  cell's summary lines as the cell finishes and append records as
  analyze does, then print each cell's vector/tree time and work ratios.
- selfcheck: run the embedded fixture suite.

Exit codes: 0 success; 1 divergence, race-check mismatch, or assertion
failure; 2 usage or I/O errors, malformed traces, traces that break lock
discipline (the first bad line in file order, malformed or misusing a
lock, is named), and an analyze input with no events; 3 out of memory,
reported as one line that names the command and, when an engine run was
in progress, its thread count k and clock kind. Timing uses a
monotonic clock, covers only the engine (not parsing, the comparison
pass or its --debug checks), and reports the median over --repeat runs
(default 3).

Every command runs with the cyclic garbage collector off: the pipeline
builds no reference cycles, so a collection would only scan the clocks'
lists and free nothing. Reported times therefore exclude collection
pauses. Library calls (run_analysis, Engine, parse_trace) keep the
caller's GC settings; main() restores them when the command returns.

gen and bench import tracegen when they run, so analyze never loads it;
analyses loads treeclock only for a tree run.
"""

import argparse
import gc
import os
import sys
from contextlib import contextmanager, nullcontext

from .analyses import CLOCK_KINDS, ORDERS, race_event_indices, run_analysis
from .metrics import cross_check, verify_bounds
from .oracle import ORACLE_MAX_EVENTS
from .trace import parse_trace, serialize_trace

def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
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
    p.add_argument("--json", help="append one JSON record per run to this file")
    p.add_argument("--races", action="store_true", help="print each race report")
    p.add_argument("--oracle", action="store_true",
                   help=f"cross-check against the brute-force oracle (<= {ORACLE_MAX_EVENTS} events)")
    p.add_argument("--debug", action="store_true",
                   help="re-verify structural invariants after every clock "
                        "operation, once per clock kind, in the untimed pass")
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
    p.add_argument("--json", help="append one JSON record per run to this file")
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


# analyze reads its input in blocks of at most this many characters
_READ_BLOCK = 16 * 1024


def _read_trace(path):
    """Parse a trace file, or stdin for "-", block by block as it is read
    (see parse_trace). Raises TraceParseError, naming the line, at the
    first line that is not UTF-8 (file and stdin are decoded alike, see
    clocktrace.trace), is malformed or breaks lock discipline."""
    stdin = path == "-"
    # stdin is read from file descriptor 0, whatever sys.stdin is (None
    # when the descriptor is closed, which open reports as an OSError)
    with open(0 if stdin else path, encoding="utf-8",
              errors="surrogateescape", closefd=not stdin) as fh:
        return parse_trace(_whole_lines(fh))


def _whole_lines(fh):
    """Yield the text of fh in pieces that end at a line break: each
    block read is cut after its last newline, and the rest is carried
    into the next piece. The reader turns CRLF and lone CR line ends
    into newlines, so no line break spans two pieces, and each piece
    splits into whole lines."""
    carry = []
    for block in iter(lambda: fh.read(_READ_BLOCK), ""):
        cut = block.rfind("\n") + 1
        if cut:
            carry.append(block[:cut])
            yield "".join(carry)
            carry = [block[cut:]]
        else:
            carry.append(block)
    yield "".join(carry)


@contextmanager
def _engine_context(trace, kind):
    """Re-raise a MemoryError from the engine runs inside it with the
    trace's thread count and the clock kind, which main() reports."""
    try:
        yield
    except MemoryError:
        raise MemoryError(f"k={trace.thread_count}, clock={kind}") from None


def _record(name, run, ms):
    """The record of one run of trace `name`, with its median time `ms`,
    which every output of the run reads; README's command-line section
    tables its keys. pairs_unordered is None when no pairs were counted."""
    return {"trace": name, "po": run.po, "clock": run.clock_kind,
            "events": run.events, "threads": run.threads, "locks": run.locks,
            "vars": run.vars, "races": len(run.races),
            "pairs_unordered": run.unordered_pairs, "vt_work": run.vt_work,
            "impl_work": run.impl_work, "deep_copies": run.deep_copies,
            "time_ms": ms}


def _summary_line(record):
    """Every key of a record but trace as key=value: None as -, time_ms
    to 3 decimals."""
    shown = dict(record, time_ms=f"{record['time_ms']:.3f}")
    del shown["trace"]
    return " ".join(f"{key}={'-' if v is None else v}" for key, v in shown.items())


def _measure(trace, name, po, kind, repeat, write, prefix="",
             count_unordered=True):
    """Time `repeat` (>= 1) runs of one clock kind, each after the last
    has been released, race list included; check the last run's bounds;
    print its record's summary line after `prefix` and write the record.
    The median time is taken as statistics.median takes it, without that
    module's import cost. Returns the last run, its record and every
    run's elapsed ms in ascending order."""
    elapsed = []
    for _ in range(repeat):
        run = None
        with _engine_context(trace, kind):
            run = run_analysis(trace, po, kind, count_unordered=count_unordered)
        elapsed.append(run.elapsed)
    elapsed.sort()
    m = len(elapsed) // 2
    verify_bounds(run)
    record = _record(name, run, (elapsed[m] + elapsed[~m]) / 2 * 1000.0)
    print(prefix + _summary_line(record))
    write(record)
    return run, record, [e * 1000.0 for e in elapsed]


@contextmanager
def _json_lines(path):
    """Yield a function that appends a record to `path` as one line of
    JSON, or does nothing when `path` is None. Entry opens the file, so
    a bad path fails before any run."""
    if path is None:
        yield lambda record: None
    else:
        import json
        with open(path, "a", encoding="utf-8") as fh:
            yield lambda record: fh.write(json.dumps(record) + "\n")


def _cmd_analyze(args):
    trace = _read_trace(args.input)
    if not trace.events:  # e.g. the empty output of a failed upstream gen
        raise ValueError(f"{args.input}: trace has no events")
    kinds = [args.clock] if args.clock != "both" else ["tree", "vector"]
    compare = args.clock == "both" or args.oracle or args.debug
    if args.oracle and len(trace) > ORACLE_MAX_EVENTS:
        raise ValueError(f"--oracle is limited to {ORACLE_MAX_EVENTS} events, "
                         f"trace has {len(trace)}")

    name = os.path.basename(args.input)
    # a run's race list can be hundreds of MB: keep only the printed one,
    # the first kind's, and each run's record; release every run before
    # the next kind's runs and the cross-check start
    records, races = [], None
    with _json_lines(args.json) as write:
        for kind in kinds:
            run, record, _ = _measure(trace, name, args.po, kind, args.repeat, write)
            records.append(record)
            if args.races and races is None:
                races = run.races
            run = None

    if args.races:
        for r, (_, _, _, later) in zip(races, race_event_indices(trace, races)):
            print(f"race {r.kind} var={trace.var_name(r.var)} "
                  f"earlier={trace.thread_name(r.earlier.tid)}@{r.earlier.clk} "
                  f"later={trace.thread_name(r.later.tid)}@{r.later.clk} "
                  f"event={later}")
        races = None

    if not compare:
        return 0
    with _engine_context(trace, "+".join(kinds)):
        _, kind_problems, oracle_problems = cross_check(
            trace, args.po, kinds, args.oracle, debug=args.debug)
    a, b = records[0], records[-1]
    if a["pairs_unordered"] != b["pairs_unordered"]:  # cross_check counts none
        kind_problems.append(f"unordered pairs differ ({a['clock']}={a['pairs_unordered']}, "
                             f"{b['clock']}={b['pairs_unordered']})")
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
    # a bad spec leaves --out untouched, and a bad --out fails before
    # any draw
    spec.validate()
    with (open(args.out, "w", encoding="utf-8") if args.out
          else nullcontext(sys.stdout)) as fh:
        fh.write(serialize_trace(generate(spec)))
    return 0


def _cmd_bench(args):
    from .tracegen import PATTERNS, GenSpec, generate

    if args.patterns is None:
        patterns = PATTERNS
    else:
        patterns = [p.strip() for p in args.patterns.split(",") if p.strip()]
    if not patterns:
        raise ValueError(f"no pattern in {args.patterns!r}")
    try:
        grid = [int(s) for s in args.threads.split(",") if s.strip()]
    except ValueError:
        grid = []
    if not grid:
        raise ValueError(f"bad thread grid {args.threads!r}")

    specs = [GenSpec(pattern, k, args.events or 100 * k, seed=args.seed,
                     star_style=args.star_style)
             for pattern in patterns for k in grid]
    for spec in specs:  # refuse a bad cell before any cell runs
        spec.validate()

    records, times = [], []
    with _json_lines(args.json) as write:
        for spec in specs:
            trace = generate(spec)
            name = f"{spec.pattern}-k{spec.threads}"
            if spec.pattern == "star":
                name += f"-{args.star_style}"
            for kind in ("tree", "vector"):
                _, record, elapsed = _measure(trace, name, args.po, kind, args.repeat,
                                              write, f"{name}: ", count_unordered=False)
                records.append(record)
                times.append(elapsed)

    _print_speedups(records, times)
    return 0


def _print_speedups(records, times):
    """Print the vector/tree wall-time and impl_work ratios of each
    trace cell, which locate the crossover; no threshold. Then print the
    fastest and slowest repeat of each kind, so a time ratio can be read
    against its spread. records holds each cell's tree record just before
    its vector record, and times each run's repeat times in ascending order."""
    for tree, vector, tree_t, vector_t in zip(
            records[::2], records[1::2], times[::2], times[1::2]):
        cell = f"{tree['trace']} {tree['po']}"
        if tree["time_ms"] > 0:
            print(f"speedup {cell}: vector/tree wall time = "
                  f"{vector['time_ms'] / tree['time_ms']:.2f}x, "
                  f"impl_work = {vector['impl_work'] / tree['impl_work']:.2f}x")
        print(f"spread {cell}: tree {tree_t[0]:.3f}–{tree_t[-1]:.3f} ms, "
              f"vector {vector_t[0]:.3f}–{vector_t[-1]:.3f} ms "
              f"over {len(tree_t)} repeats")


def _cmd_selfcheck(args):
    from . import selfcheck

    failures = selfcheck.run(report=print)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
