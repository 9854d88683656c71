"""End-to-end tests of the command line interface, driven in-process
through main() so exit codes and output can be asserted directly."""

import contextlib
import gc
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import weakref
from collections import Counter

import pytest
from conftest import inject_fault
from hypothesis import given, settings
from hypothesis import strategies as st

from clocktrace import analyses, cli, metrics, tracegen
from clocktrace.analyses import HB, MAZ, ORDERS, SHB, run_analysis
from clocktrace.metrics import cross_check
from clocktrace.oracle import oracle_races
from clocktrace.trace import Event, Trace, parse_trace, serialize_trace, validate_trace
from clocktrace.tracegen import random_trace
from clocktrace.vclock import VectorClock

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
RECORD_KEYS = ("trace", "po", "clock", "events", "threads", "locks", "vars",
               "races", "pairs_unordered", "vt_work", "impl_work", "deep_copies",
               "time_ms")


def read_records(path):
    """The records of a --json file, one JSON object per line, each
    checked to hold RECORD_KEYS in order."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert all(tuple(r) == RECORD_KEYS for r in records)
    return records


def records_without_time(path):
    return [{k: v for k, v in r.items() if k != "time_ms"} for r in read_records(path)]


def summary_fields(line):
    """A summary line's key=value fields as a dict in line order: - as
    None, whole numbers as ints, the rest (time_ms included) as text."""
    fields = dict(field.split("=", 1) for field in line.split())
    for key, v in fields.items():
        fields[key] = None if v == "-" else int(v) if v.isdigit() else v
    return fields


def gen_trace(tmp_path, name="t.trace", pattern="skewed_locks", threads=4,
              events=200, seed=7, extra=()):
    out = tmp_path / name
    rc = cli.main([
        "gen", "--pattern", pattern, "--threads", str(threads),
        "--events", str(events), "--seed", str(seed), "--out", str(out),
        *extra,
    ])
    assert rc == 0
    return out


# a root-only tree clock that stores a second key, which the debug
# checks catch when a lock's deep copy takes that key
DOCTORED_TREE_CLOCK = (
    "from clocktrace import analyses, treeclock\n"
    "class Doctored(treeclock.TreeClock):\n"
    "    __slots__ = ()\n"
    "    @classmethod\n"
    "    def owned(cls, tid, size, counter):\n"
    "        clock = super().owned(tid, size, counter)\n"
    "        clock.clk[(tid + 1) % size] = 0\n"
    "        return clock\n"
    "treeclock.TreeClock = Doctored\n"
    "if type(analyses.Engine('hb', 2).thread_clocks[0]) is not Doctored:\n"
    "    raise SystemExit('the engine builds no Doctored clocks')\n"
)


def run_optimized(args):
    """Run python -O with clocktrace importable."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-O", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def racy_trace(tmp_path):
    """A seeded random trace with races under every order but maz."""
    path = tmp_path / "pin.trace"
    path.write_text(serialize_trace(
        random_trace(41, events=40, threads=3, locks=2, variables=2)))
    return path


class TestGen:
    def test_writes_a_parseable_trace(self, tmp_path, capsys):
        out = gen_trace(tmp_path)
        text = out.read_text()
        assert text.splitlines()[0].split()[1] in ("acq", "rel")
        assert capsys.readouterr().out == ""

    def test_default_output_is_stdout(self, capsys):
        rc = cli.main(["gen", "--pattern", "single_lock", "--threads", "2",
                       "--events", "4", "--seed", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4

    def test_identical_specs_are_byte_identical(self, tmp_path):
        a = gen_trace(tmp_path, "a.trace", seed=5)
        b = gen_trace(tmp_path, "b.trace", seed=5)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_out_exits_2_before_any_draw(self, tmp_path, capsys,
                                                     monkeypatch):
        drawn = []
        monkeypatch.setattr(tracegen, "SplitMix64",
                            lambda seed: drawn.append(seed))
        out = tmp_path / "no" / "such" / "x.txt"
        assert cli.main(["gen", "--pattern", "single_lock", "--threads", "64",
                         "--events", "400000", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert captured.err.count("\n") == 1
        assert drawn == [] and not out.parent.exists()

    def test_bad_spec_exits_2(self, tmp_path):
        assert cli.main(["gen", "--pattern", "single_lock", "--threads", "1",
                         "--events", "4"]) == 2

    @pytest.mark.parametrize("argv", [
        ["gen", "--pattern", "pairwise", "--threads", "3", "--events", "3"],
        ["gen", "--pattern", "star", "--threads", "3", "--events", "2"],
        ["bench", "--patterns", "star", "--threads", "3", "--events", "3"],
    ], ids=["gen-pairwise", "gen-star", "bench-star"])
    def test_fewer_events_than_one_round_exit_2(self, tmp_path, capsys, argv):
        # one round of star paired or pairwise is 4 events; fewer would
        # write an empty trace
        out = tmp_path / "out"
        assert cli.main(argv + ["--out" if argv[0] == "gen" else "--json",
                                str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: events must be >= 4, one ")

    @pytest.mark.parametrize("argv, valid", [
        (["gen", "--pattern", "nope"], tracegen.PATTERNS),
        (["gen", "--pattern", "single_lock", "--star-style", "nope"],
         tracegen.STAR_STYLES),
        (["gen", "--pattern", "star", "--star-style", "nope"], tracegen.STAR_STYLES),
        (["bench", "--patterns", "star,nope"], tracegen.PATTERNS),
        (["bench", "--patterns", "single_lock", "--star-style", "nope"],
         tracegen.STAR_STYLES),
    ], ids=["gen-pattern", "gen-single_lock-style", "gen-star-style",
            "bench-pattern", "bench-style"])
    def test_unknown_name_exits_2_naming_the_valid_ones(self, tmp_path, capsys,
                                                         monkeypatch, argv, valid):
        # GenSpec.validate is the one check of pattern and star style names
        drawn = []
        monkeypatch.setattr(tracegen, "SplitMix64",
                            lambda seed: drawn.append(seed))
        out = tmp_path / "out"
        argv = argv + ["--threads", "3", "--events", "20",
                       "--out" if argv[0] == "gen" else "--json", str(out)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown ")
        assert all(repr(name) in captured.err for name in valid)
        assert drawn == [] and not out.exists()

    @pytest.mark.parametrize("argv, first", [
        (["gen", "--pattern", "single_lock", "--threads", "46116860184273879040"],
         46116860184273879040),
        (["gen", "--pattern", "skewed_locks", "--threads", "15000000000000000000"],
         27000000000000000000),
        (["bench", "--patterns", "single_lock,skewed_locks",
          "--threads", "4,15000000000000000000"], 27000000000000000000),
    ], ids=["gen-single_lock", "gen-skewed_locks", "bench-skewed_locks"])
    def test_first_draw_past_2_64_exits_2_before_any_draw(self, tmp_path, capsys,
                                                           monkeypatch, argv, first):
        # GenSpec.validate refuses the bound of generate's first draw with
        # below()'s message, so --out is never created, and bench refuses
        # the cell before its k=4 cells run
        drawn = []
        monkeypatch.setattr(tracegen, "SplitMix64",
                            lambda seed: drawn.append(seed))
        out = tmp_path / "out"
        argv = argv + ["--events", "2", "--out" if argv[0] == "gen" else "--json", str(out)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bound must be in 1..2**64, got {first}\n"
        assert drawn == [] and not out.exists()


class TestAnalyze:
    def test_both_clocks_agree_and_report(self, tmp_path, capsys):
        trace = gen_trace(tmp_path)
        rc = cli.main(["analyze", "--po", "hb", "--input", str(trace),
                       "--repeat", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tree" in out and "vector" in out
        assert "agree" in out

    def test_single_clock_run(self, tmp_path, capsys):
        trace = gen_trace(tmp_path)
        rc = cli.main(["analyze", "--po", "maz", "--clock", "tree",
                       "--input", str(trace), "--repeat", "1"])
        assert rc == 0
        assert "tree" in capsys.readouterr().out

    def test_stdin_input(self):
        proc = subprocess.run(
            [sys.executable, "-m", "clocktrace.cli", "analyze", "--po", "shb",
             "--input", "-", "--repeat", "1"],
            input=b"t0 w x\nt1 r x\n", capture_output=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().endswith(
            "clocks agree: timestamps, races, and entries changed identical\n")

    def test_csv_rows_appended(self, tmp_path):
        trace = gen_trace(tmp_path)
        path = tmp_path / "out.jsonl"
        for lines in (2, 4):  # a tree and a vector record per invocation
            rc = cli.main(["analyze", "--po", "hb", "--input", str(trace),
                           "--json", str(path), "--repeat", "1"])
            assert rc == 0
            records = read_records(path)
            assert len(path.read_text().splitlines()) == len(records) == lines
        assert [r["clock"] for r in records] == ["tree", "vector"] * 2

    def test_csv_rows_deterministic_up_to_time(self, tmp_path):
        trace = gen_trace(tmp_path)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert cli.main(["analyze", "--po", "shb", "--input", str(trace),
                             "--json", str(path), "--repeat", "1"]) == 0
        assert records_without_time(a) == records_without_time(b)

    def test_bad_output_path_is_refused_before_any_run(self, tmp_path, capsys,
                                                        monkeypatch):
        trace = gen_trace(tmp_path, events=40)
        calls = []
        monkeypatch.setattr(cli, "run_analysis",
                            lambda *a, **kw: calls.append(a) or run_analysis(*a, **kw))
        missing = tmp_path / "no-such-dir" / "out.jsonl"
        for argv in (["analyze", "--po", "hb", "--input", str(trace)],
                     ["bench", "--patterns", "single_lock", "--threads", "3",
                      "--events", "20"]):
            assert cli.main(argv + ["--json", str(missing), "--repeat", "1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert len(captured.err.splitlines()) == 1
        assert calls == []

    def test_races_are_printed(self, tmp_path, capsys):
        trace = tmp_path / "racy.trace"
        trace.write_text("t0 w x\nt1 r x\nt1 w x\n")
        rc = cli.main(["analyze", "--po", "hb", "--input", str(trace),
                       "--races", "--repeat", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        race_lines = [l for l in out.splitlines() if l.startswith("race ")]
        assert len(race_lines) == 2
        assert race_lines[0] == "race write-read var=x earlier=t0@1 later=t1@1 event=1"
        assert race_lines[1] == "race write-write var=x earlier=t0@1 later=t1@2 event=2"

    def test_races_name_threads_and_variables_as_the_trace_does(
            self, tmp_path, capsys):
        # ids follow first appearance (t5 is thread 0, bar variable 0), so
        # printing them would name other entities; event= skips the blank
        # line and counts events from 0
        trace = tmp_path / "named.trace"
        trace.write_text("t5 w bar\nt7 w foo\nt5 r foo  # read\n\nt7 r bar\n")
        rc = cli.main(["analyze", "--po", "hb", "--input", str(trace),
                       "--races", "--repeat", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert [l for l in out.splitlines() if l.startswith("race ")] == [
            "race write-read var=foo earlier=t7@1 later=t5@2 event=2",
            "race write-read var=bar earlier=t5@1 later=t7@2 event=3",
        ]

    @pytest.mark.parametrize("clock", ["tree", "vector", "both"])
    @pytest.mark.parametrize("po", [HB, SHB])
    def test_race_lines_give_the_oracles_later_positions(
            self, tmp_path, capsys, po, clock):
        # each line's event= is the later access's trace position, as the
        # brute-force oracle finds it, in the oracle's order
        lines = 0
        for seed in range(5):
            trace = random_trace(seed + 70, events=120, threads=4, locks=2,
                                 variables=3)
            path = tmp_path / f"{seed}.trace"
            path.write_text(serialize_trace(trace))
            assert cli.main(["analyze", "--po", po, "--clock", clock, "--input",
                             str(path), "--races", "--repeat", "1"]) == 0
            events = [int(l.rsplit(" event=", 1)[1])
                      for l in capsys.readouterr().out.splitlines()
                      if l.startswith("race ")]
            assert events == [later for _, _, _, later in oracle_races(trace, po)]
            lines += len(events)
        assert lines > 50

    def test_oracle_mode_confirms_agreement(self, tmp_path, capsys):
        trace = gen_trace(tmp_path, events=120)
        rc = cli.main(["analyze", "--po", "maz", "--input", str(trace),
                       "--oracle", "--repeat", "1"])
        assert rc == 0
        assert "oracle agreement" in capsys.readouterr().out

    def test_oracle_mode_refuses_large_traces(self, tmp_path, capsys):
        trace = gen_trace(tmp_path, threads=8, events=6000)
        rc = cli.main(["analyze", "--po", "hb", "--input", str(trace),
                       "--oracle", "--repeat", "1"])
        assert rc == 2
        capsys.readouterr()

    def test_one_thread_lock_round_passes_bounds(self, tmp_path, capsys):
        # one thread: the release's copy changes the lock's only entry, so
        # vt_work = 3 exceeds n*k = 2 and is checked exactly instead
        trace = tmp_path / "one.trace"
        trace.write_text("t0 acq l0\nt0 rel l0\n")
        rc = cli.main(["analyze", "--po", "hb", "--clock", "both",
                       "--input", str(trace), "--repeat", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("vt_work=3 ") == 2
        assert "clocks agree" in out

    def test_debug_flag_runs_clean(self, tmp_path, capsys):
        trace = gen_trace(tmp_path, events=100)
        rc = cli.main(["analyze", "--po", "shb", "--input", str(trace),
                       "--debug", "--repeat", "1"])
        assert rc == 0
        capsys.readouterr()

    def test_debug_checks_run_once_per_kind_in_the_untimed_pass(
            self, tmp_path, capsys, monkeypatch):
        # the timed runs build plain engines through analyses; the pass
        # builds one debug engine per kind through metrics
        trace = gen_trace(tmp_path, events=100)
        built = []

        def counted(where):
            class Counted(analyses.Engine):
                def __init__(self, *args, debug=False, **kw):
                    built.append((where, debug))
                    super().__init__(*args, debug=debug, **kw)
            return Counted

        timed, checked = counted("timed"), counted("pass")
        monkeypatch.setattr(analyses, "Engine", timed)
        monkeypatch.setattr(metrics, "Engine", checked)
        rc = cli.main(["analyze", "--po", "shb", "--clock", "both", "--debug",
                       "--input", str(trace), "--repeat", "3"])
        assert rc == 0
        assert "clocks agree" in capsys.readouterr().out
        assert Counter(built) == {("timed", False): 6, ("pass", True): 2}


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = cli.main(["analyze", "--po", "hb", "--input",
                       str(tmp_path / "absent.trace")])
        assert rc == 2
        assert "absent" in capsys.readouterr().err

    def test_unparseable_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("t0 frobnicate x\n")
        assert cli.main(["analyze", "--po", "hb", "--input", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_unsupported_op(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("t0 fork t1\n")
        assert cli.main(["analyze", "--po", "hb", "--input", str(bad)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("clock", ["tree", "vector", "both"])
    def test_lock_misuse_exits_2_naming_the_line(self, tmp_path, capsys, clock):
        # t0 releases l0 while t1 holds it
        bad = tmp_path / "misuse.trace"
        bad.write_text("t0 acq l0\nt0 rel l0\nt1 acq l0\nt0 rel l0\nt1 rel l0\n")
        rc = cli.main(["analyze", "--po", "hb", "--clock", clock,
                       "--input", str(bad), "--repeat", "1"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "line 4:" in err and "t0 rel l0" in err

    def test_lock_misuse_line_counts_comments_and_blanks(self, tmp_path, capsys):
        bad = tmp_path / "misuse.trace"
        bad.write_text("# header\n\nt3 acq m  # take m\n   \nt3 acq m\n")
        rc = cli.main(["analyze", "--po", "hb", "--clock", "tree",
                       "--input", str(bad), "--repeat", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 5: lock discipline violated (reacquire): 't3 acq m'" in err

    @pytest.mark.parametrize("text", ["", "# header only\n\n   # indented\n"],
                             ids=["empty", "comment-only"])
    def test_file_with_no_events_exits_2(self, tmp_path, capsys, text):
        empty = tmp_path / "empty.trace"
        empty.write_text(text)
        rc = cli.main(["analyze", "--po", "hb", "--input", str(empty),
                       "--oracle", "--repeat", "1"])
        assert rc == 2
        assert capsys.readouterr() == (
            "", f"error: {empty}: trace has no events\n")

    def test_empty_stdin_exits_2(self):
        # what analyze reads when a `clocktrace gen` upstream in a pipe fails
        proc = subprocess.run(
            [sys.executable, "-m", "clocktrace.cli", "analyze", "--po", "hb",
             "--input", "-", "--oracle", "--repeat", "1"],
            input=b"", capture_output=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode() == "error: -: trace has no events\n"

    def test_closed_stdin_exits_2(self):
        # with file descriptor 0 closed, Python sets sys.stdin to None
        proc = subprocess.run(
            [sys.executable, "-m", "clocktrace.cli", "analyze", "--po", "hb",
             "--input", "-", "--repeat", "1"],
            preexec_fn=lambda: os.close(0), capture_output=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert re.fullmatch(rb"error: [^\n]+\n", proc.stderr), proc.stderr

    @pytest.mark.parametrize("where, message", [
        ("engine", "error: analyze: out of memory (k=2, clock=tree)\n"),
        ("cross-check", "error: analyze: out of memory (k=2, clock=tree+vector)\n"),
        ("parse", "error: analyze: out of memory\n"),
    ])
    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch,
                                  where, message):
        path = tmp_path / "t.trace"
        path.write_text("t0 w x\nt1 w x\n")

        def fail(*args, **kwargs):
            raise MemoryError

        target = {"engine": "run_analysis", "cross-check": "cross_check",
                  "parse": "parse_trace"}[where]
        monkeypatch.setattr(cli, target, fail)
        assert cli.main(["analyze", "--po", "hb", "--input", str(path),
                         "--repeat", "1"]) == 3
        out, err = capsys.readouterr()
        assert err == message
        assert out.count("\n") == (2 if where == "cross-check" else 0)

    def test_address_space_limit_exits_3(self, tmp_path):
        # 6000 threads: the vector engine's clocks need 6000 lists of 6000
        # entries, about 288 MB, far past the child's 128 MB address space
        path = tmp_path / "wide.trace"
        path.write_text("".join(f"t{i} w x\n" for i in range(6000)))
        limit = 128 << 20
        proc = subprocess.run(
            [sys.executable, "-m", "clocktrace.cli", "analyze", "--po", "hb",
             "--clock", "vector", "--input", str(path), "--repeat", "1"],
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (limit, limit)),
            capture_output=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == b""
        assert proc.stderr == (b"error: analyze: out of memory "
                               b"(k=6000, clock=vector)\n")

    @pytest.mark.parametrize("data, message", [
        # 0xff in a comment on line 6001, past the first 8 KB read chunk
        (b"t0 w x0\n" * 6000 + b"t1 w x0  # \xff\n" + b"t0 w x0\n" * 1000,
         "error: line 6001: undecodable byte 0xff (traces are UTF-8)\n"),
        # a malformed line before the bad byte is reported first
        (b"t0 bogus\nt0 w x\nt1 w x\n# \xff\n",
         "error: line 1: expected 'tid op target', got 't0 bogus'\n"),
    ], ids=["past-first-chunk", "malformed-line-first"])
    def test_undecodable_byte_is_named_by_line_from_file_and_stdin(
            self, tmp_path, capsys, data, message):
        bad = tmp_path / "bad.trace"
        bad.write_bytes(data)
        assert cli.main(["analyze", "--po", "hb", "--input", str(bad)]) == 2
        assert capsys.readouterr().err == message
        # stdin is decoded as the file is, whatever the interpreter's own
        # stdin encoding
        proc = subprocess.run(
            [sys.executable, "-m", "clocktrace.cli", "analyze", "--po", "hb",
             "--input", "-"], input=data, capture_output=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="latin-1"),
        )
        assert proc.returncode == 2
        assert proc.stderr.decode() == message

    def test_gen_refuses_more_threads_than_one_draw_covers(self):
        # a subprocess with a timeout, so a generator that never returns
        # fails the test instead of hanging it
        proc = subprocess.run(
            [sys.executable, "-m", "clocktrace.cli", "gen", "--pattern",
             "single_lock", "--threads", str((1 << 64) + 1), "--events", "2"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
            text=True, timeout=20,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: bound must be in 1..2**64")

    def test_usage_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--po", "nope", "--input", "-"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_repeat_below_1_is_a_usage_error(self, tmp_path, capsys):
        trace = gen_trace(tmp_path, events=20)
        for argv in (
            ["analyze", "--po", "hb", "--input", str(trace), "--repeat", "0"],
            ["bench", "--patterns", "single_lock", "--threads", "3", "--events", "20",
             "--json", str(tmp_path / "bench.jsonl"), "--repeat", "-1"],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "--repeat: must be >= 1" in capsys.readouterr().err

    def test_internal_assertion_maps_to_1(self, tmp_path, monkeypatch, capsys):
        trace = gen_trace(tmp_path, events=40)

        def boom(*a, **kw):
            raise AssertionError("invariant broken")

        monkeypatch.setattr(cli, "_measure", boom)
        rc = cli.main(["analyze", "--po", "hb", "--input", str(trace),
                       "--repeat", "1"])
        assert rc == 1
        assert "invariant broken" in capsys.readouterr().err

    def test_bounds_are_checked_under_optimize(self, tmp_path):
        # a doctored vt_work must fail verify_bounds even when python -O
        # strips assert statements
        trace = gen_trace(tmp_path, events=40)
        script = (
            "import sys\n"
            "from clocktrace import cli\n"
            "real = cli.run_analysis\n"
            "def doctored(*a, **kw):\n"
            "    run = real(*a, **kw)\n"
            "    run.counter.vt_work = 0\n"
            "    return run\n"
            "cli.run_analysis = doctored\n"
            f"sys.exit(cli.main(['analyze', '--po', 'hb', '--clock', 'tree',"
            f" '--input', {str(trace)!r}, '--repeat', '1']))\n"
        )
        proc = run_optimized(["-c", script])
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "assertion failed: vt_work=0 below event count 40" in proc.stderr

    def test_debug_checks_run_under_optimize(self, tmp_path):
        # the debug checks are explicit raises: python -O keeps them, so
        # the doctored tree clock is caught there too
        trace = gen_trace(tmp_path, events=40)
        script = DOCTORED_TREE_CLOCK + (
            "from clocktrace.trace import parse_trace\n"
            f"with open({str(trace)!r}) as fh:\n"
            "    trace = parse_trace(fh)\n"
            "engine = analyses.Engine('hb', trace.thread_count, 'tree', debug=True)\n"
            "for ev in trace.events:\n"
            "    engine.process(ev)\n"
        )
        proc = run_optimized(["-c", script])
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "AssertionError: sparse clock rooted at " in proc.stderr
        assert "stores keys" in proc.stderr
        # and analyze --debug runs under -O
        proc = run_optimized(["-m", "clocktrace.cli", "analyze", "--po", "hb",
                              "--input", str(trace), "--debug", "--repeat", "1"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clocks agree" in proc.stdout

    @pytest.mark.parametrize("clock", ["tree", "both"])
    def test_analyze_debug_catches_a_doctored_tree_clock_under_optimize(
            self, tmp_path, clock):
        # the timed runs check nothing, so each prints its summary line;
        # the untimed pass, which a single-kind --debug run gets too, then
        # fails on the doctored clock
        trace = gen_trace(tmp_path, events=40)
        script = DOCTORED_TREE_CLOCK + (
            "import sys\n"
            "from clocktrace import cli\n"
            f"sys.exit(cli.main(['analyze', '--po', 'hb', '--clock', {clock!r},"
            f" '--debug', '--input', {str(trace)!r}, '--repeat', '1']))\n"
        )
        proc = run_optimized(["-c", script])
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stderr.startswith("assertion failed: sparse clock rooted at ")
        assert "stores keys" in proc.stderr
        assert len(proc.stdout.splitlines()) == (1 if clock == "tree" else 2)

    def test_divergence_exits_1(self, tmp_path, capsys, monkeypatch):
        # hb engines never flatten, so only the comparison pass sees the skew
        trace = gen_trace(tmp_path, events=40)
        real = VectorClock.flatten
        monkeypatch.setattr(VectorClock, "flatten",
                            lambda self: tuple(v + 1 for v in real(self)))
        rc = cli.main(["analyze", "--po", "hb", "--input", str(trace),
                       "--repeat", "1"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert err == "divergence: tree and vector timestamps differ\n"
        assert "clocks agree" not in out

    def test_pair_count_divergence_exits_1(self, tmp_path, capsys, monkeypatch):
        # the cross-check counts no pairs, so only the timed runs can differ
        def skewed(trace, po, kind, **kw):
            run = run_analysis(trace, po, kind, **kw)
            if kind == "vector":
                run = run._replace(unordered_pairs=run.unordered_pairs + 1)
            return run

        monkeypatch.setattr(cli, "run_analysis", skewed)
        rc = cli.main(["analyze", "--po", HB, "--input", str(racy_trace(tmp_path)),
                       "--repeat", "1"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert err == "divergence: unordered pairs differ (tree=193, vector=194)\n"
        assert "pairs_unordered=194" in out
        assert "clocks agree" not in out

    @pytest.mark.parametrize("races", [False, True])
    def test_each_run_is_released_before_the_next(self, tmp_path, capsys,
                                                  monkeypatch, races):
        # a race list can be hundreds of MB: each repeat starts with the
        # previous run's list dead, the one printed (the first kind's last
        # run's, with --races) lives only until it is printed, and none
        # lives through the cross-check
        refs = []

        class Races(list):  # a list subclass can be weakly referenced
            __slots__ = ("__weakref__",)

        def live():
            return [i for i, ref in enumerate(refs) if ref() is not None]

        def tracked(trace, po, kind, **kw):
            assert live() == ([2] if races and kind == "vector" else [])
            run = run_analysis(trace, po, kind, **kw)
            run = run._replace(races=Races(run.races))
            refs.append(weakref.ref(run.races))
            return run

        def checked(*args, **kw):
            assert live() == []
            return cross_check(*args, **kw)

        monkeypatch.setattr(cli, "run_analysis", tracked)
        monkeypatch.setattr(cli, "cross_check", checked)
        argv = ["analyze", "--po", HB, "--input", str(racy_trace(tmp_path)),
                "--repeat", "3"]
        assert cli.main(argv + ["--races"] * races) == 0
        assert len(refs) == 6 and live() == []
        out = capsys.readouterr().out
        found = int(re.search(r" races=(\d+) ", out).group(1))
        assert found > 0
        assert out.count("\nrace ") == (found if races else 0)

    @pytest.mark.parametrize("clock,fault,message", [
        ("both", "vector races", "tree and vector race reports differ"),
        ("both", "vector vt_work", "vt_work differs (tree=41, vector=42)"),
        ("tree", "oracle timestamps", "engine timestamps differ from oracle"),
        ("both", "oracle timestamps", "engine timestamps differ from oracle"),
        ("vector", "oracle races", "engine races differ from oracle"),
        ("both", "oracle vt_work",
         "engine vt_work differs from oracle (engine=41, oracle=42)"),
    ])
    def test_each_divergence_exits_1(self, tmp_path, capsys, monkeypatch,
                                     clock, fault, message):
        path = racy_trace(tmp_path)
        # the cross-check's engines and oracle, not the timed runs
        inject_fault(monkeypatch, fault, parse_trace(path.read_text()), HB)
        rc = cli.main(["analyze", "--po", HB, "--clock", clock, "--oracle",
                       "--input", str(path), "--repeat", "1"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert err == f"divergence: {message}\n"
        assert "oracle agreement" not in out


LINE = st.tuples(st.integers(0, 2), st.sampled_from(["acq", "rel", "r", "w"]),
                 st.integers(0, 1))


@settings(max_examples=60, deadline=None)
@given(lines=st.lists(LINE, min_size=2, max_size=11),
       po=st.sampled_from(ORDERS), clock=st.sampled_from(["tree", "vector", "both"]))
def test_lock_misuse_is_rejected_never_misanalysed(lines, po, clock):
    """Random traces that may misuse locks (release a free or foreign lock,
    re-acquire a held one) exit 2 exactly when they break lock discipline
    and 0 otherwise; none reaches a divergence or a failed bound (exit 1)."""
    text = "".join(
        f"t{t} {op} {'l' if op in ('acq', 'rel') else 'x'}{target}\n"
        for t, op, target in lines
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "misuse.trace")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["analyze", "--po", po, "--clock", clock,
                           "--input", path, "--repeat", "1"])
    # ids as generated, not as parsing would intern them: renaming threads
    # or locks one-to-one changes no violation
    events = [Event(t, op, target) for t, op, target in lines]
    assert rc == (2 if validate_trace(Trace(events, 3, 2, 2)) else 0)


class TestBench:
    def test_small_matrix_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "bench.jsonl"
        rc = cli.main([
            "bench", "--patterns", "single_lock,star", "--threads", "3,5",
            "--events", "120", "--po", "hb", "--seed", "3",
            "--json", str(path), "--repeat", "1",
        ])
        assert rc == 0
        records = read_records(path)
        # 2 patterns x 2 thread counts x 2 clock kinds
        assert len(records) == 8
        names = {r["trace"] for r in records}
        assert names == {"single_lock-k3", "single_lock-k5",
                         "star-k3-paired", "star-k5-paired"}
        capsys.readouterr()

    def test_default_events_scale_with_threads(self, tmp_path, capsys):
        path = tmp_path / "bench.jsonl"
        rc = cli.main(["bench", "--patterns", "single_lock", "--threads",
                       "3", "--json", str(path), "--repeat", "1"])
        assert rc == 0
        records = read_records(path)
        assert len(records) == 2 and all(r["events"] == 300 for r in records)
        capsys.readouterr()

    def test_writes_no_file_without_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["bench", "--patterns", "single_lock", "--threads", "3",
                       "--events", "20", "--repeat", "1"])
        assert rc == 0
        assert list(tmp_path.iterdir()) == []
        assert "speedup single_lock-k3 hb: " in capsys.readouterr().out

    def test_speedup_lines_follow_grid_order(self, tmp_path, capsys):
        # 40 sorts between 3 and 5 as a string; every output keeps grid order
        path = tmp_path / "bench.jsonl"
        rc = cli.main(["bench", "--patterns", "single_lock", "--threads", "3,5,40",
                       "--events", "40", "--json", str(path), "--repeat", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        cells = ["single_lock-k3", "single_lock-k5", "single_lock-k40"]
        rows = [c for c in cells for _ in ("tree", "vector")]
        assert [r["trace"] for r in read_records(path)] == rows
        ratios = ("speedup ", "spread ")
        speedups = [line.split()[1] for line in lines if line.startswith("speedup ")]
        spreads = [line.split()[1] for line in lines if line.startswith("spread ")]
        summaries = [line.split(":")[0] for line in lines if not line.startswith(ratios)]
        assert (summaries, speedups, spreads) == (rows, cells, cells)

    def test_bad_cell_is_refused_before_any_cell_runs(self, tmp_path, capsys,
                                                       monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_analysis",
                            lambda *a, **kw: calls.append(a) or run_analysis(*a, **kw))
        path = tmp_path / "bench.jsonl"
        rc = cli.main(["bench", "--patterns", "star,single_lock", "--threads", "3,1",
                       "--events", "20", "--json", str(path), "--repeat", "2"])
        assert rc == 2
        assert capsys.readouterr().err == "error: threads must be >= 2, got 1\n"
        assert calls == []
        assert not path.exists()

    def test_finished_cells_print_before_a_later_cell_fails(self, monkeypatch,
                                                            capsys):
        # a cell prints its summary lines as it finishes, so a failure in
        # the second cell's first run leaves the first cell's two lines
        checked = []

        def third_fails(run):
            checked.append(run)
            if len(checked) == 3:
                raise AssertionError("bounds broken")
            metrics.verify_bounds(run)

        monkeypatch.setattr(cli, "verify_bounds", third_fails)
        rc = cli.main(["bench", "--patterns", "single_lock", "--threads", "3,5",
                       "--events", "40", "--repeat", "1"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert [line.split(" events=")[0] for line in out.splitlines()] == [
            "single_lock-k3: po=hb clock=tree", "single_lock-k3: po=hb clock=vector"]
        assert err == "assertion failed: bounds broken\n"

    @pytest.mark.parametrize("flag", ["--patterns", "--threads"])
    @pytest.mark.parametrize("value", ["", " , ", "a,b"])
    def test_empty_grid_exits_2(self, tmp_path, capsys, flag, value):
        # an empty axis measures nothing, and neither does one of unknown
        # patterns or non-numeric thread counts; say so instead of
        # writing an empty file
        path = tmp_path / "bench.jsonl"
        rc = cli.main(["bench", flag, value, "--json", str(path), "--repeat", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if flag == "--threads":
            assert err == f"error: bad thread grid {value!r}\n"
        assert not path.exists()


# Exact `analyze --clock both --races --oracle --json` output and records on
# a seeded random trace, and exact `bench` records and ratio lines, times
# masked.
# Scripts parse this text, so any change to it must be deliberate.
PINNED_SUMMARY = {
    "hb": """\
po=hb clock=tree events=40 threads=3 locks=2 vars=2 races=27 pairs_unordered=193 vt_work=41 impl_work=42 deep_copies=0 time_ms=*
po=hb clock=vector events=40 threads=3 locks=2 vars=2 races=27 pairs_unordered=193 vt_work=41 impl_work=43 deep_copies=0 time_ms=*
race write-write var=x1 earlier=t0@2 later=t1@1 event=2
race write-read var=x1 earlier=t1@1 later=t2@1 event=5
race write-read var=x1 earlier=t1@1 later=t0@4 event=6
race read-write var=x1 earlier=t2@1 later=t1@3 event=7
race write-read var=x1 earlier=t1@3 later=t0@5 event=8
race write-read var=x1 earlier=t1@3 later=t0@6 event=9
race read-write var=x0 earlier=t2@2 later=t1@4 event=11
race write-write var=x1 earlier=t1@3 later=t2@3 event=14
race write-read var=x0 earlier=t1@6 later=t2@5 event=16
race write-write var=x0 earlier=t1@6 later=t0@7 event=17
race write-write var=x1 earlier=t2@3 later=t1@7 event=19
race write-read var=x1 earlier=t1@7 later=t2@7 event=20
race write-read var=x0 earlier=t0@7 later=t1@8 event=21
race write-read var=x1 earlier=t1@7 later=t2@8 event=22
race write-write var=x1 earlier=t1@7 later=t0@8 event=23
race write-read var=x1 earlier=t0@8 later=t1@9 event=24
race write-write var=x1 earlier=t0@8 later=t1@10 event=25
race write-write var=x1 earlier=t1@11 later=t2@9 event=27
race write-read var=x0 earlier=t0@7 later=t2@10 event=29
race write-write var=x1 earlier=t2@9 later=t0@10 event=30
race write-write var=x1 earlier=t0@10 later=t2@11 event=31
race read-write var=x0 earlier=t1@8 later=t0@11 event=32
race write-read var=x0 earlier=t0@11 later=t2@12 event=33
race write-read var=x0 earlier=t0@11 later=t2@13 event=34
race write-read var=x1 earlier=t2@11 later=t0@12 event=35
race write-write var=x1 earlier=t2@11 later=t1@12 event=36
race read-write var=x0 earlier=t2@13 later=t0@13 event=37
""",
    "shb": """\
po=shb clock=tree events=40 threads=3 locks=2 vars=2 races=13 pairs_unordered=110 vt_work=86 impl_work=154 deep_copies=9 time_ms=*
po=shb clock=vector events=40 threads=3 locks=2 vars=2 races=13 pairs_unordered=110 vt_work=86 impl_work=148 deep_copies=9 time_ms=*
race write-write var=x1 earlier=t0@2 later=t1@1 event=2
race read-write var=x1 earlier=t2@1 later=t1@3 event=7
race read-write var=x0 earlier=t2@2 later=t1@4 event=11
race write-write var=x1 earlier=t1@3 later=t2@3 event=14
race write-write var=x0 earlier=t1@6 later=t0@7 event=17
race write-write var=x1 earlier=t2@3 later=t1@7 event=19
race write-write var=x1 earlier=t1@7 later=t0@8 event=23
race write-write var=x1 earlier=t1@11 later=t2@9 event=27
race write-write var=x1 earlier=t2@9 later=t0@10 event=30
race write-write var=x1 earlier=t0@10 later=t2@11 event=31
race read-write var=x0 earlier=t1@8 later=t0@11 event=32
race write-write var=x1 earlier=t2@11 later=t1@12 event=36
race read-write var=x0 earlier=t2@13 later=t0@13 event=37
""",
    "maz": """\
po=maz clock=tree events=40 threads=3 locks=2 vars=2 races=0 pairs_unordered=0 vt_work=152 impl_work=360 deep_copies=0 time_ms=*
po=maz clock=vector events=40 threads=3 locks=2 vars=2 races=0 pairs_unordered=0 vt_work=152 impl_work=298 deep_copies=0 time_ms=*
""",
}
PINNED_TRAILER = (
    "clocks agree: timestamps, races, and entries changed identical\n"
    "oracle agreement: timestamps and races match\n"
)


def pinned_records(*rows):
    """Records without time_ms, from their values in key order."""
    return [dict(zip(RECORD_KEYS[:-1], row)) for row in rows]


PINNED_ANALYZE_RECORDS = {
    "hb": pinned_records(("pin.trace", "hb", "tree", 40, 3, 2, 2, 27, 193, 41, 42, 0),
                         ("pin.trace", "hb", "vector", 40, 3, 2, 2, 27, 193, 41, 43, 0)),
    "shb": pinned_records(("pin.trace", "shb", "tree", 40, 3, 2, 2, 13, 110, 86, 154, 9),
                          ("pin.trace", "shb", "vector", 40, 3, 2, 2, 13, 110, 86, 148, 9)),
    "maz": pinned_records(("pin.trace", "maz", "tree", 40, 3, 2, 2, 0, 0, 152, 360, 0),
                          ("pin.trace", "maz", "vector", 40, 3, 2, 2, 0, 0, 152, 298, 0)),
}
PINNED_BENCH_ARGV = ["bench", "--patterns", "single_lock,star", "--threads", "3,5",
                     "--events", "120", "--po", "hb", "--seed", "3", "--repeat", "1"]
PINNED_BENCH_RECORDS = pinned_records(
    ("single_lock-k3", "hb", "tree", 120, 3, 1, 0, 0, None, 233, 536, 0),
    ("single_lock-k3", "hb", "vector", 120, 3, 1, 0, 0, None, 233, 477, 0),
    ("single_lock-k5", "hb", "tree", 120, 5, 1, 0, 0, None, 294, 732, 0),
    ("single_lock-k5", "hb", "vector", 120, 5, 1, 0, 0, None, 294, 715, 0),
    ("star-k3-paired", "hb", "tree", 120, 3, 2, 0, 0, None, 271, 635, 0),
    ("star-k3-paired", "hb", "vector", 120, 3, 2, 0, 0, None, 271, 474, 0),
    ("star-k5-paired", "hb", "tree", 120, 5, 4, 0, 0, None, 311, 727, 0),
    ("star-k5-paired", "hb", "vector", 120, 5, 4, 0, 0, None, 311, 700, 0),
)


class TestPinnedOutput:
    @pytest.mark.parametrize("po", ORDERS)
    def test_analyze_output_and_csv(self, tmp_path, capsys, po):
        path = racy_trace(tmp_path)
        out_path = tmp_path / "pin.jsonl"
        rc = cli.main(["analyze", "--po", po, "--clock", "both", "--races",
                       "--oracle", "--json", str(out_path), "--input", str(path),
                       "--repeat", "1"])
        assert rc == 0
        out = re.sub(r"time_ms=\d+\.\d{3}", "time_ms=*", capsys.readouterr().out)
        assert out == PINNED_SUMMARY[po] + PINNED_TRAILER
        assert records_without_time(out_path) == PINNED_ANALYZE_RECORDS[po]

    def test_bench_csv_and_ratios(self, tmp_path, capsys):
        path = tmp_path / "bench.jsonl"
        rc = cli.main(PINNED_BENCH_ARGV + ["--json", str(path)])
        assert rc == 0
        assert records_without_time(path) == PINNED_BENCH_RECORDS
        # the work ratio is vector impl_work / tree impl_work of the records
        work = {(r["trace"], r["clock"]): r["impl_work"] for r in PINNED_BENCH_RECORDS}
        want = [f"speedup {name} hb: vector/tree wall time = *x, impl_work = "
                f"{work[name, 'vector'] / work[name, 'tree']:.2f}x"
                for name in dict.fromkeys(r["trace"] for r in PINNED_BENCH_RECORDS)]
        assert want[0] == ("speedup single_lock-k3 hb: vector/tree wall time = *x, "
                           "impl_work = 0.89x")  # 477 / 536
        out = re.sub(r"wall time = \d+\.\d{2}x", "wall time = *x", capsys.readouterr().out)
        assert [line for line in out.splitlines() if line.startswith("speedup ")] == want

    def test_each_record_is_its_summary_line(self, tmp_path, capsys):
        # the pinned analyze runs, then the pinned bench grid, into one file
        trace, path = racy_trace(tmp_path), tmp_path / "all.jsonl"
        for po in ORDERS:
            assert cli.main(["analyze", "--po", po, "--races", "--oracle",
                             "--json", str(path), "--input", str(trace),
                             "--repeat", "1"]) == 0
        assert cli.main(PINNED_BENCH_ARGV + ["--json", str(path)]) == 0
        # analyze prints a bare summary line, bench one prefixed with its cell
        summaries = re.findall(r"^(?:(\S+): )?(po=.*)$", capsys.readouterr().out, re.M)
        records = read_records(path)
        assert len(records) == len(summaries) == 2 * len(ORDERS) + 8
        for record, (cell, line) in zip(records, summaries):
            fields = summary_fields(line)
            assert tuple(fields) == RECORD_KEYS[1:]
            assert dict(record, time_ms=f"{record['time_ms']:.3f}") == {
                "trace": cell or "pin.trace", **fields}

    def test_bench_spread_follows_each_speedup(self, tmp_path, monkeypatch, capsys):
        # each cell runs tree then vector, `--repeat` times each
        fake_s = iter([0.003, 0.001, 0.002, 0.005, 0.004, 0.006] * 2)

        def timed(*a, **kw):
            return run_analysis(*a, **kw)._replace(elapsed=next(fake_s))

        monkeypatch.setattr(cli, "run_analysis", timed)
        rc = cli.main(["bench", "--patterns", "single_lock", "--threads", "3,5",
                       "--events", "40", "--json", str(tmp_path / "b.jsonl"),
                       "--repeat", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-4:] == [
            "speedup single_lock-k3 hb: vector/tree wall time = 2.50x, "
            "impl_work = 0.89x",
            "spread single_lock-k3 hb: tree 1.000–3.000 ms, "
            "vector 4.000–6.000 ms over 3 repeats",
            "speedup single_lock-k5 hb: vector/tree wall time = 2.50x, "
            "impl_work = 1.12x",
            "spread single_lock-k5 hb: tree 1.000–3.000 ms, "
            "vector 4.000–6.000 ms over 3 repeats",
        ]


class TestRendering:
    def test_csv_row_in_column_order(self):
        trace = random_trace(3, events=60, threads=4, locks=2, variables=2)
        run = run_analysis(trace, MAZ, "vector")
        record = cli._record("sample", run, 12.3456)
        assert tuple(record) == RECORD_KEYS
        assert list(record.values()) == [
            "sample", MAZ, "vector", run.events, run.threads, run.locks,
            run.vars, len(run.races), run.unordered_pairs, run.vt_work,
            run.impl_work, run.deep_copies, 12.3456]
        assert cli._summary_line(record) == (
            f"po=maz clock=vector events=60 threads=4 locks={run.locks} "
            f"vars={run.vars} races=0 pairs_unordered=0 vt_work={run.vt_work} "
            f"impl_work={run.impl_work} deep_copies=0 time_ms=12.346")

    def test_uncounted_pairs_render_empty(self, tmp_path):
        run = run_analysis(parse_trace("t0 w x\n"), HB, "tree", count_unordered=False)
        record = cli._record("t", run, 0.5)
        path = tmp_path / "records.jsonl"
        with cli._json_lines(str(path)) as write:
            write(record)
        assert read_records(path)[0]["pairs_unordered"] is None
        assert '"pairs_unordered": null' in path.read_text()
        assert " pairs_unordered=- " in cli._summary_line(record)


@pytest.mark.parametrize("repeat", [1, 2, 3, 4])
def test_timed_runs_median_matches_statistics(monkeypatch, capsys, repeat):
    elapsed = [0.3, 0.1, 0.7, 0.2][:repeat]
    trace = parse_trace("t0 w x\n")
    real = run_analysis(trace, HB, "tree")
    runs = iter(real._replace(elapsed=e) for e in elapsed)
    monkeypatch.setattr(cli, "run_analysis", lambda *a, **kw: next(runs))
    written = []
    run, record, times = cli._measure(trace, "t", HB, "tree", repeat,
                                      written.append, "cell: ")
    assert run.elapsed == elapsed[-1]
    assert record["time_ms"] == statistics.median(elapsed) * 1000.0
    assert times == sorted(e * 1000.0 for e in elapsed)  # every repeat, kept
    assert written == [record]
    assert capsys.readouterr().out == f"cell: {cli._summary_line(record)}\n"


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    """Run the test with the cyclic GC on or off; put back the state the
    test process had."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


class TestGcState:
    """main() runs each command with the cyclic GC off, and gives the
    caller back the GC state it had, whatever the exit code."""

    def test_timed_runs_have_gc_off(self, tmp_path, monkeypatch, capsys, gc_state):
        trace = gen_trace(tmp_path, events=40)
        seen = []

        def recording(*a, **kw):
            seen.append(gc.isenabled())
            return run_analysis(*a, **kw)

        monkeypatch.setattr(cli, "run_analysis", recording)
        assert cli.main(["analyze", "--po", "hb", "--input", str(trace),
                         "--repeat", "2"]) == 0
        assert cli.main(["bench", "--patterns", "single_lock", "--threads", "3",
                         "--events", "20", "--json", str(tmp_path / "b.jsonl"),
                         "--repeat", "1"]) == 0
        capsys.readouterr()
        assert seen == [False] * 6
        assert gc.isenabled() is gc_state

    def test_state_is_restored_on_every_exit_code(self, tmp_path, monkeypatch,
                                                  capsys, gc_state):
        trace = gen_trace(tmp_path, events=40)
        assert gc.isenabled() is gc_state
        misuse = tmp_path / "misuse.trace"
        misuse.write_text("t0 acq l0\nt0 acq l0\n")
        for argv in (["analyze", "--po", "hb", "--input", str(tmp_path / "absent")],
                     ["analyze", "--po", "hb", "--input", str(misuse)]):
            assert cli.main(argv) == 2
            assert gc.isenabled() is gc_state

        def boom(*a, **kw):
            raise AssertionError("invariant broken")

        monkeypatch.setattr(cli, "_measure", boom)
        assert cli.main(["analyze", "--po", "hb", "--input", str(trace)]) == 1
        assert gc.isenabled() is gc_state
        capsys.readouterr()


def test_cli_import_leaves_out_costly_modules():
    # a fresh interpreter, since the test process has imported all of
    # these; -S keeps site hooks out, so only clocktrace's imports count
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, clocktrace.cli; print(sorted(m for m in "
         "('statistics', 'json', 'clocktrace.selfcheck', 'clocktrace.tracegen', "
         "'dataclasses', 'inspect', 'typing') if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("kind,loaded", [("vector", False), ("tree", True)])
def test_analyze_loads_treeclock_only_for_tree_runs(tmp_path, kind, loaded):
    trace = tmp_path / "tiny.txt"
    trace.write_text("t0 acq m\nt0 w x\nt0 rel m\nt1 acq m\nt1 r x\nt1 rel m\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, clocktrace.cli as cli\n"
         f"code = cli.main(['analyze', '--po', 'shb', '--clock', {kind!r}, "
         f"'--input', {str(trace)!r}, '--repeat', '1'])\n"
         "print(code, 'clocktrace.treeclock' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loaded}"


def test_package_import_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, clocktrace; print(sorted(m for m in sys.modules "
         "if m.startswith('clocktrace.')))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_readme_library_use_runs(capsys):
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "7871 17617 0\n"


def test_selfcheck_command_passes(capsys):
    assert cli.main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
