"""End-to-end tests of the command line interface, driven in-process
through main() so exit codes and output can be asserted directly."""

import contextlib
import csv
import io
import os
import re
import statistics
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clocktrace import cli
from clocktrace.analyses import HB, MAZ, ORDERS, run_analysis
from clocktrace.cli import CSV_COLUMNS
from clocktrace.trace import Event, Trace, parse_trace, serialize_trace, validate_trace
from clocktrace.tracegen import random_trace
from clocktrace.vclock import VectorClock

TIME_COL = CSV_COLUMNS.index("time_ms")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def rows_without_time(path):
    rows = read_csv_rows(path)
    return [r[:TIME_COL] + r[TIME_COL + 1 :] for r in rows]


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

    def test_bad_spec_exits_2(self, tmp_path):
        assert cli.main(["gen", "--pattern", "single_lock", "--threads", "1",
                         "--events", "4"]) == 2


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

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("t0 w x\nt1 r x\n"))
        rc = cli.main(["analyze", "--po", "shb", "--input", "-",
                       "--repeat", "1"])
        assert rc == 0
        capsys.readouterr()

    def test_csv_rows_appended(self, tmp_path):
        trace = gen_trace(tmp_path)
        csv_path = tmp_path / "out.csv"
        rc = cli.main(["analyze", "--po", "hb", "--input", str(trace),
                       "--csv", str(csv_path), "--repeat", "1"])
        assert rc == 0
        rows = read_csv_rows(csv_path)
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 3  # header + tree row + vector row
        # appending keeps one header only
        rc = cli.main(["analyze", "--po", "hb", "--input", str(trace),
                       "--csv", str(csv_path), "--repeat", "1"])
        assert rc == 0
        rows = read_csv_rows(csv_path)
        assert len(rows) == 5
        assert sum(1 for r in rows if r == list(CSV_COLUMNS)) == 1

    def test_csv_rows_deterministic_up_to_time(self, tmp_path):
        trace = gen_trace(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert cli.main(["analyze", "--po", "shb", "--input", str(trace),
                             "--csv", str(path), "--repeat", "1"]) == 0
        assert rows_without_time(a) == rows_without_time(b)

    def test_races_are_printed(self, tmp_path, capsys):
        trace = tmp_path / "racy.trace"
        trace.write_text("t0 w x\nt1 r x\nt1 w x\n")
        rc = cli.main(["analyze", "--po", "hb", "--input", str(trace),
                       "--races", "--repeat", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        race_lines = [l for l in out.splitlines() if l.startswith("race ")]
        assert len(race_lines) == 2
        assert race_lines[0] == "race write-read var=x0 earlier=t0@1 later=t1@1 event=1"
        assert race_lines[1] == "race write-write var=x0 earlier=t0@1 later=t1@2 event=2"

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

    def test_internal_assertion_maps_to_1(self, tmp_path, monkeypatch, capsys):
        trace = gen_trace(tmp_path, events=40)

        def boom(*a, **kw):
            raise AssertionError("invariant broken")

        monkeypatch.setattr(cli, "_timed_runs", boom)
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
        # a tree clock whose node count is off by one is caught there too
        trace = gen_trace(tmp_path, events=40)
        script = (
            "from clocktrace import analyses\n"
            "from clocktrace.trace import parse_trace\n"
            "class Doctored(analyses.TreeClock):\n"
            "    __slots__ = ()\n"
            "    @classmethod\n"
            "    def owned(cls, tid, size, counter):\n"
            "        clock = super().owned(tid, size, counter)\n"
            "        clock.nodes += 1\n"
            "        return clock\n"
            "analyses.TreeClock = Doctored\n"
            f"with open({str(trace)!r}) as fh:\n"
            "    trace = parse_trace(fh)\n"
            "analyses.run_analysis(trace, 'hb', 'tree', debug=True)\n"
        )
        proc = run_optimized(["-c", script])
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "AssertionError: 1 node reachable without links but 2 counted" \
            in proc.stderr
        # and analyze --debug runs under -O
        proc = run_optimized(["-m", "clocktrace.cli", "analyze", "--po", "hb",
                              "--input", str(trace), "--debug", "--repeat", "1"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clocks agree" in proc.stdout

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

    @pytest.mark.parametrize("clock,fault,message", [
        ("both", "vector races", "tree and vector race reports differ"),
        ("both", "vector vt_work", "vt_work differs (tree=41, vector=42)"),
        ("tree", "oracle timestamps", "engine timestamps differ from oracle"),
        ("both", "oracle timestamps", "engine timestamps differ from oracle"),
        ("vector", "oracle races", "engine races differ from oracle"),
    ])
    def test_each_divergence_exits_1(self, tmp_path, capsys, monkeypatch,
                                     clock, fault, message):
        real_run, real_ts, real_races = (cli.run_analysis, cli.oracle_timestamps,
                                         cli.oracle_races)

        def doctored_run(trace, po, kind, **kw):
            run = real_run(trace, po, kind, **kw)
            if kind == "vector" and fault == "vector races":
                run.races.pop()
            if kind == "vector" and fault == "vector vt_work":
                run.counter.vt_work += 1
            return run

        def doctored_ts(trace, po):
            stamps = real_ts(trace, po)
            stamps[-1] = tuple(v + 1 for v in stamps[-1])
            return stamps

        monkeypatch.setattr(cli, "run_analysis", doctored_run)
        if fault == "oracle timestamps":
            monkeypatch.setattr(cli, "oracle_timestamps", doctored_ts)
        if fault == "oracle races":
            monkeypatch.setattr(cli, "oracle_races",
                                lambda trace, po: real_races(trace, po)[:-1])
        rc = cli.main(["analyze", "--po", HB, "--clock", clock, "--oracle",
                       "--input", str(racy_trace(tmp_path)), "--repeat", "1"])
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
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["analyze", "--po", po, "--clock", clock,
                       "--input", "-", "--repeat", "1"])
    # ids as generated, not as parsing would intern them: renaming threads
    # or locks one-to-one changes no violation
    events = [Event(t, op, target) for t, op, target in lines]
    assert rc == (2 if validate_trace(Trace(events, 3, 2, 2)) else 0)


class TestBench:
    def test_small_matrix_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        rc = cli.main([
            "bench", "--patterns", "single_lock,star", "--threads", "3,5",
            "--events", "120", "--po", "hb", "--seed", "3",
            "--csv", str(csv_path), "--repeat", "1",
        ])
        assert rc == 0
        rows = read_csv_rows(csv_path)
        assert rows[0] == list(CSV_COLUMNS)
        # 2 patterns x 2 thread counts x 2 clock kinds
        assert len(rows) == 1 + 8
        names = {r[0] for r in rows[1:]}
        assert names == {"single_lock-k3", "single_lock-k5",
                         "star-k3-paired", "star-k5-paired"}
        capsys.readouterr()

    def test_default_events_scale_with_threads(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        rc = cli.main(["bench", "--patterns", "single_lock", "--threads",
                       "3", "--csv", str(csv_path), "--repeat", "1"])
        assert rc == 0
        rows = read_csv_rows(csv_path)
        events_col = CSV_COLUMNS.index("events")
        assert all(r[events_col] == "300" for r in rows[1:])
        capsys.readouterr()

    def test_speedup_lines_follow_grid_order(self, tmp_path, capsys):
        # 40 sorts between 3 and 5 as a string; every output keeps grid order
        csv_path = tmp_path / "bench.csv"
        rc = cli.main(["bench", "--patterns", "single_lock", "--threads", "3,5,40",
                       "--events", "40", "--csv", str(csv_path), "--repeat", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        cells = ["single_lock-k3", "single_lock-k5", "single_lock-k40"]
        rows = [c for c in cells for _ in ("tree", "vector")]
        assert [r[0] for r in read_csv_rows(csv_path)[1:]] == rows
        speedups = [line.split()[1] for line in lines if line.startswith("speedup ")]
        summaries = [line.split(":")[0] for line in lines if not line.startswith("speedup ")]
        assert (summaries, speedups) == (rows, cells)

    @pytest.mark.parametrize("flag", ["--patterns", "--threads"])
    @pytest.mark.parametrize("value", ["", " , "])
    def test_empty_grid_exits_2(self, tmp_path, capsys, flag, value):
        # an empty axis measures nothing; say so instead of writing a header
        csv_path = tmp_path / "bench.csv"
        rc = cli.main(["bench", flag, value, "--csv", str(csv_path), "--repeat", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not csv_path.exists()


# Exact `analyze --clock both --races --oracle --csv` output and CSV rows on
# a seeded random trace, and exact `bench` rows and ratio lines, times masked.
# Scripts parse this text, so any change to it must be deliberate.
PINNED_SUMMARY = {
    "hb": """\
po=hb clock=tree events=40 threads=3 locks=2 vars=2 races=27 pairs_unordered=193 vt_work=41 impl_work=42 deep_copies=0 time_ms=*
po=hb clock=vector events=40 threads=3 locks=2 vars=2 races=27 pairs_unordered=193 vt_work=41 impl_work=43 deep_copies=0 time_ms=*
race write-write var=x0 earlier=t0@2 later=t1@1 event=2
race write-read var=x0 earlier=t1@1 later=t2@1 event=5
race write-read var=x0 earlier=t1@1 later=t0@4 event=6
race read-write var=x0 earlier=t2@1 later=t1@3 event=7
race write-read var=x0 earlier=t1@3 later=t0@5 event=8
race write-read var=x0 earlier=t1@3 later=t0@6 event=9
race read-write var=x1 earlier=t2@2 later=t1@4 event=11
race write-write var=x0 earlier=t1@3 later=t2@3 event=14
race write-read var=x1 earlier=t1@6 later=t2@5 event=16
race write-write var=x1 earlier=t1@6 later=t0@7 event=17
race write-write var=x0 earlier=t2@3 later=t1@7 event=19
race write-read var=x0 earlier=t1@7 later=t2@7 event=20
race write-read var=x1 earlier=t0@7 later=t1@8 event=21
race write-read var=x0 earlier=t1@7 later=t2@8 event=22
race write-write var=x0 earlier=t1@7 later=t0@8 event=23
race write-read var=x0 earlier=t0@8 later=t1@9 event=24
race write-write var=x0 earlier=t0@8 later=t1@10 event=25
race write-write var=x0 earlier=t1@11 later=t2@9 event=27
race write-read var=x1 earlier=t0@7 later=t2@10 event=29
race write-write var=x0 earlier=t2@9 later=t0@10 event=30
race write-write var=x0 earlier=t0@10 later=t2@11 event=31
race read-write var=x1 earlier=t1@8 later=t0@11 event=32
race write-read var=x1 earlier=t0@11 later=t2@12 event=33
race write-read var=x1 earlier=t0@11 later=t2@13 event=34
race write-read var=x0 earlier=t2@11 later=t0@12 event=35
race write-write var=x0 earlier=t2@11 later=t1@12 event=36
race read-write var=x1 earlier=t2@13 later=t0@13 event=37
""",
    "shb": """\
po=shb clock=tree events=40 threads=3 locks=2 vars=2 races=13 pairs_unordered=110 vt_work=86 impl_work=154 deep_copies=9 time_ms=*
po=shb clock=vector events=40 threads=3 locks=2 vars=2 races=13 pairs_unordered=110 vt_work=86 impl_work=148 deep_copies=9 time_ms=*
race write-write var=x0 earlier=t0@2 later=t1@1 event=2
race read-write var=x0 earlier=t2@1 later=t1@3 event=7
race read-write var=x1 earlier=t2@2 later=t1@4 event=11
race write-write var=x0 earlier=t1@3 later=t2@3 event=14
race write-write var=x1 earlier=t1@6 later=t0@7 event=17
race write-write var=x0 earlier=t2@3 later=t1@7 event=19
race write-write var=x0 earlier=t1@7 later=t0@8 event=23
race write-write var=x0 earlier=t1@11 later=t2@9 event=27
race write-write var=x0 earlier=t2@9 later=t0@10 event=30
race write-write var=x0 earlier=t0@10 later=t2@11 event=31
race read-write var=x1 earlier=t1@8 later=t0@11 event=32
race write-write var=x0 earlier=t2@11 later=t1@12 event=36
race read-write var=x1 earlier=t2@13 later=t0@13 event=37
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
PINNED_ANALYZE_ROWS = {
    "hb": [["pin.trace", "hb", "tree", "40", "3", "2", "2", "27", "193", "41", "42", "0"],
           ["pin.trace", "hb", "vector", "40", "3", "2", "2", "27", "193", "41", "43", "0"]],
    "shb": [["pin.trace", "shb", "tree", "40", "3", "2", "2", "13", "110", "86", "154", "9"],
            ["pin.trace", "shb", "vector", "40", "3", "2", "2", "13", "110", "86", "148", "9"]],
    "maz": [["pin.trace", "maz", "tree", "40", "3", "2", "2", "0", "0", "152", "360", "0"],
            ["pin.trace", "maz", "vector", "40", "3", "2", "2", "0", "0", "152", "298", "0"]],
}
PINNED_BENCH_ROWS = [
    ["single_lock-k3", "hb", "tree", "120", "3", "1", "0", "0", "", "233", "536", "0"],
    ["single_lock-k3", "hb", "vector", "120", "3", "1", "0", "0", "", "233", "477", "0"],
    ["single_lock-k5", "hb", "tree", "120", "5", "1", "0", "0", "", "294", "732", "0"],
    ["single_lock-k5", "hb", "vector", "120", "5", "1", "0", "0", "", "294", "715", "0"],
    ["star-k3-paired", "hb", "tree", "120", "3", "2", "0", "0", "", "271", "635", "0"],
    ["star-k3-paired", "hb", "vector", "120", "3", "2", "0", "0", "", "271", "474", "0"],
    ["star-k5-paired", "hb", "tree", "120", "5", "4", "0", "0", "", "311", "727", "0"],
    ["star-k5-paired", "hb", "vector", "120", "5", "4", "0", "0", "", "311", "700", "0"],
]


class TestPinnedOutput:
    @pytest.mark.parametrize("po", ORDERS)
    def test_analyze_output_and_csv(self, tmp_path, capsys, po):
        path = racy_trace(tmp_path)
        csv_path = tmp_path / "pin.csv"
        rc = cli.main(["analyze", "--po", po, "--clock", "both", "--races",
                       "--oracle", "--csv", str(csv_path), "--input", str(path),
                       "--repeat", "1"])
        assert rc == 0
        out = re.sub(r"time_ms=\d+\.\d{3}", "time_ms=*", capsys.readouterr().out)
        assert out == PINNED_SUMMARY[po] + PINNED_TRAILER
        header = [c for c in CSV_COLUMNS if c != "time_ms"]
        assert rows_without_time(csv_path) == [header] + PINNED_ANALYZE_ROWS[po]

    def test_bench_csv_and_ratios(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        rc = cli.main(["bench", "--patterns", "single_lock,star", "--threads", "3,5",
                       "--events", "120", "--po", "hb", "--seed", "3",
                       "--csv", str(csv_path), "--repeat", "1"])
        assert rc == 0
        header = [c for c in CSV_COLUMNS if c != "time_ms"]
        assert rows_without_time(csv_path) == [header] + PINNED_BENCH_ROWS
        # the work ratio is vector impl_work / tree impl_work of the rows
        impl = header.index("impl_work")
        work = {(r[0], r[2]): int(r[impl]) for r in PINNED_BENCH_ROWS}
        want = [f"speedup {name} hb: vector/tree wall time = *x, impl_work = "
                f"{work[name, 'vector'] / work[name, 'tree']:.2f}x"
                for name in dict.fromkeys(r[0] for r in PINNED_BENCH_ROWS)]
        assert want[0] == ("speedup single_lock-k3 hb: vector/tree wall time = *x, "
                           "impl_work = 0.89x")  # 477 / 536
        out = re.sub(r"wall time = \d+\.\d{2}x", "wall time = *x", capsys.readouterr().out)
        assert [line for line in out.splitlines() if line.startswith("speedup ")] == want


class TestRendering:
    def test_csv_row_in_column_order(self, tmp_path):
        trace = random_trace(3, events=60, threads=4, locks=2, variables=2)
        run = run_analysis(trace, MAZ, "vector")
        path = tmp_path / "rows.csv"
        cli._append_csv(path, [("sample", run, 12.3456)])
        header, row = read_csv_rows(path)
        assert header == list(CSV_COLUMNS) == [
            "trace", "po", "clock", "events", "threads", "locks", "vars",
            "time_ms", "races", "pairs_unordered", "vt_work", "impl_work",
            "deep_copies"]
        assert row == [str(v) for v in (
            "sample", MAZ, "vector", run.events, run.threads, run.locks,
            run.vars, "12.346", len(run.races), run.unordered_pairs,
            run.vt_work, run.impl_work, run.deep_copies)]

    def test_uncounted_pairs_render_empty(self, tmp_path):
        run = run_analysis(parse_trace("t0 w x\n"), HB, "tree", count_unordered=False)
        path = tmp_path / "rows.csv"
        cli._append_csv(path, [("t", run, 0.5)])
        got = dict(zip(CSV_COLUMNS, read_csv_rows(path)[1]))
        assert got["pairs_unordered"] == ""
        assert " pairs_unordered=- " in cli._summary_line(run, 0.5)


@pytest.mark.parametrize("repeat", [1, 2, 3, 4])
def test_timed_runs_median_matches_statistics(monkeypatch, repeat):
    elapsed = [0.3, 0.1, 0.7, 0.2][:repeat]
    runs = iter(SimpleNamespace(elapsed=e) for e in elapsed)
    monkeypatch.setattr(cli, "run_analysis", lambda *a, **kw: next(runs))
    run, ms = cli._timed_runs(None, HB, "tree", repeat)
    assert run.elapsed == elapsed[-1]
    assert ms == statistics.median(elapsed) * 1000.0


def test_cli_import_leaves_out_costly_modules():
    # a fresh interpreter, since the test process has imported all of
    # these; -S keeps site hooks out, so only clocktrace's imports count
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, clocktrace.cli; print(sorted(m for m in "
         "('statistics', 'csv', 'clocktrace.selfcheck') if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_selfcheck_command_passes(capsys):
    assert cli.main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
