"""End-to-end tests of the command line interface, driven in-process
through main() so exit codes and output can be asserted directly."""

import contextlib
import csv
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clocktrace import cli
from clocktrace.analyses import ORDERS
from clocktrace.metrics import CSV_COLUMNS
from clocktrace.trace import parse_trace, validate_trace

TIME_COL = CSV_COLUMNS.index("time_ms")


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

    def test_divergence_exits_1(self, tmp_path, capsys, monkeypatch):
        trace = gen_trace(tmp_path, events=40)
        real = cli._timed_runs

        def skew(trace, po, kind, repeat, debug, record_timestamps):
            run, ms = real(trace, po, kind, repeat, debug, record_timestamps)
            if kind == "vector":
                run.timestamps[-1] = tuple(v + 1 for v in run.timestamps[-1])
            return run, ms

        monkeypatch.setattr(cli, "_timed_runs", skew)
        rc = cli.main(["analyze", "--po", "hb", "--input", str(trace),
                       "--repeat", "1"])
        assert rc == 1
        assert "divergence" in capsys.readouterr().err


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
    assert rc == (2 if validate_trace(parse_trace(text)) else 0)


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

    def test_svg_chart_is_written(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        svg_path = tmp_path / "ratio.svg"
        rc = cli.main([
            "bench", "--patterns", "pairwise", "--threads", "4",
            "--events", "200", "--csv", str(csv_path),
            "--svg", str(svg_path), "--repeat", "1",
        ])
        assert rc == 0
        text = svg_path.read_text()
        assert text.lstrip().startswith("<svg")
        assert "</svg>" in text
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


def test_selfcheck_command_passes(capsys):
    assert cli.main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
