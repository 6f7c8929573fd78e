from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import aopmine
from aopmine.cli import _print_diff, build_parser, main
from aopmine.core import FrequentPattern, MiningParams
from aopmine.ingest import _CONFIG_KEYS, DatasetSpec, load_series
from aopmine.report import BENCH_COLUMNS

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    shutil.copy(DATA_DIR / "sample16.txt", tmp_path / "sample16.txt")
    shutil.copy(DATA_DIR / "sample16.csv", tmp_path / "sample16.csv")
    monkeypatch.chdir(tmp_path)
    return tmp_path


MINE_FLAGS = ["--input", "sample16.txt", "--delta", "1", "--gamma", "2", "--minsup", "4"]

# flags with no config key: they shape the command, not the run
CLI_ONLY_DESTS = {"config", "threads", "algorithms", "repeat"}


def subcommand_dests(command: str) -> set[str]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest for action in sub.choices[command]._actions if action.dest != "help"}


def table_rows(out: str) -> list[tuple[str, str]]:
    """The data lines of bench's stdout table, in order, as (algorithm, line)."""
    lines = out.splitlines()
    assert lines[0].split() == list(BENCH_COLUMNS)
    assert lines[-1].startswith("bench: ")
    return [(line.split()[0], line) for line in lines[2:-1]]


class TestMineCommand:
    def test_happy_path(self, workdir, capsys):
        assert main(["mine", *MINE_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "patterns found: 11" in out
        assert "length 2: 2" in out
        assert "length 3: 6" in out
        assert "length 4: 3" in out
        payload = json.loads((workdir / "sample16.report.json").read_text())
        assert len(payload["patterns"]) == 11

    @pytest.mark.parametrize(
        "series", [["sample16.txt"], ["sample16.csv", "--column", "close"]], ids=["plain", "csv"]
    )
    def test_report_bytes_are_the_golden_file(self, workdir, series):
        # tests/data/sample16.report.json was written by the plain command; any
        # change to the report's bytes shows here, whatever writes them, and
        # the CSV holding the same samples must give the same bytes
        argv = ["mine", "--input", *series, "--delta", "1", "--gamma", "2", "--minsup", "4"]
        assert main(argv) == 0
        golden = (DATA_DIR / "sample16.report.json").read_bytes()
        assert (workdir / "sample16.report.json").read_bytes() == golden

    def test_csv_input(self, workdir, capsys):
        code = main(
            ["mine", "--input", "sample16.csv", "--column", "close",
             "--delta", "1", "--gamma", "2", "--minsup", "4"]
        )
        assert code == 0
        assert "patterns found: 11" in capsys.readouterr().out

    def test_explicit_output(self, workdir):
        assert main(["mine", *MINE_FLAGS, "--output", "here.json"]) == 0
        assert (workdir / "here.json").exists()

    def test_output_dir_env(self, workdir, monkeypatch):
        target = workdir / "reports"
        target.mkdir()
        monkeypatch.setenv("AOPMINE_OUTPUT_DIR", str(target))
        assert main(["mine", *MINE_FLAGS]) == 0
        assert (target / "sample16.report.json").exists()

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_minimal_run_mines_aop_with_the_automatic_cutoff(
        self, workdir, monkeypatch, capsys, source
    ):
        # with neither algorithm nor occurrences given, mine runs aop and the
        # report applies its size cutoff (include_occurrences None)
        import aopmine.cli as cli

        calls = []
        real_mine, real_write = cli.mine, cli.write_report

        def spy_mine(series, params, kind):
            calls.append(("mine", kind))
            return real_mine(series, params, kind)

        def spy_write(*args, **kwargs):
            calls.append(("write_report", args[2], kwargs))
            return real_write(*args, **kwargs)

        monkeypatch.setattr(cli, "mine", spy_mine)
        monkeypatch.setattr(cli, "write_report", spy_write)
        (workdir / "run.conf").write_text("input = sample16.txt\nminsup = 4\n")
        argv = ["--input", "sample16.txt", "--minsup", "4"]
        assert main(["mine", *(argv if source == "flags" else ["--config", "run.conf"])]) == 0
        assert calls == [
            ("mine", "aop"), ("write_report", "aop", {"include_occurrences": None})
        ]
        assert json.loads((workdir / "sample16.report.json").read_text())["algorithm"] == "aop"
        capsys.readouterr()

    def test_all_algorithms_accepted(self, workdir):
        for kind in ("aop", "nopruning", "em", "scan_em"):
            assert main(["mine", *MINE_FLAGS, "--algorithm", kind, "--output", "r.json"]) == 0
        code = main(
            ["mine", *MINE_FLAGS, "--algorithm", "oracle", "--max-length", "5",
             "--output", "r.json"]
        )
        assert code == 0

    def test_config_plus_overrides_equals_full_flags(self, workdir):
        # for every key that is both a flag and a config key: a config that is
        # wrong on that key alone, plus that key's flag, gives the all-flags run
        full = {"input": "sample16.csv", "format": "csv", "column": "close", "delta": "1",
                "gamma": "2", "minsup": "4", "max_length": "4", "algorithm": "em",
                "occurrences": "true", "output": "out.json"}
        wrong = {"input": "other.txt", "format": "plain", "column": "0", "delta": "0",
                 "gamma": "0", "minsup": "3", "max_length": "3", "algorithm": "aop",
                 "occurrences": "false", "output": "wrong.json"}
        assert set(full) == set(_CONFIG_KEYS) & subcommand_dests("mine")
        (workdir / "other.txt").write_text("".join(f"{v % 5}\n" for v in range(20)))

        def flags(values):
            argv = []
            for key, value in values.items():
                flag = "--" + key.replace("_", "-")
                argv += [flag] if key == "occurrences" else [flag, value]
            return argv

        assert main(["mine", *flags(full)]) == 0
        expected = (workdir / "out.json").read_bytes()
        for key in full:
            (workdir / "out.json").unlink()
            conf = {**full, key: wrong[key]}
            (workdir / "run.conf").write_text("".join(f"{k} = {v}\n" for k, v in conf.items()))
            assert main(["mine", "--config", "run.conf", *flags({key: full[key]})]) == 0, key
            assert (workdir / "out.json").read_bytes() == expected, key
        assert not (workdir / "wrong.json").exists()

    @pytest.mark.parametrize("command", ["mine", "bench", "check"])
    def test_every_flag_is_a_config_key_or_cli_only(self, command):
        # run settings are copied from flags by config-key name: a flag with
        # any other dest would be parsed and then silently dropped
        assert subcommand_dests(command) - set(_CONFIG_KEYS) <= CLI_ONLY_DESTS

    def test_flag_order_is_irrelevant(self, workdir):
        shuffled = ["--minsup", "4", "--gamma", "2", "--input", "sample16.txt", "--delta", "1"]
        assert main(["mine", *shuffled, "--output", "a.json"]) == 0
        assert main(["mine", *MINE_FLAGS, "--output", "b.json"]) == 0
        assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()

    def test_oracle_without_max_length_exits_1(self, workdir, capsys):
        assert main(["mine", *MINE_FLAGS, "--algorithm", "oracle", "--output", "r.json"]) == 1
        assert "set max_len <= 7 (got None)" in capsys.readouterr().err
        assert not (workdir / "r.json").exists()

    def test_threads_do_not_change_bytes(self, workdir):
        assert main(["mine", *MINE_FLAGS, "--threads", "1", "--output", "t1.json"]) == 0
        assert main(["mine", *MINE_FLAGS, "--threads", "8", "--output", "t8.json"]) == 0
        assert (workdir / "t1.json").read_bytes() == (workdir / "t8.json").read_bytes()

    def test_thread_count_below_one_exits_1(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mine", *MINE_FLAGS, "--threads", "0"])
        assert exc.value.code == 1
        assert "must be >= 1, got 0" in capsys.readouterr().err

    def test_not_utf8_series_exits_2_and_config_exits_1(self, workdir, capsys):
        (workdir / "bad.txt").write_bytes(b"1\n2\n3\xff\n")
        assert main(["mine", "--input", "bad.txt", "--minsup", "1"]) == 2
        assert capsys.readouterr().err == "error: bad.txt:3: not UTF-8 text\n"
        (workdir / "bad.conf").write_bytes(b"minsup = 4\n# caf\xe9\n")
        assert main(["mine", *MINE_FLAGS, "--config", "bad.conf"]) == 1
        assert capsys.readouterr().err == "error: bad.conf:2: not UTF-8 text\n"
        assert not list(workdir.glob("*.report.json"))

    def test_truncated_byte_order_mark_is_not_utf8(self, workdir, capsys):
        # a file of only the first bytes of a byte-order mark is neither an
        # empty series nor an empty config
        for data in (b"\xef", b"\xef\xbb"):
            (workdir / "ef.txt").write_bytes(data)
            assert main(["mine", "--input", "ef.txt", "--minsup", "1"]) == 2
            assert capsys.readouterr().err == "error: ef.txt:1: not UTF-8 text\n"
        (workdir / "ef.conf").write_bytes(b"\xef\xbb")
        assert main(["mine", *MINE_FLAGS, "--config", "ef.conf"]) == 1
        assert capsys.readouterr().err == "error: ef.conf:1: not UTF-8 text\n"
        assert not list(workdir.glob("*.report.json"))

    def test_row_the_csv_module_refuses_exits_2(self, workdir, capsys):
        limit = csv.field_size_limit()
        (workdir / "huge.csv").write_text("close\n1\n" + "9" * (limit + 1) + "\n2\n")
        assert main(["mine", "--input", "huge.csv", "--column", "close", "--minsup", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: huge.csv:3: field larger than field limit ({limit})\n"
        )
        assert not list(workdir.glob("*.report.json"))

    def test_superscript_header_is_a_column_name(self, workdir, capsys):
        (workdir / "sup.csv").write_text(
            "²\n" + (workdir / "sample16.txt").read_text(), encoding="utf-8"
        )
        argv = ["mine", "--input", "sup.csv", "--column", "²", "--delta", "1", "--gamma", "2",
                "--minsup", "4", "--output", "sup.json"]
        assert main(argv) == 0
        assert "patterns found: 11" in capsys.readouterr().out

    def test_negative_column_exits_1(self, workdir, capsys):
        # -1 would silently pick the last column; -5 is past the first of two
        for column in ("-1", "-5"):
            argv = ["mine", "--input", "sample16.csv", "--column", column, "--minsup", "4"]
            assert main(argv) == 1
            assert f"column index must be >= 0, got {column}" in capsys.readouterr().err
        (workdir / "run.cfg").write_text("input = sample16.csv\ncolumn = -1\nminsup = 4\n")
        assert main(["mine", "--config", "run.cfg"]) == 1
        assert "got -1" in capsys.readouterr().err
        assert not list(workdir.glob("*.report.json"))

    def test_column_on_plain_input_exits_1(self, workdir, capsys):
        # a plain file has one column: a column choice there is a mistake,
        # not something to ignore
        for column, shown in (("7", "7"), ("close", "'close'")):
            argv = ["mine", "--input", "sample16.txt", "--column", column, "--minsup", "4"]
            assert main(argv) == 1
            assert f"column {shown} given for plain-format input" in capsys.readouterr().err
        (workdir / "run.cfg").write_text("input = sample16.txt\ncolumn = 7\nminsup = 4\n")
        assert main(["mine", "--config", "run.cfg"]) == 1
        assert "column 7 given for plain-format input" in capsys.readouterr().err
        assert not list(workdir.glob("*.report.json"))
        # the same file read as csv may name its only column
        argv = ["mine", "--input", "sample16.txt", "--format", "csv", "--column", "0", "--minsup", "4"]
        assert main(argv) == 0

    def test_usage_errors_exit_1(self, workdir, capsys):
        assert main(["mine", "--input", "sample16.txt", "--delta", "-1", "--minsup", "4"]) == 1
        assert main(["mine", "--input", "sample16.txt"]) == 1
        with pytest.raises(SystemExit) as exc:
            main(["mine", *MINE_FLAGS, "--algorithm", "bogus"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_data_errors_exit_2(self, workdir, capsys):
        assert main(["mine", "--input", "missing.txt", "--minsup", "4"]) == 2
        (workdir / "empty.txt").write_text("")
        assert main(["mine", "--input", "empty.txt", "--minsup", "4"]) == 2
        (workdir / "bad.txt").write_text("1\nx\n")
        assert main(["mine", "--input", "bad.txt", "--minsup", "4"]) == 2
        capsys.readouterr()

    def test_missing_config_file_exits_1(self, workdir, capsys):
        assert main(["mine", "--config", "missing.conf"]) == 1
        assert "error: cannot read config missing.conf" in capsys.readouterr().err

    def test_no_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
        capsys.readouterr()


class TestBenchCommand:
    def test_repeated_algorithm_is_listed_once(self, workdir, capsys, monkeypatch):
        # one run and one row per name, in first-mention order
        import aopmine.cli as cli

        runs = []
        real_mine = cli.mine

        def recorded_mine(series, params, kind="aop"):
            runs.append(kind)
            return real_mine(series, params, kind)

        monkeypatch.setattr(cli, "mine", recorded_mine)
        argv = ["bench", *MINE_FLAGS, "--algorithms", "em, aop,em,aop", "--output", "b.csv"]
        assert main(argv) == 0
        assert runs == ["em", "aop"]
        rows = list(csv.DictReader((workdir / "b.csv").read_text().splitlines()))
        assert [row["algorithm"] for row in rows] == ["em", "aop"]
        table = table_rows(capsys.readouterr().out)
        assert [algorithm for algorithm, _ in table] == ["em", "aop"]

    def test_two_algorithms(self, workdir, capsys):
        code = main(["bench", *MINE_FLAGS, "--algorithms", "aop,em", "--output", "b.csv"])
        assert code == 0
        captured = capsys.readouterr()
        assert "disagree" not in captured.err
        lines = (workdir / "b.csv").read_text().splitlines()
        assert len(lines) == 3
        aop_cells = lines[1].split(",")
        em_cells = lines[2].split(",")
        assert int(aop_cells[3]) <= int(em_cells[3])  # total candidates
        # stdout shows the CSV's rows as a table; no other file is written
        table = table_rows(captured.out)
        assert [algorithm for algorithm, _ in table] == ["aop", "em"]
        for (_, line), cells in zip(table, (aop_cells, em_cells)):
            assert line.split()[1] == "11"
            assert all(cell in line for cell in cells)
        assert captured.out.splitlines()[-1] == "bench: b.csv"
        assert sorted(p.name for p in workdir.iterdir()) == [
            "b.csv", "sample16.csv", "sample16.txt"
        ]

    def test_counters_are_the_golden_file(self, workdir, capsys):
        # tests/data/sample16.bench.csv holds this command's CSV without its
        # last column, wall_time_s, the one cell that is not deterministic
        argv = ["bench", *MINE_FLAGS, "--algorithms", "aop,nopruning,em,scan_em,oracle",
                "--max-length", "5"]
        assert main(argv) == 0
        capsys.readouterr()
        text = (workdir / "sample16.bench.csv").read_text()
        rows = list(csv.reader(io.StringIO(text, newline="")))
        golden = (DATA_DIR / "sample16.bench.csv").read_text()
        assert "".join(",".join(row[:-1]) + "\n" for row in rows) == golden
        assert rows[0][-1] == "wall_time_s"
        for row in rows[1:]:
            assert re.fullmatch(r"\d+\.\d{6}", row[-1]), row

    @pytest.mark.parametrize("output", ["sample16.out", "b.txt"])
    def test_output_file_holds_only_the_csv(self, workdir, output, capsys):
        # a table file beside the CSV once overwrote the input (sample16.txt
        # beside sample16.out) or the CSV itself (b.txt)
        series = (workdir / "sample16.txt").read_bytes()
        assert main(["bench", *MINE_FLAGS, "--algorithms", "aop", "--output", output]) == 0
        capsys.readouterr()
        assert (workdir / "sample16.txt").read_bytes() == series
        lines = (workdir / output).read_text().splitlines()
        assert lines[0] == ",".join(BENCH_COLUMNS) and len(lines) == 2
        assert sorted(p.name for p in workdir.iterdir()) == sorted(
            [output, "sample16.csv", "sample16.txt"]
        )

    def test_disagreeing_occurrences_exit_3(self, workdir, monkeypatch, capsys):
        # same frequent set and counters, one occurrence fewer: still a mismatch
        import aopmine.cli as cli

        real_mine = cli.mine

        def lossy_mine(series, params, kind="aop"):
            found, stats = real_mine(series, params, kind)
            if kind == "em":
                last = found[-1]
                dropped = aopmine.FrequentPattern(last.pattern, last.occurrences[:-1])
                found = found[:-1] + (dropped,)
            return found, stats

        monkeypatch.setattr(cli, "mine", lossy_mine)
        code = main(["bench", *MINE_FLAGS, "--algorithms", "aop,em", "--output", "b.csv"])
        assert code == 3
        captured = capsys.readouterr()
        assert "em and aop disagree" in captured.err
        last = real_mine(load_series(DatasetSpec(workdir / "sample16.txt")),
                         MiningParams(delta=1, gamma=2, minsup=4))[0][-1]
        assert (f"  {last.pattern}: em={last.support - 1} aop={last.support}; em only [], "
                f"aop only [{last.occurrences[-1]}]") in captured.err.splitlines()
        assert [line.split()[1] for _, line in table_rows(captured.out)] == ["11", "11"]

    def test_diff_stops_after_twenty_lines(self):
        # 30 differing patterns: the first 20 by (length, ranks), then "  ..."
        patterns = [*itertools.permutations((1, 2, 3)), *itertools.permutations((1, 2, 3, 4))]
        out = io.StringIO()
        _print_diff("em", {p: (1,) for p in patterns}, "aop", {}, out)
        lines = out.getvalue().splitlines()
        assert len(lines) == 21 and lines[-1] == "  ..."
        assert lines[0] == "  (1, 2, 3): em=1 aop=0; em only [1], aop only []"
        assert lines[19].startswith(f"  {patterns[19]}: ")

    def test_repeat_flag(self, workdir):
        code = main(["bench", *MINE_FLAGS, "--algorithms", "aop", "--repeat", "3",
                     "--output", "b.csv"])
        assert code == 0

    def test_wall_time_is_the_mean_over_repeats(self, workdir, monkeypatch, capsys):
        # a fake clock that only mine moves: the two runs take 1 s and 3 s
        import aopmine.cli as cli

        now, durations = [0.0], iter([1.0, 3.0])
        real_mine = cli.mine

        def timed_mine(series, params, kind="aop"):
            now[0] += next(durations)
            return real_mine(series, params, kind)

        monkeypatch.setattr(cli.time, "perf_counter", lambda: now[0])
        monkeypatch.setattr(cli, "mine", timed_mine)
        argv = ["bench", *MINE_FLAGS, "--algorithms", "aop", "--repeat", "2", "--output", "b.csv"]
        assert main(argv) == 0
        rows = list(csv.DictReader((workdir / "b.csv").read_text().splitlines()))
        assert [row["wall_time_s"] for row in rows] == ["2.000000"]
        table = table_rows(capsys.readouterr().out)
        assert [line.split()[-1] for _, line in table] == ["2.000000"]

    @pytest.mark.parametrize(
        "algorithms, flags",
        [
            ("aop,nopruning,em,scan_em", []),
            ("em,oracle,aop", ["--max-length", "5"]),
            ("aop,nopruning,em", ["--repeat", "2"]),
        ],
    )
    def test_only_the_reference_outlives_its_comparison(
        self, workdir, monkeypatch, capsys, algorithms, flags
    ):
        # every run's pattern list and occurrence lists are list subclasses,
        # which take weak references. When a run starts, an earlier run is
        # alive exactly when it is the reference's (the first listed) last
        # repeat, or the oracle's, mined first, before its listed turn
        import aopmine.cli as cli

        class Observed(list):
            pass

        names = algorithms.split(",")
        runs = []  # (strategy, weak references to its result), in run order
        real_mine = cli.mine

        def observed_mine(series, params, kind="aop"):
            for i, (earlier, refs) in enumerate(runs):
                last_repeat = earlier != kind and all(later != earlier for later, _ in runs[i + 1:])
                held = earlier == names[0] or (
                    earlier == "oracle" and names.index(kind) < names.index("oracle")
                )
                alive = any(ref() is not None for ref in refs)
                assert alive == (last_repeat and held), (earlier, i, kind, algorithms)
            found, stats = real_mine(series, params, kind)
            found = Observed(FrequentPattern(fp.pattern, Observed(fp.occurrences)) for fp in found)
            runs.append((kind, [weakref.ref(found), *(weakref.ref(fp.occurrences) for fp in found)]))
            return found, stats

        monkeypatch.setattr(cli, "mine", observed_mine)
        argv = ["bench", *MINE_FLAGS, "--algorithms", algorithms, *flags, "--output", "b.csv"]
        assert main(argv) == 0
        repeat = 2 if "--repeat" in flags else 1
        assert sorted(kind for kind, _ in runs) == sorted(names * repeat)
        assert not any(ref() for _, refs in runs for ref in refs)
        assert [algorithm for algorithm, _ in table_rows(capsys.readouterr().out)] == names

    def test_unknown_algorithm_exits_1(self, workdir, capsys):
        assert main(["bench", *MINE_FLAGS, "--algorithms", "aop,warp"]) == 1
        capsys.readouterr()

    def test_empty_algorithm_list_exits_1(self, workdir, capsys):
        assert main(["bench", *MINE_FLAGS, "--algorithms", ","]) == 1
        assert "error: --algorithms needs at least one name" in capsys.readouterr().err

    def test_bad_repeat_exits_1(self, workdir, capsys):
        assert main(["bench", *MINE_FLAGS, "--algorithms", "aop", "--repeat", "0"]) == 1
        capsys.readouterr()


    def test_intractable_oracle_refused_before_any_mining(self, workdir, monkeypatch, capsys):
        import aopmine.cli as cli

        kinds = []
        real_mine = cli.mine

        def logged_mine(series, params, kind="aop"):
            kinds.append(kind)
            return real_mine(series, params, kind)

        monkeypatch.setattr(cli, "mine", logged_mine)
        argv = ["bench", *MINE_FLAGS, "--algorithms", "aop,em,oracle", "--max-length", "9"]
        assert main(argv) == 1
        assert "oracle intractable: set max_len <= 7 (got 9)" in capsys.readouterr().err
        assert kinds == ["oracle"]
        assert not (workdir / "sample16.bench.csv").exists()

    def test_oracle_mined_first_rows_in_listed_order(self, workdir, monkeypatch, capsys):
        import aopmine.cli as cli

        kinds = []
        real_mine = cli.mine

        def logged_mine(series, params, kind="aop"):
            kinds.append(kind)
            return real_mine(series, params, kind)

        monkeypatch.setattr(cli, "mine", logged_mine)
        argv = ["bench", *MINE_FLAGS, "--algorithms", "aop,em,oracle", "--max-length", "4"]
        assert main([*argv, "--output", "b.csv"]) == 0
        assert kinds == ["oracle", "aop", "em"]
        rows = (workdir / "b.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["aop", "em", "oracle"]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[2:-1]] == ["aop", "em", "oracle"]


class TestMissingOutputDirectory:
    """An output path whose directory does not exist exits 2, naming the
    path, before the series is loaded."""

    @pytest.mark.parametrize(
        "argv",
        [["mine", *MINE_FLAGS], ["bench", *MINE_FLAGS, "--algorithms", "aop"]],
        ids=["mine", "bench"],
    )
    @pytest.mark.parametrize("given", ["env", "flag"])
    def test_refused_before_reading(self, workdir, monkeypatch, capsys, argv, given):
        import aopmine.cli as cli

        def not_reached(spec):
            raise AssertionError("load_series ran")

        monkeypatch.setattr(cli, "load_series", not_reached)
        missing = workdir / "nope"
        if given == "env":
            monkeypatch.setenv("AOPMINE_OUTPUT_DIR", str(missing))
            suffix = "report.json" if argv[0] == "mine" else "bench.csv"
            output = missing / f"sample16.{suffix}"
        else:
            output = missing / "out"
            argv = [*argv, "--output", str(output)]
        assert main(argv) == 2
        assert f"cannot write {output}: {missing} is not a directory" in capsys.readouterr().err
        assert not missing.exists()


class TestOutputIsADirectory:
    """An --output that names an existing directory exits 2, naming the
    path, before the series is loaded."""

    @pytest.mark.parametrize(
        "argv",
        [["mine", *MINE_FLAGS], ["bench", *MINE_FLAGS, "--algorithms", "aop"]],
        ids=["mine", "bench"],
    )
    def test_refused_before_reading(self, workdir, monkeypatch, capsys, argv):
        import aopmine.cli as cli

        def not_reached(spec):
            raise AssertionError("load_series ran")

        monkeypatch.setattr(cli, "load_series", not_reached)
        outdir = workdir / "outdir"
        outdir.mkdir()
        assert main([*argv, "--output", str(outdir)]) == 2
        assert f"cannot write {outdir}: it is a directory" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []


class TestOutputNeverAnInput:
    """An output path that is a file the run reads exits 1, naming both
    paths, before the series is loaded or anything is written."""

    @pytest.mark.parametrize(
        "argv, output, source",
        [
            (["mine", *MINE_FLAGS], "sample16.txt", "sample16.txt"),
            (["mine", "--input", "{dir}/sample16.txt", "--minsup", "4"], "sample16.txt",
             "{dir}/sample16.txt"),
            (["mine", "--input", "link.txt", "--minsup", "4"], "sample16.txt", "link.txt"),
            (["mine", "--input", "hard.txt", "--minsup", "4"], "sample16.txt", "hard.txt"),
            (["mine", "--input", "sample16.txt", "--minsup", "4"], "link.txt", "sample16.txt"),
            (["mine", "--config", "run.conf"], "run.conf", "run.conf"),
            (["bench", *MINE_FLAGS, "--algorithms", "aop"], "sample16.txt", "sample16.txt"),
            (["bench", "--config", "run.conf", "--algorithms", "aop"], "run.conf", "run.conf"),
        ],
        ids=["mine", "absolute", "input-symlink", "input-hardlink", "output-symlink",
             "mine-config", "bench", "bench-config"],
    )
    def test_refused(self, workdir, monkeypatch, capsys, argv, output, source):
        import aopmine.cli as cli

        (workdir / "link.txt").symlink_to("sample16.txt")
        os.link(workdir / "sample16.txt", workdir / "hard.txt")
        (workdir / "run.conf").write_text("input = sample16.txt\nminsup = 4\n")
        before = {p.name: p.read_bytes() for p in workdir.iterdir()}

        def not_reached(spec):
            raise AssertionError("load_series ran")

        monkeypatch.setattr(cli, "load_series", not_reached)
        argv = [arg.format(dir=workdir) for arg in argv]
        assert main([*argv, "--output", output]) == 1
        err = capsys.readouterr().err
        assert f"output {output} is the input {source.format(dir=workdir)}" in err
        assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before

    def test_default_output_named_like_the_input(self, workdir, monkeypatch, capsys):
        monkeypatch.setenv("AOPMINE_OUTPUT_DIR", str(workdir))
        (workdir / "s.report.json").write_bytes((workdir / "sample16.txt").read_bytes())
        (workdir / "run.conf").write_text("input = s.report.json\nname = s\nminsup = 4\n")
        assert main(["mine", "--config", "run.conf"]) == 1
        assert "is the input s.report.json" in capsys.readouterr().err
        assert (workdir / "s.report.json").read_bytes() == (workdir / "sample16.txt").read_bytes()


class TestCheckCommand:
    def test_sample_matches(self, workdir, capsys):
        assert main(["check", *MINE_FLAGS, "--max-length", "5"]) == 0
        assert "verdict: MATCH" in capsys.readouterr().out

    def test_exact_mode_matches(self, workdir, capsys):
        (workdir / "inc.txt").write_text("".join(f"{v}\n" for v in range(30)))
        code = main(["check", "--input", "inc.txt", "--minsup", "5", "--max-length", "4"])
        assert code == 0
        assert "verdict: MATCH" in capsys.readouterr().out

    def test_random_seeds_match(self, workdir, capsys):
        import random

        rng = random.Random(5)
        for seed in range(3):
            values = [rng.random() for _ in range(40)]
            (workdir / f"r{seed}.txt").write_text("".join(f"{v!r}\n" for v in values))
            code = main(["check", "--input", f"r{seed}.txt", "--delta", "1", "--gamma", "2",
                         "--minsup", "3", "--max-length", "4"])
            assert code == 0
            assert "verdict: MATCH" in capsys.readouterr().out

    def test_divergence_on_tied_input_exits_3(self, workdir, monkeypatch, capsys):
        # tied samples get no carve-out: any difference from the reference fails
        import aopmine.cli as cli

        real_mine = cli.mine

        def lossy_mine(series, params, kind="aop"):
            found, stats = real_mine(series, params, kind)
            if kind == "aop":
                last = found[-1]
                dropped = aopmine.FrequentPattern(last.pattern, last.occurrences[1:])
                found = found[:-1] + (dropped,)
            return found, stats

        monkeypatch.setattr(cli, "mine", lossy_mine)
        (workdir / "tied.txt").write_text("".join(f"{v % 3}\n" for v in range(40)))
        code = main(["check", "--input", "tied.txt", "--delta", "1", "--gamma", "2",
                     "--minsup", "3", "--max-length", "4"])
        assert code == 3
        assert "verdict: MISMATCH" in capsys.readouterr().out

    def test_max_length_cap(self, workdir, monkeypatch, capsys):
        # refused by the oracle, which runs first, before any mining
        import aopmine.cli as cli

        kinds = []
        real_mine = cli.mine

        def logged_mine(series, params, kind="aop"):
            kinds.append(kind)
            return real_mine(series, params, kind)

        monkeypatch.setattr(cli, "mine", logged_mine)
        assert main(["check", *MINE_FLAGS, "--max-length", "9"]) == 1
        assert "oracle intractable: set max_len <= 7 (got 9)" in capsys.readouterr().err
        assert kinds == ["oracle"]


class TestConfigKeysPerCommand:
    """A config file may hold only the keys its command reads: those it has a
    flag for, plus ``name``. Any other key exits 1, naming the file, the
    command and the key, before the series is read."""

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["bench", "--algorithms", "aop"], "algorithm", "em"),
            (["bench", "--algorithms", "aop"], "occurrences", "false"),
            (["check"], "output", "x.json"),
            (["check"], "algorithm", "em"),
        ],
        ids=["bench-algorithm", "bench-occurrences", "check-output", "check-algorithm"],
    )
    def test_unused_key_exits_1(self, workdir, monkeypatch, capsys, argv, key, value):
        import aopmine.cli as cli

        def not_reached(spec):
            raise AssertionError("load_series ran")

        monkeypatch.setattr(cli, "load_series", not_reached)
        (workdir / "run.conf").write_text(f"input = sample16.txt\nminsup = 4\n{key} = {value}\n")
        assert main([*argv, "--config", "run.conf"]) == 1
        err = capsys.readouterr().err
        assert f"run.conf: {argv[0]} does not use config key {key!r}" in err
        assert sorted(p.name for p in workdir.iterdir()) == [
            "run.conf", "sample16.csv", "sample16.txt"
        ]

    def test_mine_accepts_every_key(self, workdir, capsys):
        values = {"input": "sample16.csv", "format": "csv", "column": "close", "name": "s",
                  "delta": "1", "gamma": "2", "minsup": "4", "max_length": "4",
                  "algorithm": "em", "occurrences": "true", "output": "out.json"}
        assert set(values) == set(_CONFIG_KEYS)
        (workdir / "run.conf").write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert main(["mine", "--config", "run.conf"]) == 0
        assert json.loads((workdir / "out.json").read_text())["dataset"] == "s"
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv", [["mine"], ["bench", "--algorithms", "aop"], ["check", "--max-length", "4"]]
    )
    def test_every_command_accepts_name(self, workdir, monkeypatch, capsys, argv):
        monkeypatch.setenv("AOPMINE_OUTPUT_DIR", str(workdir))
        (workdir / "run.conf").write_text("input = sample16.txt\nminsup = 4\nname = s\n")
        assert main([*argv, "--config", "run.conf"]) == 0
        capsys.readouterr()


def test_module_entry_point(workdir):
    # The child runs in the tmp directory, where a relative PYTHONPATH such as
    # "src" resolves to nothing; point it at the package this process imported.
    package_root = str(Path(aopmine.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "aopmine", "mine", *MINE_FLAGS],
        capture_output=True,
        text=True,
        cwd=workdir,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0, result.stderr
    assert "patterns found: 11" in result.stdout
