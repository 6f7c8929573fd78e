from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import pytest

from aopmine import FrequentPattern, MiningStats, mine
from aopmine.errors import DataError
from aopmine.report import (
    BENCH_COLUMNS,
    bench_table,
    build_report,
    read_report,
    report_to_payload,
    write_bench,
    write_report,
)
from conftest import SAMPLE_EXPECTED


@pytest.fixture
def sample_report(sample_series, sample_params):
    found, stats = mine(sample_series, sample_params)
    return build_report("sample16", "aop", sample_params, found, stats=stats)


class TestMiningReport:
    def test_golden_content(self, sample_report):
        by_ranks = {entry.ranks: entry for entry in sample_report.patterns}
        assert set(by_ranks) == set(SAMPLE_EXPECTED)
        assert by_ranks[(2, 1, 4, 3)].occurrences == (4, 7, 12, 13)
        assert by_ranks[(2, 1, 4, 3)].support == 4

    def test_round_trip(self, sample_report, tmp_path):
        path = tmp_path / "out.json"
        write_report(sample_report, path)
        assert read_report(path) == sample_report

    def test_round_trip_without_occurrences_or_stats(self, sample_params, tmp_path):
        report = build_report(
            "x",
            "em",
            sample_params,
            [FrequentPattern((1, 2), (1, 5, 9))],
            stats=None,
            include_occurrences=False,
        )
        path = tmp_path / "out.json"
        write_report(report, path)
        back = read_report(path)
        assert back == report
        assert back.patterns[0].occurrences is None
        assert back.stats is None

    def test_write_is_deterministic(self, sample_report, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_report(sample_report, first)
        write_report(sample_report, second)
        assert first.read_bytes() == second.read_bytes()

    def test_wall_time_never_serialized(self, sample_report, tmp_path):
        path = tmp_path / "out.json"
        write_report(sample_report, path)
        assert "wall" not in path.read_text()

    def test_empty_result_keeps_stats(self, sample_params, tmp_path):
        stats = MiningStats()
        stats.count_candidate(2, 2)
        report = build_report("empty", "aop", sample_params, [], stats=stats)
        path = tmp_path / "out.json"
        write_report(report, path)
        payload = json.loads(path.read_text())
        assert payload["patterns"] == []
        assert payload["stats"]["total_candidates"] == 2

    def test_occurrences_dropped_above_limit(self, sample_params):
        huge = FrequentPattern((1, 2), tuple(range(1, 100_002)))
        report = build_report("big", "aop", sample_params, [huge])
        assert report.patterns[0].occurrences is None
        forced = build_report("big", "aop", sample_params, [huge], include_occurrences=True)
        assert forced.patterns[0].occurrences is not None

    @pytest.mark.parametrize(
        "case",
        ["no patterns", "suppressed", "stats null", "name", "2047", "2048", "2049"],
    )
    def test_bytes_equal_json_dump(self, case, sample_report, sample_params, tmp_path):
        # write_report streams the pattern list; the bytes must be exactly
        # those of the standard encoder on the whole payload
        stats = sample_report.stats
        found = [FrequentPattern((1, 2), (1, 5, 9)), FrequentPattern((2, 1, 3), (4,))]
        if case == "no patterns":
            report = build_report("empty", "aop", sample_params, [], stats=stats)
        elif case == "suppressed":
            report = build_report("x", "em", sample_params, found, stats, include_occurrences=False)
        elif case == "stats null":
            report = build_report("x", "aop", sample_params, found, stats=None)
        elif case == "name":
            report = build_report('é "quoted" \\ \u2603', "aop", sample_params, found, stats)
        else:
            long = FrequentPattern((1, 2, 3), tuple(range(3, 3 + int(case))))
            report = build_report("long", "aop", sample_params, [long, *found], stats)
        path = tmp_path / "out.json"
        write_report(report, path)
        expected = json.dumps(report_to_payload(report), indent=2) + "\n"
        assert path.read_text(encoding="utf-8") == expected
        assert read_report(path) == report

    def test_unwritable_path(self, sample_report, tmp_path):
        with pytest.raises(DataError, match="cannot write report"):
            write_report(sample_report, tmp_path / "missing" / "out.json")

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(DataError, match=r"cannot read report .*missing\.json"):
            read_report(tmp_path / "missing.json")

    @pytest.mark.parametrize(
        "case, problem",
        [
            ("no params", "KeyError"),
            ("list", "TypeError"),
            ("negative delta", "ValueError"),
            ("bool delta", "ValueError: delta must be a non-negative integer, got True"),
            ("schema 99", "ValueError: schema_version 99, expected 1"),
            ("no schema", "ValueError: schema_version None, expected 1"),
            ("support off", r"ValueError: support \d+ but \d+ occurrences"),
            ("tied ranks", "ValueError: not a pattern"),
            ("repeated position", "ValueError: occurrences of .* not ascending positions from 1"),
            ("position 0", "ValueError: occurrences of .* not ascending positions from 1"),
            ("string and float ranks", "ValueError: ranks, support and positions of .* integers"),
            ("bool rank", "ValueError: ranks, support and positions of .* integers"),
            ("float positions", "ValueError: ranks, support and positions of .* integers"),
            ("float support", "ValueError: ranks, support and positions of .* integers"),
            ("negative windows", "ValueError: stats counters must be non-negative integers"),
            ("junk windows", "ValueError: stats counters must be non-negative integers"),
            ("junk total", "ValueError: stats counters must be non-negative integers"),
            ("length 1", r"ValueError: candidates_by_length keys must be lengths >= 2: \['1'"),
            ("total off", r"ValueError: total_candidates \d+ is not the sum of"),
            ("number dataset", "ValueError: dataset, algorithm and tool_version must be str"),
            ("negative support", r"ValueError: support -3 of \[1, 2\] is below 1"),
            ("nosuch algorithm", "ValueError: algorithm 'nosuch' is not one of"),
            ("reversed patterns", r"ValueError: patterns not in strictly ascending \(length, r"),
            ("repeated pattern", r"ValueError: patterns not in strictly ascending \(length, r"),
        ],
    )
    def test_json_that_is_not_a_report(self, case, problem, sample_report, tmp_path):
        # write_report writes none of these, so read_report refuses them all
        payload = report_to_payload(sample_report)
        entry, stats = payload["patterns"][0], payload["stats"]
        if case == "no params":
            payload = {"patterns": []}
        elif case == "list":
            payload = [payload]
        elif case == "negative delta":
            payload["params"]["delta"] = -1
        elif case == "bool delta":
            payload["params"]["delta"] = True
        elif case == "schema 99":
            payload["schema_version"] = 99
        elif case == "no schema":
            del payload["schema_version"]
        elif case == "support off":
            entry["support"] += 1
        elif case == "tied ranks":
            entry["ranks"] = [7, 7]
        elif case == "repeated position":
            entry.update(support=3, occurrences=[5, 3, 3])
        elif case == "position 0":
            entry.update(support=2, occurrences=[0, 1])
        elif case == "string and float ranks":
            entry["ranks"] = ["1", 2.7]
        elif case == "bool rank":
            entry["ranks"] = [True, 2]
        elif case == "float positions":
            entry.update(support=3, occurrences=[1.5, 2.5, 3.5])
        elif case == "float support":
            entry["support"] = float(entry["support"])
        elif case == "negative windows":
            stats["matching_windows_tested"] = -5
        elif case == "junk windows":
            stats["matching_windows_tested"] = "junk"
        elif case == "junk total":
            stats["total_candidates"] = "junk"
        elif case == "length 1":
            stats["candidates_by_length"] = {"1": 2, "3": 6}
        elif case == "total off":
            stats["total_candidates"] += 1
        elif case == "negative support":
            del entry["occurrences"]
            entry["support"] = -3
        elif case == "nosuch algorithm":
            payload["algorithm"] = "nosuch"
        elif case == "reversed patterns":
            payload["patterns"].reverse()
        elif case == "repeated pattern":
            payload["patterns"].insert(1, entry)
        else:
            payload["dataset"] = 5
        path = tmp_path / "out.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=f"out.json: not a valid report: {problem}"):
            read_report(path)


class TestBenchTable:
    def fixture_rows(self):
        # the two-pattern candidate-generation fixture: fusion emits 3
        # length-4 candidates where enumeration emits 8
        fused = MiningStats(candidates_generated={4: 3})
        enumerated = MiningStats(candidates_generated={4: 8})
        return [("aop", 11, fused), ("em", 11, enumerated)]

    def test_csv_content(self, tmp_path):
        path = tmp_path / "bench.csv"
        write_bench(self.fixture_rows(), path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["algorithm"] for row in rows] == ["aop", "em"]
        assert rows[0]["total_candidates"] == "3"
        assert rows[1]["total_candidates"] == "8"
        assert rows[0]["candidates_by_length"] == "4:3"

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(DataError, match=r"cannot write bench table .*bench\.csv"):
            write_bench(self.fixture_rows(), tmp_path / "missing" / "bench.csv")

    def test_text_table(self, tmp_path):
        lines = bench_table(self.fixture_rows())
        assert lines[0].split() == list(BENCH_COLUMNS)
        assert [line.split()[:4] for line in lines[2:]] == [
            ["aop", "11", "4:3", "3"],
            ["em", "11", "4:8", "8"],
        ]
        # each column starts where its rule segment does
        rule = " " + lines[1]
        starts = [i for i in range(len(lines[1])) if rule[i : i + 2] == " -"]
        assert len(starts) == len(BENCH_COLUMNS)
        for line in lines[:1] + lines[2:]:
            assert all(line[i] != " " and line[i - 2 : i].strip() == "" for i in starts)
        write_bench(self.fixture_rows(), tmp_path / "bench.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["bench.csv"]

    def test_single_row(self):
        lines = bench_table(self.fixture_rows()[:1])
        assert len(lines) == 3  # header, rule, one row

    def test_real_run_dominance(self, sample_series, sample_params, tmp_path):
        rows = []
        for kind in ("aop", "scan_em"):
            found, stats = mine(sample_series, sample_params, kind)
            rows.append((kind, len(found), stats))
        write_bench(rows, tmp_path / "bench.csv")
        assert rows[0][2].matching_windows_tested < rows[1][2].matching_windows_tested


class TestDocumentedFormats:
    """docs/formats.md lists the bench columns and report keys this module writes."""

    def section(self, heading):
        text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
        return text.split(f"\n## {heading}", 1)[1].split("\n## ", 1)[0]

    def test_documented_bench_columns_are_the_written_columns(self):
        documented = re.findall(r"^\| `(\w+)`", self.section("Bench table"), flags=re.MULTILINE)
        assert documented == list(BENCH_COLUMNS)

    def test_documented_report_keys_are_the_written_keys(self, sample_report):
        example = self.section("Mining report").split("```json\n", 1)[1].split("```", 1)[0]
        documented, written = json.loads(example), report_to_payload(sample_report)
        assert list(documented) == list(written)
        assert list(documented["stats"]) == list(written["stats"])
