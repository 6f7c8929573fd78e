from __future__ import annotations

import csv
import json
import random
import re
from pathlib import Path

import pytest

from aopmine import (
    ALGORITHMS,
    FrequentPattern,
    MiningParams,
    MiningStats,
    TimeSeries,
    __version__,
    mine,
)
from aopmine.errors import DataError
from aopmine.report import (
    BENCH_COLUMNS,
    OCCURRENCE_EMIT_LIMIT as LIMIT,
    REPORT_SCHEMA_VERSION,
    bench_table,
    write_bench,
    write_report,
)
from conftest import SAMPLE_EXPECTED, SAMPLE_VALUES, freq_map, random_series


@pytest.fixture
def sample_run(sample_series, sample_params):
    return mine(sample_series, sample_params)


def written(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def expected_payload(dataset, algorithm, params: MiningParams, patterns, stats, occurrences):
    """The documented report of one run, built without the writer's code."""
    entries = []
    for fp in sorted(patterns, key=lambda fp: (len(fp.pattern), fp.pattern)):
        entry = {"ranks": list(fp.pattern), "support": len(fp.occurrences)}
        if occurrences:
            entry["occurrences"] = list(fp.occurrences)
        entries.append(entry)
    by_length = stats.candidates_generated
    return {
        "schema_version": 1,
        "tool_version": __version__,
        "dataset": dataset,
        "algorithm": algorithm,
        "params": {
            "delta": params.delta,
            "gamma": params.gamma,
            "minsup": params.minsup,
            "max_len": params.max_len,
        },
        "patterns": entries,
        "stats": {
            "candidates_by_length": {str(k): by_length[k] for k in sorted(by_length)},
            "total_candidates": sum(by_length.values()),
            "matching_windows_tested": stats.matching_windows_tested,
            "patterns_pruned_by_count": stats.patterns_pruned_by_count,
        },
    }


class TestMiningReport:
    def test_golden_content(self, sample_run, sample_params, tmp_path):
        path = tmp_path / "out.json"
        write_report(path, "sample16", "aop", sample_params, *sample_run)
        by_ranks = {tuple(entry["ranks"]): entry for entry in written(path)["patterns"]}
        assert set(by_ranks) == set(SAMPLE_EXPECTED)
        assert by_ranks[(2, 1, 4, 3)]["occurrences"] == [4, 7, 12, 13]
        assert by_ranks[(2, 1, 4, 3)]["support"] == 4

    def test_write_is_deterministic(self, sample_run, sample_params, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_report(first, "sample16", "aop", sample_params, *sample_run)
        write_report(second, "sample16", "aop", sample_params, *sample_run)
        assert first.read_bytes() == second.read_bytes()

    def test_wall_time_never_serialized(self, sample_run, sample_params, tmp_path):
        path = tmp_path / "out.json"
        write_report(path, "sample16", "aop", sample_params, *sample_run)
        assert "wall" not in path.read_text()

    def test_empty_result_keeps_stats(self, sample_params, tmp_path):
        stats = MiningStats(candidates_generated={2: 2})
        path = tmp_path / "out.json"
        write_report(path, "empty", "aop", sample_params, [], stats)
        payload = written(path)
        assert payload["patterns"] == []
        assert payload["stats"]["total_candidates"] == 2

    def test_occurrences_dropped_above_limit(self, sample_params, tmp_path):
        path = tmp_path / "out.json"
        at_limit = FrequentPattern((1, 2), tuple(range(1, LIMIT + 1)))
        write_report(path, "big", "aop", sample_params, [at_limit], MiningStats())
        assert len(written(path)["patterns"][0]["occurrences"]) == LIMIT
        huge = FrequentPattern((1, 2), tuple(range(1, LIMIT + 2)))
        write_report(path, "big", "aop", sample_params, [huge], MiningStats())
        assert written(path)["patterns"][0] == {"ranks": [1, 2], "support": LIMIT + 1}
        write_report(path, "big", "aop", sample_params, [huge], MiningStats(), True)
        assert len(written(path)["patterns"][0]["occurrences"]) == LIMIT + 1

    @pytest.mark.parametrize(
        "case",
        [
            "no patterns",
            "suppressed",
            "empty stats",
            "name",
            "empty occurrences",
            "7 digits",
            "lists",
            "1",
            "2047",
            "2048",
            "2049",
            "4096",
            "4097",
        ],
    )
    def test_bytes_equal_json_dump(self, case, sample_run, sample_params, tmp_path):
        # write_report streams the pattern list, formatting integers 2048 at a
        # time; the bytes must be exactly those of the standard encoder on the
        # whole payload, at every chunk boundary and for any int sequences
        stats = sample_run[1]
        dataset, algorithm, occurrences = "x", "aop", True
        found = [FrequentPattern((2, 1, 3), (4,)), FrequentPattern((1, 2), (1, 5, 9))]
        if case == "no patterns":
            found = []
        elif case == "suppressed":
            algorithm, occurrences = "em", False
        elif case == "empty stats":
            stats = MiningStats()
        elif case == "name":
            dataset = 'é "quoted" \\ \u2603 "patterns": []'
        elif case == "empty occurrences":
            found.append(FrequentPattern((1, 2, 3), ()))
        elif case == "7 digits":
            found.append(FrequentPattern((1, 2, 3), tuple(range(10**6, 10**6 + 2049))))
        elif case == "lists":
            found.append(FrequentPattern((1, 2, 3), tuple(range(3, 3 + 2049))))
            found = [FrequentPattern(list(fp.pattern), list(fp.occurrences)) for fp in found]
        else:
            found.append(FrequentPattern((1, 2, 3), tuple(range(3, 3 + int(case)))))
        path = tmp_path / "out.json"
        write_report(path, dataset, algorithm, sample_params, found, stats, occurrences)
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert json.loads(text) == expected_payload(
            dataset, algorithm, sample_params, found, stats, occurrences
        )

    def test_unwritable_path(self, sample_run, sample_params, tmp_path):
        with pytest.raises(DataError, match="cannot write report"):
            write_report(
                tmp_path / "missing" / "out.json", "sample16", "aop", sample_params, *sample_run
            )


def _walk(seed: int, n: int) -> TimeSeries:
    rng, level = random.Random(seed), 0.0
    values = []
    for _ in range(n):
        level += rng.gauss(0, 1)
        values.append(level)
    return TimeSeries(values)


# (series, params, algorithm, include_occurrences) of runs whose written
# reports must each hold every documented property below
REPORT_RUNS = {
    "sample16-aop": (TimeSeries(SAMPLE_VALUES), MiningParams(1, 2, 4), "aop", None),
    "walk-exact-em": (_walk(11, 60), MiningParams(0, 0, 3), "em", None),
    "ties-scan_em-suppressed": (
        random_series(random.Random(12), 80, tie_free=False),
        MiningParams(2, 4, 6, max_len=4),
        "scan_em",
        False,
    ),
    "oracle-forced": (
        random_series(random.Random(13), 40),
        MiningParams(1, 1, 3, max_len=3),
        "oracle",
        True,
    ),
}


class TestWrittenReportProperties:
    """Every report the writer produces is a valid report as docs/formats.md
    defines one: the schema header, params, patterns and stats each hold
    their documented constraints, whatever the run."""

    @pytest.fixture(params=list(REPORT_RUNS), scope="class")
    def run(self, request, tmp_path_factory):
        series, params, algorithm, occurrences = REPORT_RUNS[request.param]
        found, stats = mine(series, params, algorithm)
        path = tmp_path_factory.mktemp("report") / "out.json"
        write_report(path, request.param, algorithm, params, found, stats, occurrences)
        return written(path), series, params, found, stats

    def test_header(self, run, request):
        payload = run[0]
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["tool_version"] == __version__
        assert payload["dataset"] == request.node.callspec.params["run"]
        assert payload["algorithm"] in ALGORITHMS

    def test_params_are_the_run_params(self, run):
        payload, _, params, _, _ = run
        expected = {"delta": params.delta, "gamma": params.gamma, "minsup": params.minsup,
                    "max_len": params.max_len}
        assert list(payload["params"].items()) == list(expected.items())
        assert all(type(v) is int and v >= 0 for v in payload["params"].values() if v is not None)

    def test_ranks_are_patterns(self, run):
        for entry in run[0]["patterns"]:
            ranks = entry["ranks"]
            assert all(type(v) is int for v in ranks)  # not bool, not float
            assert len(ranks) >= 2 and sorted(ranks) == list(range(1, len(ranks) + 1))

    def test_support_counts_the_occurrences(self, run):
        payload, _, params, _, _ = run
        for entry in payload["patterns"]:
            assert type(entry["support"]) is int and entry["support"] >= params.minsup
            if "occurrences" in entry:
                assert entry["support"] == len(entry["occurrences"])

    def test_occurrences_are_window_starts_in_ascending_order(self, run):
        payload, series, _, _, _ = run
        for entry in payload["patterns"]:
            positions = entry.get("occurrences", [])
            assert all(type(p) is int for p in positions)
            assert positions == sorted(set(positions))
            last_start = len(series) - len(entry["ranks"]) + 1
            assert all(1 <= p <= last_start for p in positions)

    def test_patterns_in_strictly_ascending_length_rank_order(self, run):
        keys = [(len(entry["ranks"]), entry["ranks"]) for entry in run[0]["patterns"]]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_stats_are_the_run_counters(self, run):
        stats_payload, stats = run[0]["stats"], run[4]
        by_length = stats_payload["candidates_by_length"]
        assert [int(k) for k in by_length] == sorted(stats.candidates_generated)
        assert all(int(k) >= 2 for k in by_length)
        assert stats_payload["total_candidates"] == sum(by_length.values())
        assert stats_payload["matching_windows_tested"] == stats.matching_windows_tested
        assert stats_payload["patterns_pruned_by_count"] == stats.patterns_pruned_by_count
        counters = [*by_length.values(), *list(stats_payload.values())[1:]]
        assert all(type(v) is int and v >= 0 for v in counters)

    def test_patterns_are_the_mined_set(self, run):
        payload, _, _, found, _ = run
        assert found, "a run that finds nothing checks no entry"
        if "occurrences" in payload["patterns"][0]:
            by_ranks = {tuple(e["ranks"]): tuple(e["occurrences"]) for e in payload["patterns"]}
            assert by_ranks == {k: tuple(v) for k, v in freq_map(found).items()}
        else:
            by_ranks = {tuple(e["ranks"]): e["support"] for e in payload["patterns"]}
            assert by_ranks == {fp.pattern: fp.support for fp in found}


class TestBenchTable:
    def fixture_rows(self):
        # the two-pattern candidate-generation fixture: fusion emits 3
        # length-4 candidates where enumeration emits 8
        fused = MiningStats(candidates_generated={4: 3})
        enumerated = MiningStats(candidates_generated={4: 8})
        return [("aop", 11, fused, 0.25), ("em", 11, enumerated, 1.5)]

    def test_csv_content(self, tmp_path):
        path = tmp_path / "bench.csv"
        write_bench(self.fixture_rows(), path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["algorithm"] for row in rows] == ["aop", "em"]
        assert rows[0]["total_candidates"] == "3"
        assert rows[1]["total_candidates"] == "8"
        assert rows[0]["candidates_by_length"] == "4:3"
        assert [row["wall_time_s"] for row in rows] == ["0.250000", "1.500000"]

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
            rows.append((kind, len(found), stats, 0.0))
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

    def test_documented_report_keys_are_the_written_keys(self, sample_run, sample_params, tmp_path):
        example = self.section("Mining report").split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "out.json"
        write_report(path, "sample16", "aop", sample_params, *sample_run)
        documented, payload = json.loads(example), written(path)
        assert list(documented) == list(payload)
        for key in ("params", "stats"):
            assert list(documented[key]) == list(payload[key])
        assert list(documented["patterns"][0]) == list(payload["patterns"][0])
