"""Tests of the benchmark itself: inputs, recorded results, checks and traces.

Run from the repository root: python3 -m pytest benchmarks -q

The recorded results in expected.json are anchored to the definition here:
for every bank input, the engine's result must have the recorded digest (or
pattern count) and agree with the definitional reference miner on every
pattern up to the workload's ``oracle_len``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import HERE, ROOT, Session, Spawner, _trace_counts
from workloads import (
    BANK,
    WORKLOADS,
    check_output,
    generate,
    load_expected,
    result_digest,
)

sys.path.insert(0, str(ROOT / "src"))

from aopmine import MiningParams, mine, oracle_exact_opp, oracle_mine  # noqa: E402
from aopmine.ingest import DatasetSpec, load_series  # noqa: E402

EXPECTED = load_expected()


def _entries(found):
    return [(fp.pattern, fp.support, fp.occurrences) for fp in found]


def test_inputs_depend_only_on_the_seed_modulo_the_bank():
    w = WORKLOADS["baselines"]
    assert generate(w, 3) == generate(w, 3) == generate(w, 3 + BANK) == generate(w, 3 - BANK)
    assert generate(w, 3) != generate(w, 4)
    assert len(generate(WORKLOADS["long-exact"], 0).splitlines()) == 50_000


@pytest.mark.parametrize("index", range(BANK))
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_recorded_result_matches_the_reference_miner(name, index, tmp_path):
    w = WORKLOADS[name]
    path = tmp_path / "input.txt"
    path.write_text(generate(w, index), encoding="utf-8")
    series = load_series(DatasetSpec(path))
    params = MiningParams(w.delta, w.gamma, w.minsup)
    expected = EXPECTED[name][str(index)]

    found, _ = mine(series, params, "aop")
    if w.command == "mine":
        assert result_digest(_entries(found)) == expected["digest"]
    else:
        assert len(found) == expected["patterns"]
        for kind in ("nopruning", "em"):
            assert _entries(mine(series, params, kind)[0]) == _entries(found), kind

    if w.delta == w.gamma == 0:
        reference = oracle_exact_opp(series, w.minsup, w.oracle_len)
    else:
        reference = oracle_mine(series, params, w.oracle_len)
    short = [fp for fp in found if len(fp.pattern) <= w.oracle_len]
    assert _entries(short) == _entries(reference)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_two_traced_runs_reproduce_the_recorded_counts(name, tmp_path):
    expected = EXPECTED[name]["0"]
    with Spawner() as spawner:
        session = Session(spawner, WORKLOADS[name], 0, tmp_path, expected)
        session.command(traced=True)
        session.command(traced=True)
    assert session.failed == 0
    first, second = (_trace_counts(t) for t in session.traces)
    assert first == second == expected["trace"]
    assert session.counters == expected["counters"]


def test_child_peak_memory_excludes_the_benchmark_process(tmp_path):
    with Spawner() as spawner:
        ballast = bytearray(300 << 20)  # the benchmark's own peak, after the spawner started
        code, _, rss_mb, _ = spawner.run([sys.executable, "-c", "pass"], tmp_path)
        del ballast
    assert code == 0
    assert rss_mb < 100


def _report(path: Path, patterns) -> None:
    items = [{"ranks": r, "support": len(o), "occurrences": o} for r, o in patterns]
    path.write_text(json.dumps({"patterns": items, "stats": None}), encoding="utf-8")


def test_output_check_rejects_a_changed_report(tmp_path):
    w = WORKLOADS["dense-approx"]
    report = tmp_path / "report.json"
    good = [([1, 2], [1, 3, 5]), ([2, 1], [2, 4])]
    _report(report, good)
    expected = {"digest": result_digest((r, len(o), o) for r, o in good)}
    assert check_output(w, report, "", expected)[0] is None
    _report(report, [([1, 2], [1, 3]), ([2, 1], [2, 4])])
    assert check_output(w, report, "", expected)[0] is not None
    report.unlink()
    assert check_output(w, report, "", expected)[0] is not None


def test_output_check_rejects_disagreeing_strategies(tmp_path):
    w = WORKLOADS["baselines"]
    bench = tmp_path / "bench.csv"
    header = "algorithm,patterns,candidates_by_length,total_candidates,matching_windows_tested,patterns_pruned,wall_time_s\n"

    def write(counts):
        rows = "".join(f"{alg},{n},2:2,2,10,0,0.1\n" for alg, n in counts)
        bench.write_text(header + rows, encoding="utf-8")

    write([("aop", 5), ("nopruning", 5), ("em", 5)])
    assert check_output(w, bench, "", {"patterns": 5})[0] is None
    assert check_output(w, bench, "warning: em and aop disagree", {"patterns": 5})[0] is not None
    assert check_output(w, bench, "", {"patterns": 6})[0] is not None
    write([("aop", 5), ("nopruning", 5), ("em", 4)])
    assert check_output(w, bench, "", {"patterns": 5})[0] is not None


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "baselines", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
