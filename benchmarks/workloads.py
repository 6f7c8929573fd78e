"""Workload definitions, seeded input generators and output checks.

Every workload runs the real ``aopmine`` CLI on a synthetic series. The
series is generated from a seed and written to a plain-text file before any
timing starts, so the program only ever sees the file. The paper's real
datasets (oil, stock, air quality) are not used: they need downloads, and
they wait until their files are in the repository.

``--seed n`` selects input ``n % BANK`` of the workload. Each of the BANK
inputs has its expected result recorded in ``expected.json`` (written by
``record.py``), so every timed run can be checked against a recorded digest
whatever seed it is given.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

BANK = 10
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass(frozen=True)
class Workload:
    name: str
    series: str  # "walk": Gaussian random walk; "tri": uniform over {1, 2, 3}
    n: int
    delta: int
    gamma: int
    minsup: int
    command: str  # "mine" or "bench"
    oracle_len: int  # lengths the benchmark's tests compare against the oracle


# Why each workload was chosen is stated in BENCHMARK.json. Each command
# takes 1 to 2 s, so that a run holds a few dozen of them (see run.py).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-approx", "walk", 800, 2, 4, 20, "mine", 5),
        Workload("long-exact", "walk", 50_000, 0, 0, 500, "mine", 7),
        Workload("baselines", "tri", 5_000, 1, 2, 50, "bench", 5),
    )
}

BENCH_ALGORITHMS = "aop,nopruning,em"


def generate(workload: Workload, seed: int) -> str:
    """The workload's input file text for a seed; equal seeds give equal text."""
    rng = random.Random(seed % BANK)
    if workload.series == "walk":
        x = 0.0
        lines = []
        for _ in range(workload.n):
            x += rng.gauss(0.0, 1.0)
            lines.append(f"{x:.4f}")
    else:
        lines = [str(rng.randint(1, 3)) for _ in range(workload.n)]
    return "\n".join(lines) + "\n"


def cli_args(workload: Workload, input_path: Path, output_path: Path) -> list[str]:
    """Arguments of the one CLI command a workload times."""
    args = [
        workload.command,
        "--input", str(input_path),
        "--delta", str(workload.delta),
        "--gamma", str(workload.gamma),
        "--minsup", str(workload.minsup),
        "--threads", "1",
        "--output", str(output_path),
    ]
    if workload.command == "mine":
        return args + ["--occurrences"]
    return args + ["--algorithms", BENCH_ALGORITHMS, "--repeat", "1"]


def result_digest(entries) -> str:
    """SHA-256 over every (pattern, support, occurrence list), in the given order."""
    h = hashlib.sha256()
    for ranks, support, occurrences in entries:
        h.update(json.dumps([list(ranks), support, list(occurrences)]).encode())
        h.update(b"\n")
    return h.hexdigest()


def read_report(path: Path) -> tuple[str, int, dict]:
    """Digest, pattern count and counters of a ``mine --occurrences`` report.

    Raises ValueError when an entry is missing its occurrence list or its
    support disagrees with the list's length.
    """
    payload = json.loads(path.read_text(encoding="utf-8"))
    entries = []
    for item in payload["patterns"]:
        occurrences = item.get("occurrences")
        if occurrences is None or len(occurrences) != item["support"]:
            raise ValueError(f"pattern {item['ranks']}: bad occurrence list")
        entries.append((item["ranks"], item["support"], occurrences))
    stats = payload["stats"] or {}
    counters = {
        key: stats.get(key)
        for key in ("candidates_by_length", "matching_windows_tested", "patterns_pruned_by_count")
    }
    return result_digest(entries), len(entries), counters


def read_bench(path: Path) -> tuple[dict[str, int], dict]:
    """Per-algorithm pattern counts and counters from a bench CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    counts = {row["algorithm"]: int(row["patterns"]) for row in rows}
    counters = {
        row["algorithm"]: {
            "candidates_by_length": row["candidates_by_length"],
            "matching_windows_tested": int(row["matching_windows_tested"]),
            "patterns_pruned": int(row["patterns_pruned"]),
        }
        for row in rows
    }
    return counts, counters


def check_output(workload: Workload, output: Path, stderr: str, expected: dict) -> tuple[str | None, dict]:
    """Check one command's output against the recorded result.

    Returns an error message (None when the output is correct) and the
    deterministic counters the output reports.
    """
    if not output.is_file():
        return f"no output file {output.name}", {}
    try:
        if workload.command == "mine":
            digest, patterns, counters = read_report(output)
        else:
            counts, counters = read_bench(output)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable {output.name}: {exc}", {}
    if workload.command == "mine":
        if digest != expected["digest"]:
            return f"report digest {digest[:12]} != recorded {expected['digest'][:12]} ({patterns} patterns)", counters
    elif "disagree" in stderr:
        return "bench warned that strategies disagree", counters
    elif sorted(counts) != sorted(BENCH_ALGORITHMS.split(",")):
        return f"bench rows {sorted(counts)} != {BENCH_ALGORITHMS}", counters
    elif set(counts.values()) != {expected["patterns"]}:
        return f"pattern counts {counts} != recorded {expected['patterns']}", counters
    return None, counters


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
