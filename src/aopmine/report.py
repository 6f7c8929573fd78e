"""Serializing mining results and benchmark comparisons.

The JSON report schema and the bench CSV schema are documented in
docs/formats.md; any change to them bumps REPORT_SCHEMA_VERSION. Reports
serialize byte-identically for identical runs: key order is fixed and every
value is deterministic. The one timing, bench's ``wall_time_s``, is the caller's.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from . import __version__
from .core import FrequentPattern, MiningParams
from .errors import DataError
from .miner import MiningStats

REPORT_SCHEMA_VERSION = 1

# above this many total positions, occurrence lists are dropped from reports
# unless explicitly requested
OCCURRENCE_EMIT_LIMIT = 100_000

BENCH_COLUMNS = (
    "algorithm",
    "patterns",
    "candidates_by_length",
    "total_candidates",
    "matching_windows_tested",
    "patterns_pruned",
    "wall_time_s",
)


def write_report(
    path: str | Path,
    dataset: str,
    algorithm: str,
    params: MiningParams,
    patterns: Sequence[FrequentPattern],
    stats: MiningStats,
    include_occurrences: bool | None = None,
) -> None:
    """Write one mining run as JSON; identical runs produce identical bytes.

    Patterns are written sorted by (length, ranks). ``include_occurrences=None``
    applies the automatic cutoff: position lists are kept unless they total
    more than OCCURRENCE_EMIT_LIMIT. The bytes are those of ``json.dump`` with
    ``indent=2`` of the documented payload, plus a newline, but the pattern
    list is streamed in that layout rather than encoded, so no copy of the
    occurrence lists is built.
    """
    path = Path(path)
    if include_occurrences is None:
        include_occurrences = sum(fp.support for fp in patterns) <= OCCURRENCE_EMIT_LIMIT
    ordered = sorted(patterns, key=lambda fp: (len(fp.pattern), fp.pattern))
    rest = json.dumps(
        {
            "schema_version": REPORT_SCHEMA_VERSION,
            "tool_version": __version__,
            "dataset": dataset,
            "algorithm": algorithm,
            "params": asdict(params),
            "patterns": [],
            "stats": {
                "candidates_by_length": {
                    str(length): count
                    for length, count in sorted(stats.candidates_generated.items())
                },
                "total_candidates": stats.total_candidates,
                "matching_windows_tested": stats.matching_windows_tested,
                "patterns_pruned_by_count": stats.patterns_pruned_by_count,
            },
        },
        indent=2,
    )
    head, _, tail = rest.partition('"patterns": []')
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(head + '"patterns": [')
            for i, fp in enumerate(ordered):
                fh.write(("," if i else "") + '\n    {\n      "ranks": ')
                _write_ints(fh, fp.pattern)
                fh.write(f',\n      "support": {fp.support}')
                if include_occurrences:
                    fh.write(',\n      "occurrences": ')
                    _write_ints(fh, fp.occurrences)
                fh.write("\n    }")
            fh.write(("\n  ]" if ordered else "]") + tail + "\n")
    except OSError as exc:
        raise DataError(f"cannot write report {path}: {exc}") from exc


def _write_ints(fh: TextIO, values: Sequence[int]) -> None:
    """An integer list laid out as indent=2 does inside a pattern entry; at
    most 2048 positions are joined into one string at a time."""
    fh.write("[")
    for start in range(0, len(values), 2048):
        chunk = values[start : start + 2048]
        fh.write(",\n        " if start else "\n        ")
        fh.write(",\n        ".join(map(str, chunk)))
    fh.write("\n      ]" if values else "]")


def write_bench(rows: Iterable[tuple[str, int, MiningStats, float]], path: str | Path) -> None:
    """Write the benchmark table as CSV, one row per algorithm.

    Each row is (algorithm, pattern count, one run's stats, mean seconds per run).
    """
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(BENCH_COLUMNS)
            for row in rows:
                writer.writerow(_bench_cells(*row))
    except OSError as exc:
        raise DataError(f"cannot write bench table {path}: {exc}") from exc


def bench_table(rows: Iterable[tuple[str, int, MiningStats, float]]) -> list[str]:
    """The bench CSV's cells as aligned text lines: header, rule, one per row."""
    cells = [list(BENCH_COLUMNS)] + [_bench_cells(*row) for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(BENCH_COLUMNS))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return lines


def _bench_cells(algorithm: str, patterns: int, stats: MiningStats, seconds: float) -> list[str]:
    by_length = " ".join(
        f"{length}:{count}" for length, count in sorted(stats.candidates_generated.items())
    )
    return [
        algorithm,
        str(patterns),
        by_length,
        str(stats.total_candidates),
        str(stats.matching_windows_tested),
        str(stats.patterns_pruned_by_count),
        f"{seconds:.6f}",
    ]
