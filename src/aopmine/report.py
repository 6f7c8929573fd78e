"""Serializing mining results and benchmark comparisons.

The JSON report schema and the bench CSV schema are documented in
docs/formats.md; any change to them bumps REPORT_SCHEMA_VERSION. Reports
serialize byte-identically for identical runs: key order is fixed and every
value is deterministic. The one timing, bench's ``wall_time_s``, is the caller's.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

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
    list is streamed in that layout rather than encoded: its integers are
    formatted a chunk at a time (``_write_ints``), so no copy of the
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
            "params": {name: getattr(params, name) for name in params._fields},
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
    ).encode("utf-8")
    head, _, tail = rest.partition(b'"patterns": []')
    try:
        with open(path, "wb") as fh:
            fh.write(head + b'"patterns": [')
            for i, fp in enumerate(ordered):
                fh.write((b"," if i else b"") + b'\n    {\n      "ranks": ')
                _write_ints(fh, fp.pattern)
                fh.write(b',\n      "support": %d' % fp.support)
                if include_occurrences:
                    fh.write(b',\n      "occurrences": ')
                    _write_ints(fh, fp.occurrences)
                fh.write(b"\n    }")
            fh.write((b"\n  ]" if ordered else b"]") + tail + b"\n")
    except OSError as exc:
        raise DataError(f"cannot write report {path}: {exc}") from exc


_CHUNK = 2048
# "%d" for each of _CHUNK integers, each but the first after the separator
# indent=2 puts between the items of a pattern entry's list; the first k
# fields are its first 12k - 10 bytes
_INTS = b",\n        ".join([b"%d"] * _CHUNK)


def _write_ints(fh: BinaryIO, values: Sequence[int]) -> None:
    """An integer list laid out as indent=2 does inside a pattern entry; at
    most 2048 positions are formatted at a time, by one bytes ``%`` on a
    prefix of one template."""
    fh.write(b"[")
    for start in range(0, len(values), _CHUNK):
        chunk = tuple(values[start : start + _CHUNK])
        fh.write(b",\n        " if start else b"\n        ")
        fh.write(_INTS[: 12 * len(chunk) - 10] % chunk)
    fh.write(b"\n      ]" if values else b"]")


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
