"""Serializing mining results and benchmark comparisons.

The JSON report schema and the bench CSV schema are documented in
docs/formats.md; any change to them bumps REPORT_SCHEMA_VERSION. Reports
serialize byte-identically for identical runs: key order is fixed and wall
time stays out of the JSON (it is hardware noise, not a result).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, replace
from operator import lt
from pathlib import Path
from typing import Any, Iterable, Sequence, TextIO

from . import __version__
from .core import FrequentPattern, MiningParams, OccurrenceSet, Pattern, validate_pattern
from .errors import DataError
from .miner import ALGORITHMS, MiningStats

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


@dataclass(frozen=True)
class PatternEntry:
    ranks: Pattern
    support: int
    occurrences: OccurrenceSet | None = None


@dataclass(frozen=True)
class MiningReport:
    dataset: str
    algorithm: str
    params: MiningParams
    patterns: tuple[PatternEntry, ...]
    stats: MiningStats | None
    tool_version: str


def build_report(
    dataset: str,
    algorithm: str,
    params: MiningParams,
    patterns: Sequence[FrequentPattern],
    stats: MiningStats | None = None,
    include_occurrences: bool | None = None,
) -> MiningReport:
    """Assemble the serializable record of one mining run.

    ``include_occurrences=None`` applies the automatic cutoff: position lists
    are kept unless they total more than OCCURRENCE_EMIT_LIMIT.
    """
    if include_occurrences is None:
        include_occurrences = sum(fp.support for fp in patterns) <= OCCURRENCE_EMIT_LIMIT
    entries = tuple(
        PatternEntry(
            ranks=fp.pattern,
            support=fp.support,
            occurrences=fp.occurrences if include_occurrences else None,
        )
        for fp in sorted(patterns, key=lambda fp: (len(fp.pattern), fp.pattern))
    )
    return MiningReport(
        dataset=dataset,
        algorithm=algorithm,
        params=params,
        patterns=entries,
        stats=stats,
        tool_version=__version__,
    )


def report_to_payload(report: MiningReport) -> dict[str, Any]:
    """The report as a JSON-ready dict with a fixed, documented key order."""
    patterns = []
    for entry in report.patterns:
        item: dict[str, Any] = {"ranks": list(entry.ranks), "support": entry.support}
        if entry.occurrences is not None:
            item["occurrences"] = list(entry.occurrences)
        patterns.append(item)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool_version": report.tool_version,
        "dataset": report.dataset,
        "algorithm": report.algorithm,
        "params": asdict(report.params),
        "patterns": patterns,
        "stats": _stats_payload(report.stats) if report.stats is not None else None,
    }


def _stats_payload(stats: MiningStats) -> dict[str, Any]:
    """A run's counters as they appear in a report; wall time is left out so
    repeated runs serialize byte-identically."""
    return {
        "candidates_by_length": {
            str(length): count for length, count in sorted(stats.candidates_generated.items())
        },
        "total_candidates": stats.total_candidates,
        "matching_windows_tested": stats.matching_windows_tested,
        "patterns_pruned_by_count": stats.patterns_pruned_by_count,
    }


def write_report(report: MiningReport, path: str | Path) -> None:
    """Write the report as JSON; identical reports produce identical bytes.

    The bytes are those of ``json.dump(report_to_payload(report), fh,
    indent=2)`` plus a newline, but the pattern list is streamed in that
    layout rather than encoded, so no copy of the occurrence lists is built.
    """
    path = Path(path)
    rest = json.dumps(report_to_payload(replace(report, patterns=())), indent=2)
    head, _, tail = rest.partition('"patterns": []')
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(head + '"patterns": [')
            for i, entry in enumerate(report.patterns):
                fh.write(("," if i else "") + '\n    {\n      "ranks": ')
                _write_ints(fh, entry.ranks)
                fh.write(f',\n      "support": {entry.support}')
                if entry.occurrences is not None:
                    fh.write(',\n      "occurrences": ')
                    _write_ints(fh, entry.occurrences)
                fh.write("\n    }")
            fh.write(("\n  ]" if report.patterns else "]") + tail + "\n")
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


def read_report(path: str | Path) -> MiningReport:
    """Parse a report file back into the in-memory value it came from.

    A file that cannot be read, or does not hold a report of this
    REPORT_SCHEMA_VERSION that ``write_report`` could have written, raises
    DataError naming the file.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        params, stats = payload["params"], payload.get("stats")
        version = payload.get("schema_version")
        if version != REPORT_SCHEMA_VERSION:
            raise ValueError(f"schema_version {version!r}, expected {REPORT_SCHEMA_VERSION}")
        names = [payload[key] for key in ("dataset", "algorithm", "tool_version")]
        if not all(type(name) is str for name in names):
            raise ValueError(f"dataset, algorithm and tool_version must be strings: {names!r}")
        if payload["algorithm"] not in ALGORITHMS:
            raise ValueError(f"algorithm {payload['algorithm']!r} is not one of {ALGORITHMS}")
        entries = tuple(map(_read_entry, payload["patterns"]))
        keys = [(len(entry.ranks), entry.ranks) for entry in entries]
        if not all(map(lt, keys, keys[1:])):
            raise ValueError("patterns not in strictly ascending (length, ranks) order")
        return MiningReport(
            dataset=payload["dataset"],
            algorithm=payload["algorithm"],
            params=MiningParams(**params),
            patterns=entries,
            stats=_read_stats(stats) if stats is not None else None,
            tool_version=payload["tool_version"],
        )
    except OSError as exc:
        raise DataError(f"cannot read report {path}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: not a valid report: {type(exc).__name__}: {exc}") from exc


def _read_entry(item: dict[str, Any]) -> PatternEntry:
    """One report entry; ValueError unless ``write_report`` could have written it."""
    ranks, support = item["ranks"], item["support"]
    occurrences = tuple(item["occurrences"]) if "occurrences" in item else None
    if not all(type(v) is int for v in (*ranks, support, *(occurrences or ()))):
        raise ValueError(f"ranks, support and positions of {ranks!r} must be integers")
    ranks = validate_pattern(ranks)
    if support < 1:
        raise ValueError(f"support {support} of {list(ranks)} is below 1")
    if occurrences is not None and len(occurrences) != support:
        raise ValueError(f"support {support!r} but {len(occurrences)} occurrences")
    if occurrences is not None and not all(map(lt, (0, *occurrences), occurrences)):
        raise ValueError(f"occurrences of {list(ranks)} not ascending positions from 1")
    return PatternEntry(ranks, support, occurrences)


def _read_stats(stats: dict[str, Any]) -> MiningStats:
    """A report's counters; ValueError unless ``write_report`` could have written them."""
    by_length = stats["candidates_by_length"]
    total = stats["total_candidates"]
    windows, pruned = stats["matching_windows_tested"], stats["patterns_pruned_by_count"]
    if not all(type(v) is int and v >= 0 for v in (*by_length.values(), total, windows, pruned)):
        raise ValueError(f"stats counters must be non-negative integers: {stats!r}")
    if any(str(int(k)) != k or int(k) < 2 for k in by_length):
        raise ValueError(f"candidates_by_length keys must be lengths >= 2: {list(by_length)!r}")
    if total != sum(by_length.values()):
        raise ValueError(f"total_candidates {total} is not the sum of candidates_by_length")
    return MiningStats({int(k): v for k, v in by_length.items()}, windows, pruned)


def write_bench(rows: Iterable[tuple[str, int, MiningStats]], path: str | Path) -> None:
    """Write the benchmark table as CSV, one row per algorithm.

    Each row is (algorithm, pattern count, that run's stats).
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


def bench_table(rows: Iterable[tuple[str, int, MiningStats]]) -> list[str]:
    """The bench CSV's cells as aligned text lines: header, rule, one per row."""
    cells = [list(BENCH_COLUMNS)] + [_bench_cells(*row) for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(BENCH_COLUMNS))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return lines


def _bench_cells(algorithm: str, pattern_count: int, stats: MiningStats) -> list[str]:
    by_length = " ".join(
        f"{length}:{count}" for length, count in sorted(stats.candidates_generated.items())
    )
    return [
        algorithm,
        str(pattern_count),
        by_length,
        str(stats.total_candidates),
        str(stats.matching_windows_tested),
        str(stats.patterns_pruned_by_count),
        f"{stats.wall_time:.6f}",
    ]
