"""Rank calculus and the two integer distances it is measured with.

A window of numeric samples is reduced to its rank vector: each element's
rank is one plus the number of strictly smaller elements in the same window.
Two equal-length rank vectors are compared with a per-position bound (delta)
and a total bound (gamma); a window "occurs" for a pattern when both bounds
hold. Everything in this module is a pure function over immutable values.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

RankVector = tuple[int, ...]
Pattern = tuple[int, ...]
OccurrenceSet = tuple[int, ...]


@dataclass(frozen=True)
class TimeSeries:
    """An ordered sequence of finite numeric samples with an optional label."""

    values: tuple[float, ...]
    name: str | None = None

    def __post_init__(self) -> None:
        vals = tuple(map(float, self.values))
        if not all(map(math.isfinite, vals)):
            raise ValueError("non-finite sample")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class MiningParams:
    """Thresholds for one mining run.

    ``delta`` bounds the rank error at any single position, ``gamma`` bounds
    the total rank error over the window, and ``minsup`` is the absolute
    number of occurrences a pattern needs to count as frequent. ``max_len``
    optionally caps the pattern length; by default mining runs until no
    pattern of the next length is frequent.
    """

    delta: int
    gamma: int
    minsup: int
    max_len: int | None = None

    def __post_init__(self) -> None:
        # type(...) is int, not isinstance: bool subclasses int
        if type(self.delta) is not int or self.delta < 0:
            raise ValueError(f"delta must be a non-negative integer, got {self.delta!r}")
        if type(self.gamma) is not int or self.gamma < 0:
            raise ValueError(f"gamma must be a non-negative integer, got {self.gamma!r}")
        if type(self.minsup) is not int or self.minsup < 1:
            raise ValueError(f"minsup must be a positive integer, got {self.minsup!r}")
        if self.max_len is not None and (type(self.max_len) is not int or self.max_len < 1):
            raise ValueError(f"max_len must be a positive integer, got {self.max_len!r}")


@dataclass(frozen=True)
class FrequentPattern:
    """A pattern together with its sorted 1-based occurrence positions."""

    pattern: Pattern
    occurrences: OccurrenceSet

    @property
    def support(self) -> int:
        return len(self.occurrences)


def compute_ranks(window: Sequence[float]) -> RankVector:
    """Rank vector of a window: rank_i = 1 + count of strictly smaller peers.

    Tied values receive equal ranks, so only tie-free windows produce
    permutations of 1..m.
    """
    if len(window) == 0:
        raise ValueError("empty window")
    for v in window:
        if not math.isfinite(v):
            raise ValueError("non-finite sample")
    ordered = sorted(window)
    return tuple(1 + bisect_left(ordered, v) for v in window)


def delta_distance(a: RankVector, b: RankVector) -> int:
    """Largest per-position gap between two equal-length rank vectors."""
    _require_same_length(a, b)
    return max((abs(x - y) for x, y in zip(a, b)), default=0)


def gamma_distance(a: RankVector, b: RankVector) -> int:
    """Total per-position gap between two equal-length rank vectors."""
    _require_same_length(a, b)
    return sum(abs(x - y) for x, y in zip(a, b))


def is_occurrence(pattern: Pattern, window: Sequence[float], params: MiningParams) -> bool:
    """True when the window's rank vector is within both distance bounds."""
    if len(window) != len(pattern):
        raise ValueError(f"length mismatch: window {len(window)} vs pattern {len(pattern)}")
    total = 0
    for x, y in zip(compute_ranks(window), pattern):
        gap = abs(x - y)
        if gap > params.delta:
            return False
        total += gap
    return total <= params.gamma


def scan_occurrences(pattern: Pattern, series: TimeSeries, params: MiningParams) -> OccurrenceSet:
    """All 1-based window starts in the series that match the pattern.

    Overlapping matches all count. A series shorter than the pattern has no
    candidate windows and yields the empty set.
    """
    m = len(pattern)
    vals = series.values
    return tuple(
        t
        for t in range(1, len(vals) - m + 2)
        if is_occurrence(pattern, vals[t - 1 : t - 1 + m], params)
    )


def _require_same_length(a: Sequence[int], b: Sequence[int]) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
