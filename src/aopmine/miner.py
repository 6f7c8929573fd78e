"""The mining engine and its benchmark baseline variants.

Mining proceeds level by level from the two length-2 shapes. Support for a
next-level candidate is narrowed down from its parents' occurrence lists
(screening), skipped entirely when too few candidate positions survive
(pruning), and confirmed against the raw series only for the survivors
(matching). The baseline strategies drop one or more of these devices; each
is one row of ``STRATEGIES``, which sets up the one level loop ``alar``:

* ``aop``        fusion candidates, screened positions, pruning
* ``nopruning``  fusion candidates, screened positions, no early exit
* ``em``         enumeration candidates, prefix-parent positions that fit, pruning
* ``scan_em``    enumeration candidates, every window, no early exit
* ``oracle``     definitional reference miner (see the oracle module)

All variants share the length-2 bootstrap and produce deterministically
sorted output.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional, Sequence

from .core import (
    MiningParams,
    OccurrenceSet,
    Pattern,
    TimeSeries,
)
from .patterns import enumerate_extensions, fuse, fusion_pairs

ALGORITHMS = ("aop", "nopruning", "em", "scan_em", "oracle")

ORACLE_MAX_LEN = 7


@dataclass(frozen=True)
class FrequentPattern:
    """A pattern together with its sorted 1-based occurrence positions."""

    pattern: Pattern
    occurrences: OccurrenceSet

    @property
    def support(self) -> int:
        return len(self.occurrences)


@dataclass
class MiningStats:
    """Counters instrumenting one mining run.

    ``wall_time`` is informational only: it is excluded from determinism
    guarantees and from equality, and it is never written to a report. The
    counters are the reproducible performance proxies.
    """

    candidates_generated: dict[int, int] = field(default_factory=dict)
    matching_windows_tested: int = 0
    patterns_pruned_by_count: int = 0
    wall_time: float = field(default=0.0, compare=False)

    @property
    def total_candidates(self) -> int:
        return sum(self.candidates_generated.values())

    def count_candidate(self, length: int, n: int = 1) -> None:
        self.candidates_generated[length] = self.candidates_generated.get(length, 0) + n


def rank_memo(n: int) -> list[Any]:
    """An empty window-rank memo for ``matching`` over a series of n samples.

    Slot x (1 <= x <= n) will hold the rank vector of the window starting at
    1-based position x; slot 0 holds the dict that interns equal vectors to
    one shared tuple, which keeps a level's memo small.
    """
    return [{}] + [None] * n


def matching(
    candidates: Iterable[int],
    t: Pattern,
    series: TimeSeries,
    params: MiningParams,
    stats: MiningStats | None = None,
    ranks: list[Any] | None = None,
) -> OccurrenceSet:
    """Filter candidate start positions down to true occurrences of ``t``.

    Every candidate is charged to the matching-window counter. A candidate
    whose window would run off the series is a caller bug and raises.

    ``ranks`` is a memo from ``rank_memo(len(series))`` shared by every
    candidate of one pattern length (one level), so each window is ranked
    at most once per level. Its invariant: slot x is ``None`` or the rank
    vector of the length-``len(t)`` window at 1-based start x, so a memo must
    never be reused for another window length. Ranks are computed here
    without ``compute_ranks``'s finiteness check, because ``TimeSeries``
    already rejects non-finite samples. Without a memo, a fresh one is used.
    """
    m = len(t)
    vals = series.values
    last_start = len(vals) - m + 1
    delta, gamma = params.delta, params.gamma
    if ranks is None:
        ranks = rank_memo(len(vals))
    shapes = ranks[0]
    out = []
    tested = 0
    for pos in candidates:
        if not 1 <= pos <= last_start:
            raise ValueError(f"candidate position {pos} out of range for window length {m}")
        tested += 1
        r = ranks[pos]
        if r is None:
            window = vals[pos - 1 : pos - 1 + m]
            ordered = sorted(window)
            r = tuple([1 + bisect_left(ordered, v) for v in window])
            r = ranks[pos] = shapes.setdefault(r, r)
        total = 0
        for x, y in zip(r, t):
            gap = x - y if x > y else y - x
            if gap > delta:
                break
            total += gap
        else:
            if total <= gamma:
                out.append(pos)
    if stats is not None:
        stats.matching_windows_tested += tested
    return tuple(out)


def screen(a_p: OccurrenceSet, a_q: OccurrenceSet) -> OccurrenceSet:
    """Positions x in the first occurrence list with x+1 in the second.

    Both lists are sorted, so one merge pass suffices; the series itself is
    never consulted.
    """
    out = []
    i = j = 0
    while i < len(a_p) and j < len(a_q):
        want = a_p[i] + 1
        if a_q[j] < want:
            j += 1
        elif a_q[j] > want:
            i += 1
        else:
            out.append(a_p[i])
            i += 1
            j += 1
    return tuple(out)


def checking(
    t: Pattern,
    a_p: OccurrenceSet,
    a_q: OccurrenceSet,
    series: TimeSeries,
    params: MiningParams,
    stats: MiningStats | None = None,
    ranks: list[Any] | None = None,
) -> Optional[FrequentPattern]:
    """Decide whether the fused superpattern ``t`` is frequent.

    Candidate positions come from screening the parents' occurrence lists.
    If fewer than minsup survive, the pattern is pruned without touching the
    series; otherwise matching confirms the survivors, through the level's
    rank memo ``ranks`` when one is given.
    """
    if stats is None:
        stats = MiningStats()
    found = _confirm((t,), screen(a_p, a_q), True, series, params, stats, ranks)
    return found[0] if found else None


def _confirm(
    children: Sequence[Pattern],
    positions: Sequence[int],
    prune: bool,
    series: TimeSeries,
    params: MiningParams,
    stats: MiningStats,
    ranks: list[Any] | None,
) -> list[FrequentPattern]:
    """The prune-and-match step for candidates that share candidate positions.

    With ``prune`` set and fewer than minsup positions, every child is counted
    as pruned and the series is not touched; otherwise each child is matched
    at the positions and kept if it reaches minsup.
    """
    if prune and len(positions) < params.minsup:
        stats.patterns_pruned_by_count += len(children)
        return []
    found = []
    for t in children:
        a_t = matching(positions, t, series, params, stats, ranks)
        if len(a_t) >= params.minsup:
            found.append(FrequentPattern(t, a_t))
    return found


CandidateGroups = Iterator[tuple[Sequence[Pattern], Sequence[int]]]


def _fused_screened(level: Sequence[FrequentPattern], n: int) -> CandidateGroups:
    """Fusion candidates; each fusible pair's children share its screened list."""
    by_pattern = {fp.pattern: fp.occurrences for fp in level}
    for p, q in fusion_pairs(by_pattern):
        yield fuse(p, q).produced, screen(by_pattern[p], by_pattern[q])


def _extended_prefix(level: Sequence[FrequentPattern], n: int) -> CandidateGroups:
    """Enumeration candidates at their prefix parent's positions that still fit."""
    for fp in sorted(level, key=lambda f: f.pattern):
        last_start = n - len(fp.pattern)
        yield enumerate_extensions(fp.pattern), tuple(x for x in fp.occurrences if x <= last_start)


def _extended_scan(level: Sequence[FrequentPattern], n: int) -> CandidateGroups:
    """Enumeration candidates at every window of their length."""
    for fp in sorted(level, key=lambda f: f.pattern):
        yield enumerate_extensions(fp.pattern), range(1, n - len(fp.pattern) + 1)


# kind -> (candidates grouped with the positions they share, prune)
STRATEGIES = {
    "aop": (_fused_screened, True),
    "nopruning": (_fused_screened, False),
    "em": (_extended_prefix, True),
    "scan_em": (_extended_scan, False),
}


def alar(
    level: Iterable[FrequentPattern],
    series: TimeSeries,
    params: MiningParams,
    stats: MiningStats | None = None,
    kind: str = "aop",
) -> tuple[FrequentPattern, ...]:
    """Grow the next pattern length from the current frequent set.

    ``kind`` picks a row of ``STRATEGIES``: how candidates are generated, at
    which positions they are tried, and whether too few positions prune them
    before matching. All candidates of the level share one window-rank memo.
    Output is sorted by rank vector.
    """
    if kind not in STRATEGIES:
        raise ValueError(f"no level-growth strategy {kind!r}; expected one of {tuple(STRATEGIES)}")
    if stats is None:
        stats = MiningStats()
    groups, prune = STRATEGIES[kind]
    n = len(series)
    ranks = rank_memo(n)
    found = []
    for children, positions in groups(tuple(level), n):
        stats.count_candidate(len(children[0]), len(children))
        found.extend(_confirm(children, positions, prune, series, params, stats, ranks))
    return tuple(sorted(found, key=lambda fp: fp.pattern))


def mine(
    series: TimeSeries,
    params: MiningParams,
    kind: str = "aop",
) -> tuple[tuple[FrequentPattern, ...], MiningStats]:
    """Mine every frequent pattern of every length from the series.

    Returns the patterns sorted by (length, rank vector) together with the
    run's counters. ``kind`` selects the strategy (see the module docstring);
    ``"oracle"`` delegates to the definitional reference miner and requires
    ``params.max_len`` to be set and at most 7. A series shorter than 2 has
    no windows and yields an empty result.
    """
    if kind not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {kind!r}; expected one of {ALGORITHMS}")
    stats = MiningStats()
    start = time.perf_counter()
    if kind == "oracle":
        found = list(_mine_oracle(series, params, stats))
    else:
        found = []
        max_len = params.max_len
        level = _bootstrap(series, params, stats) if max_len is None or max_len >= 2 else ()
        while level:
            found.extend(level)
            if max_len is not None and len(level[0].pattern) >= max_len:
                break
            level = alar(level, series, params, stats, kind)
    stats.wall_time = time.perf_counter() - start
    return tuple(sorted(found, key=lambda fp: (len(fp.pattern), fp.pattern))), stats


def _bootstrap(
    series: TimeSeries, params: MiningParams, stats: MiningStats
) -> tuple[FrequentPattern, ...]:
    """Level 2: full scan for the ascending and the descending pair shape."""
    n = len(series)
    stats.count_candidate(2, 2)
    found = _confirm(((1, 2), (2, 1)), range(1, n), False, series, params, stats, rank_memo(n))
    return tuple(found)


def _mine_oracle(
    series: TimeSeries, params: MiningParams, stats: MiningStats
) -> tuple[FrequentPattern, ...]:
    # imported lazily: the oracle module depends on this one for its types
    from .oracle import oracle_mine

    if params.max_len is None or params.max_len > ORACLE_MAX_LEN:
        raise ValueError(
            f"oracle intractable: set max_len <= {ORACLE_MAX_LEN} (got {params.max_len!r})"
        )
    found = oracle_mine(series, params, params.max_len)
    n = len(series.values)
    for m in range(2, params.max_len + 1):
        windows = max(0, n - m + 1)
        count = math.factorial(m)
        stats.count_candidate(m, count)
        stats.matching_windows_tested += count * windows
    return found
