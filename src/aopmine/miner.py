"""The mining engine and its benchmark baseline variants.

Mining proceeds level by level from the two length-2 shapes. Support for a
next-level candidate is narrowed down from its parents' occurrence lists
(screening), skipped entirely when too few candidate positions survive
(pruning), and confirmed against the raw series only for the survivors
(matching). The baseline strategies drop one or more of these devices:

* ``aop``        fusion candidates, screening, pruning
* ``nopruning``  fusion candidates, screening, no early exit
* ``em``         enumeration candidates, prefix-parent screening, pruning
* ``scan_em``    enumeration candidates, full window scan per candidate
* ``oracle``     definitional reference miner (see the oracle module)

All variants share the length-2 bootstrap, produce deterministically sorted
output, and are safe to run with any worker count.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

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

    ``wall_time`` is informational only and excluded from determinism
    guarantees; the counters are the reproducible performance proxies.
    """

    candidates_generated: dict[int, int] = field(default_factory=dict)
    matching_windows_tested: int = 0
    patterns_pruned_by_count: int = 0
    wall_time: float = 0.0

    @property
    def total_candidates(self) -> int:
        return sum(self.candidates_generated.values())

    def count_candidate(self, length: int, n: int = 1) -> None:
        self.candidates_generated[length] = self.candidates_generated.get(length, 0) + n

    def merge(self, other: "MiningStats") -> None:
        for length, n in other.candidates_generated.items():
            self.count_candidate(length, n)
        self.matching_windows_tested += other.matching_windows_tested
        self.patterns_pruned_by_count += other.patterns_pruned_by_count


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
    never be reused for another window length. Threads may share one memo:
    a slot is only ever written with an equal value. Ranks are computed here
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
    c_t = screen(a_p, a_q)
    if len(c_t) < params.minsup:
        if stats is not None:
            stats.patterns_pruned_by_count += 1
        return None
    a_t = matching(c_t, t, series, params, stats, ranks)
    if len(a_t) < params.minsup:
        return None
    return FrequentPattern(t, a_t)


def mine_variant_support(
    t: Pattern,
    parent_occurrences: OccurrenceSet | None,
    series: TimeSeries,
    params: MiningParams,
    kind: str,
    stats: MiningStats | None = None,
    ranks: list[Any] | None = None,
) -> Optional[FrequentPattern]:
    """Support computation for the baseline strategies (``kind != "aop"``).

    ``parent_occurrences`` means different things per kind: for ``em`` it is
    the prefix parent's occurrence list (narrowed to positions whose longer
    window still fits, then subject to pruning); for ``nopruning`` it is the
    already-screened candidate list, matched unconditionally; ``scan_em``
    ignores it and rescans every window. ``ranks`` is the level's rank memo,
    passed on to ``matching``.
    """
    last_start = len(series.values) - len(t) + 1
    if kind in ("em", "nopruning") and parent_occurrences is None:
        raise ValueError(f"kind {kind!r} needs parent_occurrences")
    if kind == "em":
        c_t: Sequence[int] = tuple(x for x in parent_occurrences if x <= last_start)
        if len(c_t) < params.minsup:
            if stats is not None:
                stats.patterns_pruned_by_count += 1
            return None
    elif kind == "nopruning":
        c_t = parent_occurrences
    elif kind == "scan_em":
        c_t = range(1, last_start + 1)
    else:
        raise ValueError(f"unsupported variant kind: {kind!r}")
    a_t = matching(c_t, t, series, params, stats, ranks)
    if len(a_t) < params.minsup:
        return None
    return FrequentPattern(t, a_t)


def alar(
    frequent: Iterable[FrequentPattern],
    series: TimeSeries,
    params: MiningParams,
    stats: MiningStats | None = None,
    threads: int = 1,
) -> tuple[FrequentPattern, ...]:
    """Grow the next pattern length from the current frequent set.

    Every fusible ordered pair of frequent patterns (self-pairs included)
    contributes its fused superpatterns; each candidate is screened, possibly
    pruned, and matched, all candidates sharing one window-rank memo. Output
    is sorted by rank vector.
    """
    if stats is None:
        stats = MiningStats()
    by_pattern = {fp.pattern: fp.occurrences for fp in frequent}
    tasks = []
    for p, q in fusion_pairs(by_pattern):
        for t in fuse(p, q).produced:
            stats.count_candidate(len(t))
            tasks.append((t, by_pattern[p], by_pattern[q]))
    ranks = rank_memo(len(series))
    found = _run_tasks(
        tasks,
        lambda task, local: checking(task[0], task[1], task[2], series, params, local, ranks),
        stats,
        threads,
    )
    return tuple(sorted(found, key=lambda fp: fp.pattern))


def mine(
    series: TimeSeries,
    params: MiningParams,
    kind: str = "aop",
    threads: int = 1,
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
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    stats = MiningStats()
    start = time.perf_counter()

    if kind == "oracle":
        found = _mine_oracle(series, params, stats)
        stats.wall_time = time.perf_counter() - start
        return found, stats

    all_found: list[FrequentPattern] = []
    max_len = params.max_len
    level = _bootstrap(series, params, stats) if max_len is None or max_len >= 2 else ()
    all_found.extend(level)
    m = 2
    while level and (max_len is None or m < max_len):
        if kind == "aop":
            level = alar(level, series, params, stats, threads)
        elif kind == "nopruning":
            level = _grow_fusion_nopruning(level, series, params, stats, threads)
        else:
            level = _grow_enumeration(level, series, params, stats, threads, kind)
        all_found.extend(level)
        m += 1

    stats.wall_time = time.perf_counter() - start
    return tuple(sorted(all_found, key=lambda fp: (len(fp.pattern), fp.pattern))), stats


def _bootstrap(
    series: TimeSeries, params: MiningParams, stats: MiningStats
) -> tuple[FrequentPattern, ...]:
    """Level 2: full scan for the ascending and the descending pair shape."""
    n = len(series.values)
    ranks = rank_memo(n)
    found = []
    for pat in ((1, 2), (2, 1)):
        stats.count_candidate(2)
        occs = matching(range(1, n), pat, series, params, stats, ranks)
        if len(occs) >= params.minsup:
            found.append(FrequentPattern(pat, occs))
    return tuple(found)


def _grow_fusion_nopruning(
    frequent: Sequence[FrequentPattern],
    series: TimeSeries,
    params: MiningParams,
    stats: MiningStats,
    threads: int,
) -> tuple[FrequentPattern, ...]:
    by_pattern = {fp.pattern: fp.occurrences for fp in frequent}
    tasks = []
    for p, q in fusion_pairs(by_pattern):
        screened = screen(by_pattern[p], by_pattern[q])
        for t in fuse(p, q).produced:
            stats.count_candidate(len(t))
            tasks.append((t, screened))
    ranks = rank_memo(len(series))
    found = _run_tasks(
        tasks,
        lambda task, local: mine_variant_support(
            task[0], task[1], series, params, "nopruning", local, ranks
        ),
        stats,
        threads,
    )
    return tuple(sorted(found, key=lambda fp: fp.pattern))


def _grow_enumeration(
    frequent: Sequence[FrequentPattern],
    series: TimeSeries,
    params: MiningParams,
    stats: MiningStats,
    threads: int,
    kind: str,
) -> tuple[FrequentPattern, ...]:
    tasks = []
    for fp in sorted(frequent, key=lambda f: f.pattern):
        for t in enumerate_extensions(fp.pattern):
            stats.count_candidate(len(t))
            tasks.append((t, fp.occurrences))
    ranks = rank_memo(len(series))
    found = _run_tasks(
        tasks,
        lambda task, local: mine_variant_support(
            task[0], task[1], series, params, kind, local, ranks
        ),
        stats,
        threads,
    )
    return tuple(sorted(found, key=lambda fp: fp.pattern))


def _run_tasks(
    tasks: Sequence[tuple],
    fn: Callable[[tuple, MiningStats], Optional[FrequentPattern]],
    stats: MiningStats,
    threads: int,
) -> list[FrequentPattern]:
    """Evaluate candidate tasks, sequentially or on a thread pool.

    Each task runs against its own counter set and the deltas merge in task
    order, so results and stats are identical for any worker count.
    """

    def run(task: tuple) -> tuple[Optional[FrequentPattern], MiningStats]:
        local = MiningStats()
        return fn(task, local), local

    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run, tasks))
    else:
        outcomes = [run(task) for task in tasks]

    found = []
    for result, local in outcomes:
        stats.merge(local)
        if result is not None:
            found.append(result)
    return found


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
