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
from bisect import bisect_right
from collections import deque
from functools import cache
from itertools import compress, islice, repeat
from operator import getitem, gt, itemgetter, lt, not_, setitem, sub
from typing import Iterable, Iterator, Optional, Sequence

from .core import FrequentPattern, MiningParams, OccurrenceSet, Pattern, RankVector, Record
from .core import TimeSeries, compute_ranks
from .oracle import oracle_mine
from .patterns import enumerate_extensions, fuse, fusion_pairs

RankMemo = tuple[list, Optional[list], dict]  # (shapes, shorter, composition key -> shape)


class MiningStats(Record):
    """The deterministic counters of one mining run: equal inputs give equal stats
    on any hardware. ``_confirm`` charges every candidate group to them (the oracle
    miner sets its own); no clock is read, and ``bench`` times each ``mine`` call.
    The one mutable record, so it has no hash; each gets its own
    ``candidates_generated`` dict unless one is given."""

    __slots__ = ("candidates_generated", "matching_windows_tested", "patterns_pruned_by_count")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(
        self,
        candidates_generated: dict[int, int] | None = None,
        matching_windows_tested: int = 0,
        patterns_pruned_by_count: int = 0,
    ) -> None:
        self._fill(
            {} if candidates_generated is None else candidates_generated,
            matching_windows_tested,
            patterns_pruned_by_count,
        )

    @property
    def total_candidates(self) -> int:
        return sum(self.candidates_generated.values())


def rank_memo(n: int, shorter: list | None = None) -> RankMemo:
    """An empty rank memo ``(shapes, shorter, composed)`` of one window length over n
    samples, for ``_shape_index``. Slot x (1 <= x <= n) of ``shapes`` will hold the rank
    vector of the window at 1-based position x. ``shorter`` is the ``shapes`` of the
    windows one sample shorter (or None), so no memo keeps an older one alive. ``composed``
    maps each composition key to the shape it determines (see ``_shape_index``)."""
    return [None] * (n + 1), shorter, {}


def matching(
    candidates: Iterable[int],
    t: Pattern,
    series: TimeSeries,
    params: MiningParams,
    *,
    screened: bool = False,
    index: tuple[tuple[RankVector, ...], list[RankVector]] | None = None,
    ends: tuple[Sequence[float], Sequence[float]] | None = None,
) -> OccurrenceSet:
    """Filter ascending candidate start positions down to true occurrences of ``t``.

    A pure function: it charges no counter (``_confirm`` does). Candidates
    must be in ascending order, as screened lists, ranges and fitting prefix
    positions are, so only the first and the last are checked: a window that
    would run off the series is a caller bug and raises.

    ``index`` is ``_shape_index`` of these candidates (each one's shape, and
    the distinct shapes), shared by the children of one candidate group (see
    ``_confirm``): a child tests its fit once per distinct shape, by cost
    table (docs/lemmas.md), and keeps its candidates in one pass. When every
    distinct shape fits, the result is ``tuple(candidates)``, which for a tuple
    is the argument itself, so it shares its position objects. Without an
    index, one is built from a fresh rank memo.

    Set ``screened`` only when ``prefixorder(t)`` occurs exactly at every
    candidate x and ``suffixorder(t)`` exactly at x+1, as screening exact
    occurrence lists guarantees; it is trusted only when δ = 0. Then every
    window's shape is t when |t_1 - t_m| != 1, and otherwise t exactly when
    its end samples are ordered as t_1 and t_m are (the exact corollary in
    docs/lemmas.md), so no window is ranked. ``ends`` is ``_end_samples`` of
    these candidates (their windows' first samples and their last samples),
    read once for both children of a tie group (see ``_confirm``). Without
    it, they are read here, those of a ``range`` as two slices of the series.
    """
    m = len(t)
    vals = series.values
    if not isinstance(candidates, (tuple, list, range)):
        candidates = tuple(candidates)
    _require_windows(candidates, m, len(vals))
    if screened and params.delta == 0:
        if abs(t[0] - t[-1]) != 1:  # t is its parents' one child, so every window's shape
            return tuple(candidates)
        firsts, lasts = ends or _end_samples(candidates, m, vals)
        return tuple(compress(candidates, map(gt if t[0] > t[-1] else lt, firsts, lasts)))
    at, shapes = index or _shape_index(candidates, m, vals, rank_memo(len(vals)))
    rows = tuple(map(_cost_rows(m, params.delta, params.gamma).__getitem__, t))
    fits = dict(zip(shapes, [sum(map(getitem, rows, r)) <= params.gamma for r in shapes]))
    if all(fits.values()):
        return tuple(candidates)
    return tuple(compress(candidates, map(fits.__getitem__, at)))


def _require_windows(candidates: Sequence[int], m: int, n: int) -> None:
    """Raise unless ascending candidates start length-m windows of n samples."""
    if candidates and not 1 <= candidates[0] <= candidates[-1] <= n - m + 1:
        bad = candidates[0] if candidates[0] < 1 else candidates[-1]
        raise ValueError(f"candidate position {bad} out of range for window length {m}")


def _end_samples(
    candidates: Sequence[int], m: int, vals: Sequence[float]
) -> tuple[Sequence[float], Sequence[float]]:
    """The first and the last sample of the length-m window at each candidate:
    the series' own float objects, those of a ``range`` as two slices."""
    if isinstance(candidates, range):
        start, stop, step = candidates.start, candidates.stop, candidates.step
        return vals[start - 1 : stop - 1 : step], vals[start + m - 2 : stop + m - 2 : step]
    return [vals[x - 1] for x in candidates], [vals[x + m - 2] for x in candidates]


def _shape_index(
    candidates: Sequence[int], m: int, vals: Sequence[float], ranks: RankMemo
) -> tuple[tuple[RankVector, ...], list[RankVector]]:
    """The length-m window shape at each candidate, and the distinct ones, from
    ``ranks``, the ``rank_memo`` of length m. An empty slot is composed from its two
    length-(m-1) windows and the sign of its first minus its last sample (docs/lemmas.md),
    ranked only when that key is new; without both ``shorter`` slots it is ranked alone.
    The memo is read with one ``_gather``, and again after filling empty slots."""
    shapes, shorter, composed = ranks
    at = _gather(shapes, candidates)
    if not all(at):
        for x in compress(candidates, map(not_, at)):
            if shorter is None or shorter[x] is None or shorter[x + 1] is None:
                shapes[x] = compute_ranks(vals[x - 1 : x - 1 + m])
                continue
            first, last = vals[x - 1], vals[x + m - 2]
            key = (shorter[x], shorter[x + 1], (first > last) - (first < last))
            r = composed.get(key)
            if r is None:
                r = composed[key] = compute_ranks(vals[x - 1 : x - 1 + m])
            shapes[x] = r
        at = _gather(shapes, candidates)
    return at, list(dict.fromkeys(at))


def _gather(seq: Sequence, keys: Sequence[int]) -> tuple:
    """``tuple(seq[k] for k in keys)`` in one C-level call: a ``range`` as an ``islice``
    of ``seq``, with no int object per key; other keys by ``itemgetter``, or one by one
    when fewer than two (it gives a scalar for one key and refuses none). A slice stops
    at the end of ``seq`` where a key past it raises, so callers check positions first."""
    if isinstance(keys, range):
        return tuple(islice(seq, keys.start, keys.stop, keys.step))
    if len(keys) > 1:
        return itemgetter(*keys)(seq)
    return tuple(map(seq.__getitem__, keys))


@cache
def _cost_rows(m: int, delta: int, gamma: int) -> tuple[tuple[int, ...], ...]:
    """Row v: the fit cost of each rank 0..m against pattern entry v, the
    gap |r - v| within δ and γ + 1 above it, so a window fits t under (δ, γ)
    exactly when its costs against the rows of t sum to at most γ."""
    return tuple(
        tuple(abs(r - v) if abs(r - v) <= delta else gamma + 1 for r in range(m + 1))
        for v in range(m + 1)
    )


def screen(a_p: OccurrenceSet, a_q: OccurrenceSet | bytearray) -> OccurrenceSet:
    """Positions x in the first occurrence list with x+1 in the second.

    Both lists are sorted. The second is marked at most once, in a bytearray indexed by
    position (``_mark``), and the first is probed against it with one ``_gather``, not
    one bound bytearray method call per position; the series is never read. The second
    argument may instead be that bytearray already marked, ``_mark(a_q, n)`` with n at
    least the last position of ``a_p``, so one mark serves every list probed against the
    same ``a_q``; a shorter one raises ``IndexError``. Either list empty gives ``()``.
    """
    if not isinstance(a_q, bytearray):
        if not a_p or not a_q:
            return ()
        a_q = _mark(a_q, max(a_p[-1], a_q[-1]))
    elif a_p and a_p[-1] >= len(a_q):  # _gather's slice of a range would stop at the end
        raise IndexError("bytearray index out of range")
    return tuple(compress(a_p, _gather(a_q, a_p)))


def _mark(a_q: OccurrenceSet, n: int) -> bytearray:
    """Slots 0..n of a bytearray, slot x set when x + 1 is in ``a_q``. The slots
    are set by ``operator.setitem`` mapped over ``a_q``, not by one bound bytearray
    method call per position."""
    marked = bytearray(n + 2)
    deque(map(setitem, repeat(marked), a_q, repeat(1)), maxlen=0)
    del marked[0]
    return marked


def checking(
    t: Pattern,
    a_p: OccurrenceSet,
    a_q: OccurrenceSet,
    series: TimeSeries,
    params: MiningParams,
    stats: MiningStats | None = None,
) -> Optional[FrequentPattern]:
    """Decide whether the fused superpattern ``t`` is frequent.

    Candidate positions come from screening the parents' occurrence lists.
    If fewer than minsup survive, the pattern is pruned without touching the
    series; otherwise matching confirms the survivors by their shapes. ``stats``
    is charged as ``alar`` charges a one-child group.
    """
    if stats is None:
        stats = MiningStats()
    found = _confirm((t,), screen(a_p, a_q), True, series, params, stats, rank_memo(len(series)))
    return found[0] if found else None


def _confirm(
    children: Sequence[Pattern],
    positions: Sequence[int],
    prune: bool,
    series: TimeSeries,
    params: MiningParams,
    stats: MiningStats,
    ranks: RankMemo | None,
) -> list[FrequentPattern]:
    """The prune-and-match step for candidates that share candidate positions,
    and the one place a run's counters are charged.

    The positions are checked once (``_require_windows``), before any read or charge,
    so a refused group leaves ``stats`` and ``ranks`` as they were. Every child counts
    as a candidate of its length. With ``prune`` set and fewer than minsup positions,
    every child is counted as pruned and the series is not touched; otherwise each
    child is matched at the positions, charging them all to the windows tested, and
    kept if it reaches minsup. Given the level's memo ``ranks``, the children share
    one ``_shape_index``; after that read, a ``range`` with several children (level 2)
    is made a tuple once and every child is matched against it, so their occurrence
    lists share its int objects. Given none, the level is exact fusion
    (``_reads_shapes``) and ``matching`` decides by sign, so two children (a tie group,
    or level 2's two shapes) share one ``_end_samples`` read.
    """
    m = len(children[0])
    _require_windows(positions, m, len(series))
    stats.candidates_generated[m] = stats.candidates_generated.get(m, 0) + len(children)
    if prune and len(positions) < params.minsup:
        stats.patterns_pruned_by_count += len(children)
        return []
    index = ends = None
    if ranks is not None:
        index = _shape_index(positions, m, series.values, ranks)
        if isinstance(positions, range) and len(children) > 1:
            positions = tuple(positions)
    elif len(children) > 1:
        ends = _end_samples(positions, m, series.values)
    stats.matching_windows_tested += len(positions) * len(children)
    found = []
    for t in children:
        a_t = matching(
            positions, t, series, params, screened=ranks is None, index=index, ends=ends
        )
        if len(a_t) >= params.minsup:
            found.append(FrequentPattern(t, a_t))
    return found


CandidateGroups = Iterator[tuple[Sequence[Pattern], Sequence[int]]]


def _fused_screened(level: Sequence[FrequentPattern], n: int) -> CandidateGroups:
    """Fusion candidates; each fusible pair's children share its screened list.

    The pairs are taken grouped by their right-hand pattern q, whose
    occurrence list is marked once for every p screened against it.
    """
    by_pattern = {fp.pattern: fp.occurrences for fp in level}
    lefts: dict[Pattern, list[Pattern]] = {}
    for p, q in fusion_pairs(by_pattern):
        lefts.setdefault(q, []).append(p)
    for q, ps in lefts.items():
        marked = _mark(by_pattern[q], n)
        for p in ps:
            yield fuse(p, q).produced, screen(by_pattern[p], marked)


def _extended_prefix(level: Sequence[FrequentPattern], n: int) -> CandidateGroups:
    """Enumeration candidates at their prefix parent's positions that still fit."""
    for fp in level:
        fits = fp.occurrences[: bisect_right(fp.occurrences, n - len(fp.pattern))]
        yield enumerate_extensions(fp.pattern), fits


def _extended_scan(level: Sequence[FrequentPattern], n: int) -> CandidateGroups:
    """Enumeration candidates at every window of their length. Every group of the
    level shares one tuple of window starts, so its occurrence lists share the ints."""
    windows = tuple(range(1, n - len(level[0].pattern) + 1)) if level else ()
    for fp in level:
        yield enumerate_extensions(fp.pattern), windows


# kind -> (candidates grouped with the positions they share, prune)
STRATEGIES = {
    "aop": (_fused_screened, True),
    "nopruning": (_fused_screened, False),
    "em": (_extended_prefix, True),
    "scan_em": (_extended_scan, False),
}

ALGORITHMS = (*STRATEGIES, "oracle")


def _reads_shapes(kind: str, params: MiningParams) -> bool:
    """Whether the levels of strategy ``kind`` match by window shape, through
    a rank memo. Exact fusion levels are screened from exact parents and
    matched by sign instead (the exact corollary in docs/lemmas.md)."""
    return params.delta > 0 or STRATEGIES[kind][0] is not _fused_screened


def alar(
    level: Iterable[FrequentPattern],
    series: TimeSeries,
    params: MiningParams,
    stats: MiningStats | None = None,
    kind: str = "aop",
    ranks: RankMemo | None = None,
) -> tuple[FrequentPattern, ...]:
    """Grow the next pattern length from the current frequent set.

    ``kind`` picks a row of ``STRATEGIES``: how candidates are generated, at
    which positions they are tried, and whether too few positions prune them
    before matching. All candidates of the level share one window-rank memo,
    ``ranks`` (``mine`` chains each to the level before; if None, one fresh
    memo, none on exact fusion levels). Output is sorted by rank vector.
    """
    if kind not in STRATEGIES:
        raise ValueError(f"no level-growth strategy {kind!r}; expected one of {tuple(STRATEGIES)}")
    if stats is None:
        stats = MiningStats()
    groups, prune = STRATEGIES[kind]
    if ranks is None and _reads_shapes(kind, params):
        ranks = rank_memo(len(series))
    found = []
    for children, positions in groups(tuple(level), len(series)):
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
    if kind == "oracle":
        found = list(_mine_oracle(series, params, stats))
    else:
        found = []
        max_len = params.max_len
        n = len(series)
        level = ()
        memo = None
        if max_len is None or max_len >= 2:
            # level 2 tests every window for both length-2 shapes. A strategy
            # that reads shapes composes level 3 from the filled length-2
            # memo; the others match every level by sign and keep no memo
            if _reads_shapes(kind, params):
                memo = _length2_memo(series.values)
            level = _confirm(((1, 2), (2, 1)), range(1, n), False, series, params, stats, memo)
        while level:
            found.extend(level)
            if max_len is not None and len(level[0].pattern) >= max_len:
                break
            if memo is not None:
                memo = rank_memo(n, memo[0])
            level = alar(level, series, params, stats, kind, memo)
    return tuple(found), stats  # levels arrive in length order, each one sorted


def _length2_memo(vals: Sequence[float]) -> RankMemo:
    """The filled rank memo of every length-2 window, for level 3 to compose
    from: such a window's shape is the sign of its second sample minus its
    first."""
    later = vals[1:]
    signs = map(sub, map(gt, later, vals), map(lt, later, vals))
    memo = rank_memo(len(vals))
    memo[0][1 : len(vals)] = map(((1, 1), (1, 2), (2, 1)).__getitem__, signs)
    return memo


def _mine_oracle(
    series: TimeSeries, params: MiningParams, stats: MiningStats
) -> tuple[FrequentPattern, ...]:
    found = oracle_mine(series, params, params.max_len)
    n = len(series.values)
    for m in range(2, params.max_len + 1):
        windows = max(0, n - m + 1)
        count = stats.candidates_generated[m] = math.factorial(m)
        stats.matching_windows_tested += count * windows
    return found
