"""Definitional reference miners used as test oracles.

Support counting here is deliberately naive and self-contained: every
pattern of every length is enumerated and every window examined straight
from the definitions. No rank, distance, or scanning code is shared with
the engine, so agreement between the two routes is meaningful evidence of
correctness. Single-threaded on purpose; this is a correctness instrument,
not a fast path.
"""

from __future__ import annotations

from itertools import permutations

from .core import FrequentPattern, MiningParams, Pattern, TimeSeries

ORACLE_MAX_LEN = 7


def oracle_mine(
    series: TimeSeries, params: MiningParams, max_len: int | None
) -> tuple[FrequentPattern, ...]:
    """Every frequent pattern up to ``max_len``, by exhaustive enumeration.

    For each length m in 2..max_len, all m! permutations are tried against
    all windows; a pattern is kept when at least minsup windows fall within
    both distance bounds. Lengths are enumerated unconditionally (no early
    stop), and ``max_len`` that is None or beyond 7 is refused as intractable;
    one that is not a positive int is refused as ``MiningParams`` refuses it.
    """
    _require_tractable(max_len)
    vals = series.values
    n = len(vals)
    found = []
    for m in range(2, max_len + 1):
        window_ranks = [
            _ranks(vals[t - 1 : t - 1 + m]) for t in range(1, n - m + 2)
        ]
        for pat in permutations(range(1, m + 1)):
            occs = []
            for t, ranks in enumerate(window_ranks, start=1):
                if _within(ranks, pat, params.delta, params.gamma):
                    occs.append(t)
            if len(occs) >= params.minsup:
                found.append(FrequentPattern(pat, tuple(occs)))
    return tuple(sorted(found, key=lambda fp: (len(fp.pattern), fp.pattern)))


def oracle_exact_opp(
    series: TimeSeries, minsup: int, max_len: int | None
) -> tuple[FrequentPattern, ...]:
    """Frequent patterns at delta = gamma = 0, by direct rank-vector equality.

    With zero tolerance a window matches exactly one pattern, its own rank
    vector, so one pass per length tallies every support. Windows containing
    ties have non-permutation rank vectors and can never match.
    """
    _require_tractable(max_len)
    MiningParams(0, 0, minsup)  # refuses a minsup that a run would refuse
    vals = series.values
    n = len(vals)
    found = []
    for m in range(2, max_len + 1):
        positions: dict[Pattern, list[int]] = {}
        for t in range(1, n - m + 2):
            positions.setdefault(_ranks(vals[t - 1 : t - 1 + m]), []).append(t)
        identity = list(range(1, m + 1))
        for ranks, occs in positions.items():
            if len(occs) >= minsup and sorted(ranks) == identity:
                found.append(FrequentPattern(ranks, tuple(occs)))
    return tuple(sorted(found, key=lambda fp: (len(fp.pattern), fp.pattern)))


def _require_tractable(max_len: int | None) -> None:
    MiningParams(0, 0, 1, max_len)  # refuses a max_len that a run would refuse
    # each length m tries all m! patterns against every window
    if max_len is None or max_len > ORACLE_MAX_LEN:
        raise ValueError(f"oracle intractable: set max_len <= {ORACLE_MAX_LEN} (got {max_len!r})")


def _ranks(window: tuple[float, ...]) -> tuple[int, ...]:
    # quadratic on purpose: mirrors the definition rather than the engine
    return tuple(1 + sum(1 for other in window if other < v) for v in window)


def _within(ranks: tuple[int, ...], pat: tuple[int, ...], delta: int, gamma: int) -> bool:
    total = 0
    for a, b in zip(ranks, pat):
        gap = a - b if a >= b else b - a
        if gap > delta:
            return False
        total += gap
    return total <= gamma
