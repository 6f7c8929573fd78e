"""Screening is lossless and window shapes compose, tied windows included.

Screening keeps a position x for a fused pattern t only where its prefix
shape occurs at x and its suffix shape at x + 1. That loses nothing when an
occurrence of t at a window always implies occurrences of ``prefixorder(t)``
and ``suffixorder(t)`` at the window's first and last m - 1 samples, under
the same delta and gamma. The rank memo composes a window's shape from the
shapes of those two shorter windows and the order of its first and last
sample. Both lemmas (proved in docs/lemmas.md) are checked exhaustively at
small sizes below, and every strategy is compared with the definitional
reference on tied random inputs, where any divergence fails.
"""

from __future__ import annotations

import itertools
import random

from aopmine import (
    MiningParams,
    TimeSeries,
    compute_ranks,
    is_occurrence,
    mine,
    oracle_mine,
    prefixorder,
    suffixorder,
)
from conftest import freq_map, random_series

MINERS = ("aop", "nopruning", "em", "scan_em")


def test_screening_lemma_exhaustive():
    # every window of length 3..5 over a 3-symbol alphabet (so also over 1 or
    # 2 symbols) and every tie-free one, every pattern t of that length,
    # delta <= 2, gamma <= 4
    grid = [MiningParams(delta=d, gamma=g, minsup=1) for d in range(3) for g in range(5)]
    occurrences = 0
    for m in (3, 4, 5):
        patterns = list(itertools.permutations(range(1, m + 1)))
        shapes = {t: (prefixorder(t), suffixorder(t)) for t in patterns}
        windows = itertools.chain(
            itertools.product((1.0, 2.0, 3.0), repeat=m),
            itertools.permutations([float(v) for v in range(1, m + 1)]),
        )
        for window in windows:
            head, tail = window[:-1], window[1:]
            for t in patterns:
                prefix, suffix = shapes[t]
                for params in grid:
                    if not is_occurrence(t, window, params):
                        continue
                    occurrences += 1
                    assert is_occurrence(prefix, head, params), (t, window, params)
                    assert is_occurrence(suffix, tail, params), (t, window, params)
    assert occurrences > 0


def test_composition_lemma_exhaustive():
    # every window of length 2..6 over an m-symbol alphabet: that is every
    # order of m samples, tied or tie-free, so in particular every window
    # over 1..3 symbols and every tie-free one
    for m in range(2, 7):
        shape_of = {}
        for window in itertools.product(range(m), repeat=m):
            first, last = window[0], window[-1]
            key = (
                compute_ranks(window[:-1]),
                compute_ranks(window[1:]),
                (first > last) - (first < last),
            )
            shape = compute_ranks(window)
            assert shape_of.setdefault(key, shape) == shape, window


def test_tied_inputs_diagnostic():
    rng = random.Random(321)
    runs = 0
    for i in range(60):
        if i % 3 == 2:
            # tiny alphabet: nearly every window carries a tie
            series = TimeSeries(
                tuple(float(rng.randint(0, 2)) for _ in range(rng.randint(10, 60)))
            )
        else:
            series = random_series(rng, rng.randint(10, 60), tie_free=False)
        params = MiningParams(
            delta=rng.choice((0, 1, 2)),
            gamma=rng.choice((0, 2, 4)),
            minsup=rng.choice((2, 3, 5)),
            max_len=4,
        )
        reference = freq_map(oracle_mine(series, params, 4))
        for kind in MINERS:
            found, _ = mine(series, params, kind)
            assert freq_map(found) == reference, (i, kind, params)
            runs += 1
    assert runs == 60 * len(MINERS)


def test_tied_inputs_keep_counter_dominance():
    rng = random.Random(654)
    for _ in range(15):
        series = random_series(rng, rng.randint(10, 50), tie_free=False)
        params = MiningParams(delta=1, gamma=2, minsup=3, max_len=4)
        stats = {kind: mine(series, params, kind)[1] for kind in MINERS}
        for length, count in stats["aop"].candidates_generated.items():
            assert count <= stats["em"].candidates_generated.get(length, 0)
        assert (
            stats["aop"].matching_windows_tested
            <= stats["nopruning"].matching_windows_tested
            <= stats["scan_em"].matching_windows_tested
        )
