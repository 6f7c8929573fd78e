"""Screening is lossless and window shapes compose, tied windows included.

Screening keeps a position x for a fused pattern t only where its prefix
shape occurs at x and its suffix shape at x + 1. That loses nothing when an
occurrence of t at a window always implies occurrences of ``prefixorder(t)``
and ``suffixorder(t)`` at the window's first and last m - 1 samples, under
the same delta and gamma. The rank memo composes a window's shape from the
shapes of those two shorter windows and the order of its first and last
sample. Both lemmas (proved in docs/lemmas.md) are checked exhaustively at
small sizes below, and every strategy is compared with the definitional
reference on tied random inputs, where any divergence fails. So is the
exact corollary that lets ``matching`` skip ranking at delta = 0: there a
screened window's shape is one of its fusion pair's children, picked by the
order of its end samples.
"""

from __future__ import annotations

import itertools
import random

import pytest

from aopmine import (
    MiningParams,
    TimeSeries,
    compute_ranks,
    fuse,
    fusion_pairs,
    matching,
    mine,
    oracle_mine,
    prefixorder,
    scan_occurrences,
    suffixorder,
)
from conftest import freq_map, occurs, random_series

MINERS = ("aop", "nopruning", "em", "scan_em")


def test_screening_lemma_exhaustive():
    # every window of length 3..5 over a 3-symbol alphabet (so also over 1 or
    # 2 symbols) and every tie-free one, every pattern t of that length,
    # delta <= 2, gamma <= 4
    grid = [MiningParams(delta=d, gamma=g, minsup=1) for d in range(3) for g in range(5)]
    loosest = grid[-1]  # a fit within any bounds of the grid is a fit within these
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
                if not occurs(t, window, loosest):
                    continue
                prefix, suffix = shapes[t]
                for params in grid:
                    if not occurs(t, window, params):
                        continue
                    occurrences += 1
                    assert occurs(prefix, head, params), (t, window, params)
                    assert occurs(suffix, tail, params), (t, window, params)
    assert occurrences > 0


def test_composition_lemma_exhaustive():
    # every window of length 2..6 over an m-symbol alphabet: that is every
    # order of m samples, tied or tie-free, so in particular every window
    # over 1..3 symbols and every tie-free one
    for m in range(2, 7):
        shape_of, key_of = {}, {}
        for window in itertools.product(range(m), repeat=m):
            first, last = window[0], window[-1]
            key = (
                compute_ranks(window[:-1]),
                compute_ranks(window[1:]),
                (first > last) - (first < last),
            )
            shape = compute_ranks(window)
            assert shape_of.setdefault(key, shape) == shape, window
            # the converse: a shape determines its key, so keys and shapes
            # are one-to-one
            assert key_of.setdefault(shape, key) == key, window


def _pair_children(p, q):
    # the length-1 pair that level 2 fuses has no prefix or suffix shape for
    # fuse to check; its children are head-wins (2, 1) and tail-wins (1, 2)
    return ((2, 1), (1, 2)) if p == (1,) else fuse(p, q).produced


def test_exact_sign_lemma_exhaustive():
    # every fusible pair (p, q) at m = 1..4 and every window of m + 1 samples
    # over an (m + 1)-symbol alphabet, so every order, tied or tie-free: where
    # p occurs exactly at the first m samples and q at the last m, the
    # window's shape is p and q's one child when p's head and q's tail differ,
    # and otherwise the child the end samples' order picks, or none on a tie
    exact = MiningParams(delta=0, gamma=3, minsup=1)
    for m in range(1, 5):
        if m == 1:
            pairs = {((1,), (1,))}
        else:
            pairs = set(fusion_pairs(itertools.permutations(range(1, m + 1))))
        seen = set()
        for window in itertools.product(range(m + 1), repeat=m + 1):
            pair = (compute_ranks(window[:-1]), compute_ranks(window[1:]))
            if pair not in pairs:
                continue
            seen.add(pair)
            p, q = pair
            children = _pair_children(p, q)
            shape = compute_ranks(window)
            first, last = window[0], window[-1]
            if p[0] != q[-1]:
                assert children == (shape,), window
            elif first > last:
                assert shape == children[0], window
            elif first < last:
                assert shape == children[1], window
            else:
                assert shape not in children, window
            series = TimeSeries(window)
            for t in children:
                expected = (1,) if shape == t else ()
                assert matching((1,), t, series, exact, screened=True) == expected, (window, t)
        assert seen == pairs, m


def test_every_fusion_child_knows_its_pair_and_its_tie():
    # every child t of a fusible pair (p, q) up to length 7, and of level 2's
    # (1,) fused with itself, has p = prefixorder(t) and q = suffixorder(t),
    # and p's head equals q's tail exactly when t's end ranks are adjacent,
    # so matching can pick the sign path from t alone
    children = 0
    for m in range(1, 8):
        if m == 1:
            pairs = [((1,), (1,))]
        else:
            pairs = fusion_pairs(itertools.permutations(range(1, m + 1)))
        for p, q in pairs:
            for t in _pair_children(p, q):
                children += 1
                assert (prefixorder(t), suffixorder(t)) == (p, q), (p, q, t)
                assert (p[0] == q[-1]) == (abs(t[0] - t[-1]) == 1), (p, q, t)
    assert children == 2 + 46_230  # level 2, then lengths 3 to 8


def test_exact_sign_path_equals_general_path(monkeypatch):
    # at delta = 0 each fusion pair's children are matched without ranking;
    # each such call must return what the memo path does on the same
    # candidates, and every strategy must still equal the reference
    import aopmine.miner as miner

    real_matching = miner.matching
    paired = []

    def both_paths(candidates, t, series, params, *, screened=False, index=None, ends=None):
        found = real_matching(
            candidates, t, series, params, screened=screened, index=index, ends=ends
        )
        if screened:
            paired.append(t)
            assert real_matching(candidates, t, series, params, screened=True) == found
            assert real_matching(candidates, t, series, params) == found, t
        return found

    monkeypatch.setattr(miner, "matching", both_paths)
    rng = random.Random(987)
    for i in range(24):
        n = rng.randint(8, 80)
        if i % 3 == 0:
            series = random_series(rng, n)
        elif i % 3 == 1:
            series = random_series(rng, n, tie_free=False)
        else:
            series = TimeSeries(tuple(float(rng.randint(0, 2)) for _ in range(n)))
        max_len = 6 if i % 2 else rng.randint(2, 5)
        params = MiningParams(
            delta=0, gamma=rng.choice((0, 3)), minsup=rng.choice((1, 2, 3)), max_len=max_len
        )
        reference = freq_map(oracle_mine(series, params, max_len))
        for kind in MINERS:
            found, _ = mine(series, params, kind)
            assert freq_map(found) == reference, (i, kind, params)
    assert set(map(len, paired)) == {2, 3, 4, 5, 6}  # every length took the sign path


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


@pytest.mark.parametrize("p", range(5, 9))
def test_period_of_distinct_values_past_its_length(p):
    # a period-p series of p distinct values: each window of length m <= p is
    # tie-free and its shape recurs every p samples, while every longer window
    # has a tie, between its first and last samples at length p + 1, so at
    # delta 0 the frequent set is every window shape of length 2..p and
    # nothing longer, however far max_len reaches past p
    values = random.Random(p).sample(range(p), p)
    vals = tuple(float(values[i % p]) for i in range(200))
    series = TimeSeries(vals)
    params = MiningParams(delta=0, gamma=0, minsup=5, max_len=p + 3)
    found = {kind: freq_map(mine(series, params, kind)[0]) for kind in MINERS}
    for kind in MINERS:
        assert found[kind] == found["aop"], kind
    shapes = {
        tuple(sorted(window).index(v) + 1 for v in window)
        for m in range(2, p + 1)
        for window in (vals[x : x + m] for x in range(len(vals) - m + 1))
    }
    assert set(found["aop"]) == shapes
    for pattern, occurrences in found["aop"].items():
        assert occurrences == scan_occurrences(pattern, series, params), pattern


def test_periodic_tied_series_every_strategy_agrees():
    # a base of period 9, 12 or 15 over the values 0..5, repeated, plus
    # Gaussian noise (sigma 0.2) rounded to one decimal: equal base values tie
    # or swap order from one repeat to the next, so window shapes recur past
    # length 9 (noise rounded to whole numbers stopped at length 8). Every
    # strategy must find the same patterns and occurrence lists, uncapped, and
    # each list must be the reference window scan's. oracle_mine cannot reach
    # these lengths, so a pattern that every strategy misses stays unseen until
    # an uncapped reference miner is in place
    lengths = set()
    for period in (9, 12, 15):
        rng = random.Random(period)
        base = [rng.randint(0, 5) for _ in range(period)]
        series = TimeSeries(
            tuple(round(base[i % period] + rng.gauss(0.0, 0.2), 1) for i in range(200))
        )
        for delta, gamma in ((0, 0), (1, 2)):
            params = MiningParams(delta=delta, gamma=gamma, minsup=5)
            found = {kind: freq_map(mine(series, params, kind)[0]) for kind in MINERS}
            for kind in MINERS:
                assert found[kind] == found["aop"], (period, delta, kind)
            for pattern, occurrences in found["aop"].items():
                assert occurrences == scan_occurrences(pattern, series, params), pattern
            lengths.update(map(len, found["aop"]))
    assert max(lengths) >= 10
