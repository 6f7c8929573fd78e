from __future__ import annotations

import itertools
import random

import pytest

from aopmine import (
    compute_ranks,
    enumerate_extensions,
    enumeration_candidates,
    fuse,
    fusible,
    fusion_candidates,
    fusion_pairs,
    prefixorder,
    suffixorder,
)

TWO_PATTERN_SET = [(1, 3, 2), (2, 1, 3)]


class TestSubpatternOrders:
    def test_prefixorder(self):
        assert prefixorder((2, 1, 3)) == (2, 1)
        assert prefixorder((2, 3, 1, 5, 4)) == (2, 3, 1, 4)

    def test_prefixorder_degenerate(self):
        assert prefixorder((1, 2)) == (1,)

    def test_suffixorder(self):
        assert suffixorder((1, 3, 2)) == (2, 1)
        assert suffixorder((2, 3, 1, 4)) == (2, 1, 3)

    def test_suffixorder_degenerate(self):
        assert suffixorder((2, 1)) == (1,)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            prefixorder((1,))
        with pytest.raises(ValueError):
            suffixorder((1,))


class TestFusible:
    def test_known_pairs(self):
        assert fusible((1, 3, 2), (2, 1, 3))
        assert fusible((1, 3, 2), (3, 2, 1))
        assert not fusible((1, 2, 3), (3, 2, 1))

    def test_length_two_always_fusible(self):
        for p in ((1, 2), (2, 1)):
            for q in ((1, 2), (2, 1)):
                assert fusible(p, q)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length mismatch"):
            fusible((1, 2), (1, 2, 3))


class TestFuse:
    def test_tie_case_produces_two(self):
        result = fuse((1, 3, 2), (3, 2, 1))
        assert result.produced == ((2, 4, 3, 1), (1, 4, 3, 2))

    def test_head_below_tail_produces_one(self):
        result = fuse((1, 3, 2), (2, 1, 3))
        assert result.produced == ((1, 3, 2, 4),)

    def test_head_above_tail_produces_one(self):
        result = fuse((2, 1, 3), (2, 3, 1))
        assert result.produced == ((3, 2, 4, 1),)

    def test_tie_case_second_fixture(self):
        result = fuse((2, 1, 3), (1, 3, 2))
        assert result.produced == ((3, 1, 4, 2), (2, 1, 4, 3))

    def test_not_fusible_raises(self):
        with pytest.raises(ValueError, match="not fusible"):
            fuse((1, 2, 3), (3, 2, 1))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_round_trip_exhaustive(self, m):
        # every fused superpattern must recover its parents exactly
        perms = list(itertools.permutations(range(1, m + 1)))
        checked = 0
        for p in perms:
            for q in perms:
                if not fusible(p, q):
                    continue
                for t in fuse(p, q).produced:
                    assert sorted(t) == list(range(1, m + 2))
                    assert prefixorder(t) == p
                    assert suffixorder(t) == q
                    checked += 1
        assert checked > 0

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_coverage_and_uniqueness_exhaustive(self, m):
        # fusing all pattern pairs of length m yields every length-(m+1)
        # permutation exactly once
        perms = list(itertools.permutations(range(1, m + 1)))
        produced = []
        for p in perms:
            for q in perms:
                if fusible(p, q):
                    produced.extend(fuse(p, q).produced)
        assert len(produced) == len(set(produced))
        assert set(produced) == set(itertools.permutations(range(1, m + 2)))

    def test_every_window_is_a_child_of_its_parents(self):
        # seeded random tie-free windows of length 3-13: fusing a window's
        # prefix and suffix shapes produces it, and a tie pair (the head of one
        # equal to the tail of the other) produces exactly two children
        rng = random.Random(0)
        ties = 0
        for m in range(3, 14):
            for _ in range(200):
                t = compute_ranks([rng.random() for _ in range(m)])
                p, q = prefixorder(t), suffixorder(t)
                produced = fuse(p, q).produced
                assert t in produced, t
                assert len(produced) == (2 if p[0] == q[-1] else 1), t
                ties += p[0] == q[-1]
        assert ties > 200


def _sorting_fuse(p, q):
    """Fusion as first written: shapes by ranking, both children built, then picked."""
    if compute_ranks(p[1:]) != compute_ranks(q[:-1]):
        raise ValueError("not fusible")
    head, tail = p[0], q[-1]
    head_wins = (head + 1,) + tuple(v + 1 if v > head else v for v in q)
    tail_wins = tuple(v + 1 if v > tail else v for v in p) + (tail + 1,)
    if head > tail:
        return (head_wins,)
    if head == tail:
        return (head_wins, tail_wins)
    return (tail_wins,)


class TestShapesByArithmetic:
    @pytest.mark.parametrize("m", range(2, 8))
    def test_equal_ranking_the_slice(self, m):
        for p in itertools.permutations(range(1, m + 1)):
            assert prefixorder(p) == compute_ranks(p[:-1])
            assert suffixorder(p) == compute_ranks(p[1:])

    @pytest.mark.parametrize("m", range(2, 7))
    def test_tied_rank_vectors_equal_ranking_the_slice(self, m):
        for window in itertools.product(range(m), repeat=m):
            r = compute_ranks(window)
            assert prefixorder(r) == compute_ranks(window[:-1]), r
            assert suffixorder(r) == compute_ranks(window[1:]), r

    @pytest.mark.parametrize("m", range(2, 7))
    def test_fuse_equals_the_sorting_construction(self, m):
        # every pair fusible by ranked shapes, found by grouping on them
        perms = list(itertools.permutations(range(1, m + 1)))
        by_prefix = {}
        for q in perms:
            by_prefix.setdefault(compute_ranks(q[:-1]), []).append(q)
        pairs = 0
        for p in perms:
            partners = by_prefix[compute_ranks(p[1:])]
            for q in partners:
                assert fuse(p, q).produced == _sorting_fuse(p, q)
                pairs += 1
            for q in perms[:: max(1, len(perms) // 40)]:  # a sample of the others
                if q not in partners:
                    with pytest.raises(ValueError, match="not fusible"):
                        fuse(p, q)
        assert pairs == len(perms) * m


class TestEnumerateExtensions:
    def test_known_rows(self):
        assert set(enumerate_extensions((1, 3, 2))) == {
            (2, 4, 3, 1),
            (1, 4, 3, 2),
            (1, 4, 2, 3),
            (1, 3, 2, 4),
        }
        assert set(enumerate_extensions((2, 1, 3))) == {
            (3, 2, 4, 1),
            (3, 1, 4, 2),
            (2, 1, 4, 3),
            (2, 1, 3, 4),
        }

    def test_shortest_pattern(self):
        assert set(enumerate_extensions((1, 2))) == {(2, 3, 1), (1, 3, 2), (1, 2, 3)}

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_count_and_prefix_recovery(self, m):
        for p in itertools.permutations(range(1, m + 1)):
            exts = enumerate_extensions(p)
            assert len(exts) == m + 1
            assert len(set(exts)) == m + 1
            for t in exts:
                assert sorted(t) == list(range(1, m + 2))
                assert prefixorder(t) == p


class TestCandidateGeneration:
    def test_fusion_beats_enumeration_on_fixture(self):
        fused = fusion_candidates(TWO_PATTERN_SET)
        enumerated = enumeration_candidates(TWO_PATTERN_SET)
        assert set(fused) == {(1, 3, 2, 4), (3, 1, 4, 2), (2, 1, 4, 3)}
        assert len(fused) == 3
        assert len(enumerated) == 8
        assert set(fused) <= set(enumerated)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_fusion_subset_of_enumeration(self, m):
        # over any frequent set, fusion candidates never leave the
        # enumeration candidate set
        perms = list(itertools.permutations(range(1, m + 1)))
        for k in range(1, len(perms) + 1, max(1, len(perms) // 4)):
            subset = perms[:k]
            assert set(fusion_candidates(subset)) <= set(enumeration_candidates(subset))


def _nested_fusible_pairs(patterns):
    pats = sorted(patterns)
    return [(p, q) for p in pats for q in pats if fusible(p, q)]


class TestFusionPairs:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_same_pairs_as_nested_loop_on_all_patterns(self, m):
        perms = list(itertools.permutations(range(1, m + 1)))
        assert list(fusion_pairs(perms)) == _nested_fusible_pairs(perms)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_same_pairs_as_nested_loop_on_random_subsets(self, m):
        rng = random.Random(m)
        perms = list(itertools.permutations(range(1, m + 1)))
        for _ in range(20):
            subset = rng.sample(perms, rng.randint(1, len(perms)))
            assert list(fusion_pairs(subset)) == _nested_fusible_pairs(subset)

    def test_empty_level(self):
        assert list(fusion_pairs([])) == []

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length mismatch"):
            list(fusion_pairs([(1, 2), (1, 2, 3)]))
