from __future__ import annotations

import itertools
import random
import sys

import pytest

from aopmine import (
    MiningParams,
    MiningStats,
    TimeSeries,
    alar,
    checking,
    is_occurrence,
    matching,
    mine,
    mine_variant_support,
    oracle_exact_opp,
    screen,
)
from aopmine.miner import rank_memo
from conftest import SAMPLE_EXPECTED, SAMPLE_VALUES, freq_map, random_series, sample_frequent

MINERS = ("aop", "nopruning", "em", "scan_em")


class TestScreen:
    def test_known_parents(self):
        assert screen((1, 3, 6, 11), (4, 7, 12, 13)) == (3, 6, 11)

    def test_empty_left(self):
        assert screen((), (1, 2, 3)) == ()

    def test_all_survive(self):
        assert screen((1, 2, 3), (2, 3, 4)) == (1, 2, 3)


class TestMatching:
    def test_screened_candidates(self, sample_series, sample_params):
        stats = MiningStats()
        got = matching((3, 6, 11), (2, 3, 1, 5, 4), sample_series, sample_params, stats)
        assert got == (6, 11)
        assert stats.matching_windows_tested == 3

    def test_empty_candidates(self, sample_series, sample_params):
        assert matching((), (2, 3, 1, 5, 4), sample_series, sample_params) == ()

    def test_every_ascending_pair(self):
        series = TimeSeries((1.0, 2.0, 3.0, 4.0, 5.0))
        params = MiningParams(delta=0, gamma=0, minsup=1)
        assert matching(range(1, 5), (1, 2), series, params) == (1, 2, 3, 4)

    def test_out_of_range_candidate_raises(self, sample_series, sample_params):
        with pytest.raises(ValueError, match="out of range"):
            matching((13,), (2, 3, 1, 5, 4), sample_series, sample_params)
        with pytest.raises(ValueError, match="out of range"):
            matching((0,), (1, 2), sample_series, sample_params)

    def test_out_of_range_candidate_raises_with_a_memo(self, sample_series, sample_params):
        ranks = rank_memo(len(sample_series))
        with pytest.raises(ValueError, match="out of range"):
            matching((13,), (2, 3, 1, 5, 4), sample_series, sample_params, None, ranks)
        with pytest.raises(ValueError, match="out of range"):
            matching((0,), (2, 3, 1, 5, 4), sample_series, sample_params, None, ranks)

    @pytest.mark.parametrize("tie_free", [True, False])
    @pytest.mark.parametrize("delta", [0, 1, 2])
    @pytest.mark.parametrize("gamma", [0, 2, 4])
    def test_shared_memo_equals_is_occurrence(self, tie_free, delta, gamma):
        # one memo serves every same-length candidate of a level; each result
        # must still be exactly the definitional occurrence set
        rng = random.Random(delta * 10 + gamma)
        if tie_free:
            series = random_series(rng, 60)
        else:  # 3-symbol alphabet: most windows hold ties
            series = TimeSeries(tuple(float(rng.randint(1, 3)) for _ in range(60)))
        params = MiningParams(delta=delta, gamma=gamma, minsup=1)
        vals = series.values
        for m in (2, 3, 4):
            ranks = rank_memo(len(vals))
            positions = range(1, len(vals) - m + 2)
            for t in itertools.permutations(range(1, m + 1)):
                candidates = sorted(rng.sample(positions, len(positions) // 2))
                stats = MiningStats()
                got = matching(candidates, t, series, params, stats, ranks)
                expected = tuple(
                    x for x in candidates if is_occurrence(t, vals[x - 1 : x - 1 + m], params)
                )
                assert got == expected
                assert stats.matching_windows_tested == len(candidates)


class TestChecking:
    def test_pruned_before_matching(self, sample_series, sample_params):
        # three screened positions < minsup 4: pruned without a window test
        stats = MiningStats()
        got = checking(
            (2, 3, 1, 5, 4), (1, 3, 6, 11), (4, 7, 12, 13), sample_series, sample_params, stats
        )
        assert got is None
        assert stats.patterns_pruned_by_count == 1
        assert stats.matching_windows_tested == 0

    def test_screening_passes_but_matching_fails(self, sample_series):
        # same candidate at minsup 3: three screened positions survive the
        # early exit, matching then confirms only two
        params = MiningParams(delta=1, gamma=2, minsup=3)
        stats = MiningStats()
        got = checking(
            (2, 3, 1, 5, 4), (1, 3, 6, 11), (4, 7, 12, 13), sample_series, params, stats
        )
        assert got is None
        assert stats.patterns_pruned_by_count == 0
        assert stats.matching_windows_tested == 3

    def test_frequent_candidate(self):
        n = 12
        series = TimeSeries(tuple(float(v) for v in range(n)))
        params = MiningParams(delta=0, gamma=0, minsup=1)
        every = tuple(range(1, n))
        got = checking((1, 2, 3), every, every, series, params)
        assert got is not None
        assert got.support == n - 2


class TestAlar:
    def test_two_pattern_level(self, sample_series, sample_params):
        level = [sample_frequent((1, 3, 2)), sample_frequent((2, 1, 3))]
        stats = MiningStats()
        got = alar(level, sample_series, sample_params, stats)
        assert stats.candidates_generated == {4: 3}
        assert freq_map(got) == {(2, 1, 4, 3): (4, 7, 12, 13)}

    def test_empty_level(self, sample_series, sample_params):
        assert alar([], sample_series, sample_params) == ()

    def test_top_level_is_empty(self, sample_series, sample_params):
        level = [
            sample_frequent((1, 2, 3, 4)),
            sample_frequent((2, 1, 4, 3)),
            sample_frequent((2, 3, 1, 4)),
        ]
        assert alar(level, sample_series, sample_params) == ()


class TestVariantSupport:
    def test_em_keeps_all_fitting_prefix_occurrences(self, sample_series, sample_params):
        stats = MiningStats()
        got = mine_variant_support(
            (2, 3, 1, 5, 4), (1, 3, 6, 11), sample_series, sample_params, "em", stats
        )
        assert got is None
        assert stats.matching_windows_tested == 4

    def test_nopruning_matches_below_threshold(self, sample_series, sample_params):
        stats = MiningStats()
        got = mine_variant_support(
            (2, 3, 1, 5, 4), (3, 6, 11), sample_series, sample_params, "nopruning", stats
        )
        assert got is None
        assert stats.patterns_pruned_by_count == 0
        assert stats.matching_windows_tested == 3

    def test_scan_em_tests_every_window(self, sample_series, sample_params):
        stats = MiningStats()
        mine_variant_support(
            (2, 3, 1, 5, 4), None, sample_series, sample_params, "scan_em", stats
        )
        assert stats.matching_windows_tested == 12

    def test_em_prunes_when_too_few_fit(self, sample_series):
        params = MiningParams(delta=1, gamma=2, minsup=5)
        stats = MiningStats()
        got = mine_variant_support(
            (2, 3, 1, 5, 4), (1, 3, 6, 11), sample_series, params, "em", stats
        )
        assert got is None
        assert stats.patterns_pruned_by_count == 1
        assert stats.matching_windows_tested == 0

    @pytest.mark.parametrize("kind", ["em", "nopruning"])
    def test_missing_parent_occurrences_raises(self, kind, sample_series, sample_params):
        with pytest.raises(ValueError, match="needs parent_occurrences"):
            mine_variant_support((1, 2, 3), None, sample_series, sample_params, kind)

    def test_aop_kind_rejected(self, sample_series, sample_params):
        with pytest.raises(ValueError):
            mine_variant_support((1, 2, 3), (1,), sample_series, sample_params, "aop")


class TestMineGolden:
    @pytest.mark.parametrize("kind", MINERS)
    def test_sample_series_full_output(self, kind, sample_series, sample_params):
        found, _ = mine(sample_series, sample_params, kind)
        assert freq_map(found) == SAMPLE_EXPECTED

    def test_oracle_kind_agrees(self, sample_series):
        params = MiningParams(delta=1, gamma=2, minsup=4, max_len=5)
        found, stats = mine(sample_series, params, "oracle")
        assert freq_map(found) == SAMPLE_EXPECTED
        assert stats.total_candidates == 2 + 6 + 24 + 120

    def test_oracle_kind_needs_max_len(self, sample_series, sample_params):
        with pytest.raises(ValueError, match="oracle intractable"):
            mine(sample_series, sample_params, "oracle")

    def test_output_is_sorted(self, sample_series, sample_params):
        found, _ = mine(sample_series, sample_params)
        keys = [(len(fp.pattern), fp.pattern) for fp in found]
        assert keys == sorted(keys)


class TestMineEdges:
    def test_minsup_equal_to_length_finds_nothing(self, sample_series):
        params = MiningParams(delta=1, gamma=2, minsup=len(SAMPLE_VALUES))
        found, _ = mine(sample_series, params)
        assert found == ()

    def test_short_series(self):
        params = MiningParams(delta=0, gamma=0, minsup=1)
        for values in ((), (1.0,)):
            found, _ = mine(TimeSeries(values), params)
            assert found == ()

    def test_max_len_caps_growth(self, sample_series):
        params = MiningParams(delta=1, gamma=2, minsup=4, max_len=3)
        found, _ = mine(sample_series, params)
        assert {fp.pattern for fp in found} == {
            p for p in SAMPLE_EXPECTED if len(p) <= 3
        }

    def test_max_len_one_is_empty(self, sample_series):
        params = MiningParams(delta=1, gamma=2, minsup=4, max_len=1)
        found, _ = mine(sample_series, params)
        assert found == ()

    def test_unknown_kind_raises(self, sample_series, sample_params):
        with pytest.raises(ValueError, match="unknown algorithm"):
            mine(sample_series, sample_params, "bogus")

    def test_bad_thread_count_raises(self, sample_series, sample_params):
        with pytest.raises(ValueError, match="threads"):
            mine(sample_series, sample_params, threads=0)

    def test_monotone_series_needs_the_cap(self):
        series = TimeSeries(tuple(float(v) for v in range(30)))
        params = MiningParams(delta=0, gamma=0, minsup=5, max_len=6)
        found, _ = mine(series, params)
        assert {fp.pattern for fp in found} == {
            tuple(range(1, m + 1)) for m in range(2, 7)
        }


class TestMineProperties:
    def test_exact_mode_equals_reference(self):
        rng = random.Random(1234)
        for _ in range(20):
            series = random_series(rng, rng.randint(5, 60))
            minsup = rng.choice((2, 3, 5))
            params = MiningParams(delta=0, gamma=0, minsup=minsup, max_len=5)
            found, _ = mine(series, params)
            reference = oracle_exact_opp(series, minsup, 5)
            assert freq_map(found) == freq_map(reference)

    def test_reported_occurrences_reverify(self, sample_series, sample_params):
        found, _ = mine(sample_series, sample_params)
        for fp in found:
            m = len(fp.pattern)
            for pos in fp.occurrences:
                window = sample_series.values[pos - 1 : pos - 1 + m]
                assert is_occurrence(fp.pattern, window, sample_params)

    def test_counter_dominance(self, sample_series, sample_params):
        runs = {kind: mine(sample_series, sample_params, kind)[1] for kind in MINERS}
        for length, count in runs["aop"].candidates_generated.items():
            assert count <= runs["em"].candidates_generated.get(length, 0)
        assert runs["aop"].total_candidates <= runs["em"].total_candidates
        assert (
            runs["aop"].matching_windows_tested
            <= runs["nopruning"].matching_windows_tested
            <= runs["scan_em"].matching_windows_tested
        )

    def test_scan_em_window_count_is_definitional(self, sample_series, sample_params):
        # bootstrap 2*(n-1), then per level: candidates * (n - len + 1)
        _, stats = mine(sample_series, sample_params, "scan_em")
        n = len(SAMPLE_VALUES)
        expected = 2 * (n - 1)
        for length, count in stats.candidates_generated.items():
            if length > 2:
                expected += count * (n - length + 1)
        assert stats.matching_windows_tested == expected

    def test_determinism_across_thread_counts(self, sample_series, sample_params):
        base_found, base_stats = mine(sample_series, sample_params, "aop", threads=1)
        for threads in (2, 8):
            found, stats = mine(sample_series, sample_params, "aop", threads=threads)
            assert found == base_found
            assert stats.candidates_generated == base_stats.candidates_generated
            assert stats.matching_windows_tested == base_stats.matching_windows_tested
            assert stats.patterns_pruned_by_count == base_stats.patterns_pruned_by_count

    def test_shared_rank_memo_under_thread_switching(self):
        # pool workers share each level's rank memo; force frequent switches
        # so that a lost or wrong slot write would change the result
        series = random_series(random.Random(7), 300)
        params = MiningParams(delta=1, gamma=2, minsup=8)
        baseline = {kind: mine(series, params, kind) for kind in ("aop", "nopruning", "em")}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for kind, (base_found, base_stats) in baseline.items():
                found, stats = mine(series, params, kind, threads=8)
                assert found == base_found, kind
                assert stats.matching_windows_tested == base_stats.matching_windows_tested
        finally:
            sys.setswitchinterval(interval)

    def test_anti_monotone_at_zero_tolerance(self):
        from aopmine import prefixorder, suffixorder

        rng = random.Random(99)
        for _ in range(10):
            series = random_series(rng, 50)
            reference = oracle_exact_opp(series, 2, 5)
            supports = {fp.pattern: fp.support for fp in reference}
            for fp in reference:
                if len(fp.pattern) == 2:
                    continue
                for parent in (prefixorder(fp.pattern), suffixorder(fp.pattern)):
                    assert supports.get(parent, 0) >= fp.support
