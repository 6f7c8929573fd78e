from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from aopmine import (
    MiningParams,
    TimeSeries,
    compute_ranks,
    delta_distance,
    gamma_distance,
    is_occurrence,
    scan_occurrences,
)
from conftest import SAMPLE_VALUES

# integer-valued windows keep affine transforms exact
int_windows = st.lists(st.integers(-1000, 1000), min_size=1, max_size=8)
tie_free_windows = st.lists(st.integers(-1000, 1000), min_size=1, max_size=8, unique=True)


class TestComputeRanks:
    def test_known_windows(self):
        assert compute_ranks((12, 15, 10, 13)) == (2, 4, 1, 3)
        assert compute_ranks((13, 11, 18, 23)) == (2, 1, 3, 4)

    def test_all_tied(self):
        assert compute_ranks((7, 7, 7)) == (1, 1, 1)

    def test_single_element(self):
        assert compute_ranks((42.0,)) == (1,)

    def test_empty_window_raises(self):
        with pytest.raises(ValueError, match="empty window"):
            compute_ranks(())

    def test_non_finite_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            compute_ranks((1.0, float("nan")))
        with pytest.raises(ValueError, match="non-finite"):
            compute_ranks((float("inf"), 2.0))

    @given(int_windows, st.integers(1, 9), st.integers(-500, 500))
    def test_invariant_under_increasing_affine_transform(self, window, a, b):
        transformed = [a * v + b for v in window]
        assert compute_ranks(transformed) == compute_ranks(window)

    @given(tie_free_windows)
    def test_tie_free_window_yields_permutation(self, window):
        ranks = compute_ranks(window)
        assert sorted(ranks) == list(range(1, len(window) + 1))

    @given(int_windows)
    def test_rank_bounds(self, window):
        ranks = compute_ranks(window)
        assert all(1 <= r <= len(window) for r in ranks)


class TestDistances:
    def test_known_pair(self):
        a, b = (2, 1, 4, 3), (2, 1, 3, 4)
        assert delta_distance(a, b) == 1
        assert gamma_distance(a, b) == 2

    def test_identity(self):
        assert delta_distance((3, 1, 2), (3, 1, 2)) == 0
        assert gamma_distance((3, 1, 2), (3, 1, 2)) == 0

    def test_reversal(self):
        assert delta_distance((1, 2, 3), (3, 2, 1)) == 2
        assert gamma_distance((1, 2, 3), (3, 2, 1)) == 4

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length mismatch"):
            delta_distance((1, 2), (1, 2, 3))
        with pytest.raises(ValueError, match="length mismatch"):
            gamma_distance((1, 2), (1, 2, 3))

    @given(int_windows, st.data())
    def test_metric_axioms(self, w1, data):
        w2 = data.draw(st.lists(st.integers(-1000, 1000), min_size=len(w1), max_size=len(w1)))
        w3 = data.draw(st.lists(st.integers(-1000, 1000), min_size=len(w1), max_size=len(w1)))
        a, b, c = compute_ranks(w1), compute_ranks(w2), compute_ranks(w3)
        for dist in (delta_distance, gamma_distance):
            assert dist(a, b) == dist(b, a)
            assert dist(a, a) == 0
            assert (dist(a, b) == 0) == (a == b)
            assert dist(a, c) <= dist(a, b) + dist(b, c)

    @given(int_windows, st.data())
    def test_delta_gamma_sandwich(self, w1, data):
        w2 = data.draw(st.lists(st.integers(-1000, 1000), min_size=len(w1), max_size=len(w1)))
        a, b = compute_ranks(w1), compute_ranks(w2)
        assert delta_distance(a, b) <= gamma_distance(a, b)
        assert gamma_distance(a, b) <= len(a) * delta_distance(a, b)


class TestIsOccurrence:
    def test_known_positive(self):
        params = MiningParams(delta=1, gamma=2, minsup=1)
        assert is_occurrence((2, 1, 4, 3), (13, 11, 18, 23), params)

    def test_known_negative(self):
        # window ranks (2,4,1,3): position 3 is off by 3, beyond delta
        params = MiningParams(delta=1, gamma=2, minsup=1)
        assert not is_occurrence((2, 1, 4, 3), (12, 15, 10, 13), params)

    def test_zero_distance_matches_itself(self):
        params = MiningParams(delta=0, gamma=0, minsup=1)
        assert is_occurrence((2, 4, 1, 3), (12, 15, 10, 13), params)

    def test_length_mismatch_raises(self):
        params = MiningParams(delta=1, gamma=2, minsup=1)
        with pytest.raises(ValueError, match="length mismatch"):
            is_occurrence((1, 2), (1.0, 2.0, 3.0), params)


class TestScanOccurrences:
    def test_known_occurrence_sets(self):
        series = TimeSeries(SAMPLE_VALUES)
        params = MiningParams(delta=1, gamma=2, minsup=1)
        assert scan_occurrences((2, 1, 4, 3), series, params) == (4, 7, 12, 13)
        assert scan_occurrences((2, 3, 1, 4), series, params) == (1, 3, 6, 11)

    def test_series_shorter_than_pattern(self):
        series = TimeSeries((1.0, 2.0, 3.0))
        params = MiningParams(delta=0, gamma=0, minsup=1)
        assert scan_occurrences((1, 2, 3, 4), series, params) == ()

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=30), st.integers(2, 4))
    def test_exact_mode_equals_rank_equality(self, values, m):
        series = TimeSeries(tuple(float(v) for v in values))
        params = MiningParams(delta=0, gamma=0, minsup=1)
        for pattern in itertools.permutations(range(1, m + 1)):
            expected = tuple(
                t
                for t in range(1, len(values) - m + 2)
                if compute_ranks(values[t - 1 : t - 1 + m]) == pattern
            )
            assert scan_occurrences(pattern, series, params) == expected


class TestTypes:
    def test_time_series_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            TimeSeries((1.0, float("nan")))

    def test_time_series_empty_is_fine(self):
        assert len(TimeSeries(())) == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(delta=-1, gamma=0, minsup=1),
            dict(delta=0, gamma=-2, minsup=1),
            dict(delta=0, gamma=0, minsup=0),
            dict(delta=0, gamma=0, minsup=1, max_len=0),
            dict(delta=True, gamma=0, minsup=1),
            dict(delta=0, gamma=False, minsup=1),
            dict(delta=0, gamma=0, minsup=True),
            dict(delta=0, gamma=0, minsup=1, max_len=True),
        ],
    )
    def test_params_validation(self, kwargs):
        with pytest.raises(ValueError):
            MiningParams(**kwargs)

    def test_delta_gamma_are_independent_bounds(self):
        MiningParams(delta=5, gamma=1, minsup=1)  # delta > gamma is allowed
