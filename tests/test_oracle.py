from __future__ import annotations

import random
import re

import pytest

from aopmine import (
    MiningParams,
    TimeSeries,
    mine,
    oracle_exact_opp,
    oracle_mine,
    scan_occurrences,
)
from conftest import SAMPLE_EXPECTED, freq_map, random_series


class TestOracleMine:
    def test_sample_series(self, sample_series, sample_params):
        got = oracle_mine(sample_series, sample_params, 5)
        assert freq_map(got) == SAMPLE_EXPECTED

    def test_strictly_increasing(self):
        series = TimeSeries(tuple(float(v) for v in range(10)))
        params = MiningParams(delta=0, gamma=0, minsup=5)
        got = oracle_mine(series, params, 3)
        assert freq_map(got) == {
            (1, 2): tuple(range(1, 10)),
            (1, 2, 3): tuple(range(1, 9)),
        }

    def test_empty_series(self):
        params = MiningParams(delta=0, gamma=0, minsup=1)
        assert oracle_mine(TimeSeries(()), params, 4) == ()

    def test_intractable_length_refused(self, sample_series, sample_params):
        with pytest.raises(ValueError, match="oracle intractable"):
            oracle_mine(sample_series, sample_params, 8)
        with pytest.raises(ValueError, match="oracle intractable"):
            oracle_exact_opp(sample_series, 2, 8)

    @pytest.mark.parametrize("max_len", [None, 8])
    def test_one_intractable_message(self, sample_series, max_len):
        # every route to the oracle is refused by its one guard, unset length included
        params = MiningParams(delta=1, gamma=2, minsup=4, max_len=max_len)
        refused = re.escape(f"oracle intractable: set max_len <= 7 (got {max_len})")
        with pytest.raises(ValueError, match=refused):
            oracle_mine(sample_series, params, max_len)
        with pytest.raises(ValueError, match=refused):
            oracle_exact_opp(sample_series, 2, max_len)
        with pytest.raises(ValueError, match=refused):
            mine(sample_series, params, "oracle")

    @pytest.mark.parametrize("max_len", [True, False, 0, -1, 2.5, 3.0, "4"])
    def test_max_len_that_is_not_a_positive_int_refused(self, sample_series, max_len):
        # with MiningParams' message; True, 0 and -1 once mined nothing silently
        # and 2.5 raised a bare TypeError from range
        message = f"max_len must be a positive integer, got {max_len!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            MiningParams(delta=0, gamma=0, minsup=2, max_len=max_len)
        with pytest.raises(ValueError, match=re.escape(message)):
            oracle_mine(sample_series, MiningParams(delta=1, gamma=2, minsup=2), max_len)
        with pytest.raises(ValueError, match=re.escape(message)):
            oracle_exact_opp(sample_series, 2, max_len)

    def test_supports_match_independent_recount(self, sample_series, sample_params):
        for fp in oracle_mine(sample_series, sample_params, 5):
            assert fp.occurrences == scan_occurrences(fp.pattern, sample_series, sample_params)


class TestOracleExactOpp:
    def test_equals_general_oracle_at_zero(self):
        rng = random.Random(42)
        for _ in range(15):
            series = random_series(rng, rng.randint(2, 50), tie_free=rng.random() < 0.5)
            minsup = rng.choice((1, 2, 4))
            params = MiningParams(delta=0, gamma=0, minsup=minsup)
            assert freq_map(oracle_exact_opp(series, minsup, 5)) == freq_map(
                oracle_mine(series, params, 5)
            )

    def test_minsup_below_one_refused(self, sample_series):
        with pytest.raises(ValueError, match="minsup must be a positive integer, got 0"):
            oracle_exact_opp(sample_series, 0, 4)

    @pytest.mark.parametrize("minsup", [True, False, 2.5, 1.0, "2", None])
    def test_minsup_that_is_not_an_int_refused(self, sample_series, minsup):
        # with MiningParams' message; True once mined silently at minsup 1
        message = f"minsup must be a positive integer, got {minsup!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            MiningParams(delta=0, gamma=0, minsup=minsup)
        with pytest.raises(ValueError, match=re.escape(message)):
            oracle_exact_opp(sample_series, minsup, 4)

    def test_identical_values_have_no_patterns(self):
        series = TimeSeries((3.0,) * 20)
        assert oracle_exact_opp(series, 1, 4) == ()

    def test_exact_subset_of_approximate(self, sample_series, sample_params):
        exact = freq_map(oracle_exact_opp(sample_series, 4, 5))
        approx = freq_map(oracle_mine(sample_series, sample_params, 5))
        assert set(exact) <= set(approx)
        for pattern, occs in exact.items():
            assert set(occs) <= set(approx[pattern])

    def test_sample_series_exact_patterns(self, sample_series):
        got = freq_map(oracle_exact_opp(sample_series, 4, 5))
        assert set(got) == {(1, 2), (2, 1)}
        assert len(got[(1, 2)]) == 8
        assert len(got[(2, 1)]) == 7


class TestOracleMonotonicity:
    def test_relaxing_parameters_never_shrinks_output(self):
        rng = random.Random(7)
        for _ in range(8):
            series = random_series(rng, 40)
            base = MiningParams(delta=1, gamma=2, minsup=3)
            base_map = freq_map(oracle_mine(series, base, 4))
            relaxed_runs = [
                MiningParams(delta=2, gamma=2, minsup=3),
                MiningParams(delta=1, gamma=4, minsup=3),
                MiningParams(delta=1, gamma=2, minsup=2),
            ]
            for relaxed in relaxed_runs:
                relaxed_map = freq_map(oracle_mine(series, relaxed, 4))
                assert set(base_map) <= set(relaxed_map)
                for pattern, occs in base_map.items():
                    assert set(occs) <= set(relaxed_map[pattern])
