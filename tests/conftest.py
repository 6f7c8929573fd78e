from __future__ import annotations

import random

import pytest

from aopmine import FrequentPattern, MiningParams, TimeSeries, scan_occurrences

# 16-sample golden fixture: at delta=1, gamma=2, minsup=4 its full frequent set
# and every occurrence list below were confirmed by definitional brute force.
SAMPLE_VALUES = (12, 15, 10, 13, 11, 18, 23, 9, 26, 20, 13, 16, 12, 19, 25, 20)

SAMPLE_EXPECTED = {
    (1, 2): tuple(range(1, 16)),
    (2, 1): tuple(range(1, 16)),
    (1, 2, 3): (3, 4, 5, 7, 8, 12, 13, 14),
    (1, 3, 2): (1, 3, 5, 6, 8, 11, 13, 14),
    (2, 1, 3): (2, 4, 5, 7, 10, 12, 13),
    (2, 3, 1): (1, 3, 6, 8, 9, 11, 14),
    (3, 1, 2): (2, 4, 7, 9, 10, 12),
    (3, 2, 1): (1, 2, 6, 9, 10, 11),
    (1, 2, 3, 4): (3, 4, 12, 13),
    (2, 1, 4, 3): (4, 7, 12, 13),
    (2, 3, 1, 4): (1, 3, 6, 11),
}


@pytest.fixture
def sample_series() -> TimeSeries:
    return TimeSeries(SAMPLE_VALUES, name="sample16")


@pytest.fixture
def sample_params() -> MiningParams:
    return MiningParams(delta=1, gamma=2, minsup=4)


def freq_map(found) -> dict:
    """Frequent patterns as {rank vector: occurrence positions}."""
    return {fp.pattern: fp.occurrences for fp in found}


def sample_frequent(pattern) -> FrequentPattern:
    return FrequentPattern(pattern, SAMPLE_EXPECTED[pattern])


def occurs(pattern, window, params) -> bool:
    """Whether one window of the pattern's length fits it within both bounds,
    by the reference window scan."""
    return scan_occurrences(pattern, TimeSeries(window), params) == (1,)


def random_series(rng: random.Random, n: int, tie_free: bool = True) -> TimeSeries:
    if tie_free:
        values = tuple(rng.random() for _ in range(n))
    else:
        values = tuple(float(rng.randint(0, 9)) for _ in range(n))
    return TimeSeries(values)
