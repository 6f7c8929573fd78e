"""The paper's claim on one planted instance: (δ, γ) mining finds a trend that
exact order-preserving mining misses.

A length-6 shape is planted 60 times into a seeded Gaussian walk, but every
other copy has two adjacent ranks swapped, one δ-step and γ 2 away from the
shape. Exact mining sees only the unswapped half, below minsup; at δ 1/γ 2
every planted copy counts. The seed is fixed, not searched for.
"""

from __future__ import annotations

import random

import pytest

from aopmine import (
    MiningParams,
    TimeSeries,
    delta_distance,
    gamma_distance,
    mine,
    scan_occurrences,
)

SHAPE = (1, 4, 2, 6, 3, 5)
SWAPPED = (1, 3, 2, 6, 4, 5)  # ranks 3 and 4 exchanged
SITES = range(50, 6000, 100)  # 1-based first sample of each plant


@pytest.fixture(scope="module")
def planted() -> TimeSeries:
    rng = random.Random(0)
    x, values = 0.0, []
    for _ in range(6000):
        x += rng.gauss(0, 1)
        values.append(x)
    for i, site in enumerate(SITES):
        base = values[site - 1]
        for k, rank in enumerate(SHAPE if i % 2 == 0 else SWAPPED):
            values[site - 1 + k] = base + 3 * rank
    return TimeSeries(tuple(values))


def test_sixty_plants_half_of_them_swapped_within_delta_1_gamma_2():
    assert len(SITES) == 60
    assert (delta_distance(SWAPPED, SHAPE), gamma_distance(SWAPPED, SHAPE)) == (1, 2)


def test_exact_mining_misses_the_shape(planted):
    params = MiningParams(delta=0, gamma=0, minsup=40, max_len=6)
    found, _ = mine(planted, params, "aop")
    assert SHAPE not in {fp.pattern for fp in found}
    assert len(scan_occurrences(SHAPE, planted, params)) == 31


def test_approximate_mining_finds_every_plant(planted):
    params = MiningParams(delta=1, gamma=2, minsup=40, max_len=6)
    found, _ = mine(planted, params, "aop")
    occurrences = {fp.pattern: fp.occurrences for fp in found}[SHAPE]
    assert set(SITES) <= set(occurrences)
    assert occurrences == scan_occurrences(SHAPE, planted, params)
