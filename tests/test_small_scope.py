"""Every strategy equals the definitional oracle on every order of a few samples.

A series' frequent patterns depend only on the order of its samples, ties
included, so the weak orders of n samples (every tuple over 0..k-1 that uses
each of those k values) cover every series of length n. Each strategy mines
all of them, for n = 4 over a grid of delta, gamma and minsup and for n = 5
over a smaller one, and must report exactly the oracle's patterns and
occurrence lists. At delta = 0 the exact-match oracle must agree as well.
"""

from __future__ import annotations

import itertools

import pytest

from aopmine import MiningParams, TimeSeries, mine, oracle_exact_opp, oracle_mine
from aopmine.miner import STRATEGIES
from conftest import freq_map


def weak_orders(n: int) -> list[TimeSeries]:
    return [
        TimeSeries(values)
        for values in itertools.product(range(n), repeat=n)
        if set(values) == set(range(max(values) + 1))
    ]


WEAK_ORDERS = {4: weak_orders(4), 5: weak_orders(5)}
GRID = [
    (4, delta, gamma, minsup)
    for delta, gamma in ((0, 0), (1, 1), (1, 2), (2, 2), (2, 4))
    for minsup in (1, 2, 3)
] + [(5, delta, gamma, 2) for delta, gamma in ((0, 0), (1, 2), (2, 4))]


def test_weak_orders_are_counted_by_the_fubini_numbers():
    assert {n: len(orders) for n, orders in WEAK_ORDERS.items()} == {4: 75, 5: 541}


@pytest.mark.parametrize("n, delta, gamma, minsup", GRID)
def test_every_strategy_equals_the_oracle(n, delta, gamma, minsup):
    params = MiningParams(delta=delta, gamma=gamma, minsup=minsup)
    for series in WEAK_ORDERS[n]:
        expected = freq_map(oracle_mine(series, params, n))
        if delta == 0:
            assert freq_map(oracle_exact_opp(series, minsup, n)) == expected, series.values
        for kind in STRATEGIES:
            assert freq_map(mine(series, params, kind)[0]) == expected, (kind, series.values)
