from __future__ import annotations

import itertools
import random
import tracemalloc
import weakref
from pathlib import Path

import pytest

from aopmine import (
    MiningParams,
    MiningStats,
    TimeSeries,
    alar,
    checking,
    compute_ranks,
    delta_distance,
    fuse,
    fusion_pairs,
    gamma_distance,
    matching,
    mine,
    oracle_exact_opp,
    scan_occurrences,
    screen,
)
from aopmine.miner import _confirm, _length2_memo, _mark, _shape_index, rank_memo
from conftest import (
    SAMPLE_EXPECTED,
    SAMPLE_VALUES,
    freq_map,
    occurs,
    random_series,
    sample_frequent,
)

MINERS = ("aop", "nopruning", "em", "scan_em")


class TestScreen:
    def test_known_parents(self):
        assert screen((1, 3, 6, 11), (4, 7, 12, 13)) == (3, 6, 11)

    def test_empty_left(self):
        assert screen((), (1, 2, 3)) == ()

    def test_all_survive(self):
        assert screen((1, 2, 3), (2, 3, 4)) == (1, 2, 3)

    def test_empty_lists_and_boundary_positions(self):
        assert _screen_both((1, 2, 3), ()) == ()
        assert _screen_both((), ()) == ()
        assert _screen_both((), (2, 5)) == ()  # also against (2, 5) pre-marked
        assert _screen_both((1,), (2,)) == (1,)
        assert _screen_both((1,), (1,)) == ()
        assert _screen_both((5,), (6,)) == (5,)  # probes one past the larger last position
        assert _screen_both((6,), (5,)) == ()
        assert _screen_both((1, 49_999), (2, 50_000)) == (1, 49_999)

    def test_equals_sorted_merge_on_random_lists(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(1, 200)
            a_p = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
            a_q = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
            assert _screen_both(a_p, a_q) == _merge_screen(a_p, a_q), (a_p, a_q)

    @pytest.mark.parametrize("a_p", [(5,), (1, 9), (1, 3, 9), (1, 3, 5), range(1, 10)])
    def test_premarked_array_shorter_than_the_probe_raises(self, a_p):
        """A pre-marked array must reach ``a_p``'s last position: a shorter one
        raises ``IndexError`` for any number of positions, a ``range`` too,
        rather than the probe dropping the positions past its end."""
        marked = _mark((2, 5), 4)  # slots 0..4, slots 1 and 4 set
        assert screen((1, 3, 4), marked) == (1, 4)
        assert screen(range(1, 5), marked) == (1, 4)
        with pytest.raises(IndexError):
            screen(a_p, marked)

    @pytest.mark.parametrize(
        "a_q, n", [((), 0), ((), 5), ((1,), 5), ((6,), 5), ((3, 6), 5), ((1, 2), 1), ((2, 4), 7)]
    )
    def test_mark_equals_a_set_reference(self, a_q, n):
        # slot x (0 <= x <= n) is set exactly when x + 1 is in a_q; (6,) and
        # (3, 6) at n = 5 set the last slot, n itself
        marked = _mark(a_q, n)
        assert type(marked) is bytearray
        assert list(marked) == [int(x + 1 in set(a_q)) for x in range(n + 1)]


def _screen_both(a_p, a_q):
    """``screen`` given the second list, checked equal to ``screen`` given it pre-marked."""
    got = screen(a_p, a_q)
    assert screen(a_p, _mark(a_q, max(a_p[-1:] + a_q[-1:], default=0))) == got, (a_p, a_q)
    return got


def _merge_screen(a_p, a_q):
    """Reference: one merge pass over two sorted lists, x kept when x+1 is in a_q."""
    out = []
    i = j = 0
    while i < len(a_p) and j < len(a_q):
        want = a_p[i] + 1
        if a_q[j] < want:
            j += 1
        elif a_q[j] > want:
            i += 1
        else:
            out.append(a_p[i])
            i += 1
            j += 1
    return tuple(out)


class TestMatching:
    def test_screened_candidates(self, sample_series, sample_params):
        got = matching((3, 6, 11), (2, 3, 1, 5, 4), sample_series, sample_params)
        assert got == (6, 11)

    def test_iterator_candidates_equal_a_tuple(self, sample_series, sample_params):
        t = (2, 3, 1, 5, 4)
        got = matching(iter((3, 6, 11)), t, sample_series, sample_params)
        assert got == matching((3, 6, 11), t, sample_series, sample_params) == (6, 11)

    def test_screened_and_index_are_keyword_only(self, sample_series, sample_params):
        # a fifth positional argument (once a stats object) must not bind to
        # screened, which at delta = 0 would take the sign path unchecked
        with pytest.raises(TypeError):
            matching((3, 6, 11), (2, 3, 1, 5, 4), sample_series, sample_params, MiningStats())

    def test_all_fit_tuple_is_returned_itself(self, sample_series):
        candidates = (3, 6, 11)
        loose = MiningParams(delta=5, gamma=20, minsup=1)
        assert matching(candidates, (2, 3, 1, 5, 4), sample_series, loose) is candidates

    def test_partial_fit_is_a_new_filtered_tuple(self, sample_series, sample_params):
        candidates = (3, 6, 11)
        got = matching(candidates, (2, 3, 1, 5, 4), sample_series, sample_params)
        assert type(got) is tuple and got is not candidates and got == (6, 11)

    def test_all_fit_list_gives_an_equal_tuple(self, sample_series):
        loose = MiningParams(delta=5, gamma=20, minsup=1)
        got = matching([3, 6, 11], (2, 3, 1, 5, 4), sample_series, loose)
        assert type(got) is tuple and got == (3, 6, 11)

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
        # a level given a memo checks its positions before the memo is read
        ranks = rank_memo(len(sample_series))
        for bad in ((13,), (0,)):
            with pytest.raises(ValueError, match="out of range"):
                _confirm(
                    ((2, 3, 1, 5, 4),), bad, False, sample_series, sample_params, MiningStats(), ranks
                )
        assert ranks == rank_memo(len(sample_series))

    @pytest.mark.parametrize("prune", [False, True])
    @pytest.mark.parametrize("bad", [(13,), (0,), (1, 13), (0, 12)], ids=repr)
    def test_out_of_range_exact_group_is_refused_before_any_charge(self, sample_series, bad, prune):
        # a one-child exact group reads neither a memo nor shared end samples;
        # its positions are checked before any counter is charged, pruned or not
        stats = MiningStats()
        params = MiningParams(delta=0, gamma=0, minsup=2)
        with pytest.raises(ValueError, match="out of range"):
            _confirm(((2, 3, 1, 5, 4),), bad, prune, sample_series, params, stats, None)
        assert stats == MiningStats()

    def test_ascending_candidates_are_checked_at_both_ends(self, sample_series, sample_params):
        with pytest.raises(ValueError, match="position 13 out of range"):
            matching((1, 6, 13), (2, 3, 1, 5, 4), sample_series, sample_params)
        with pytest.raises(ValueError, match="position 0 out of range"):
            matching(range(0, 5), (1, 2), sample_series, sample_params)

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize(
        "positions", [range(1, 59), range(5, 58), range(7, 50, 3), range(20, 20)]
    )
    @pytest.mark.parametrize("t", [(1, 2), (2, 1), (2, 3, 1), (1, 3, 2)])
    def test_paired_sign_path_on_a_range_equals_the_same_positions(self, tied, positions, t):
        # a range's end samples are read as slices of the series, any other
        # candidate sequence position by position; each t's end ranks are
        # adjacent, so its parents have two children and the sign decides
        series = _three_symbols(3, 60) if tied else _gaussian_walk(3, 60)
        params = MiningParams(delta=0, gamma=0, minsup=1)
        got = matching(positions, t, series, params, screened=True)
        assert got == matching(tuple(positions), t, series, params, screened=True)

    @pytest.mark.parametrize("tie_free", [True, False])
    @pytest.mark.parametrize("delta", [0, 1, 2])
    @pytest.mark.parametrize("gamma", [0, 2, 4])
    def test_shared_memo_equals_the_window_scan(self, tie_free, delta, gamma):
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
                index = _shape_index(candidates, m, vals, ranks)
                got = matching(candidates, t, series, params, index=index)
                expected = tuple(
                    x for x in candidates if occurs(t, vals[x - 1 : x - 1 + m], params)
                )
                assert got == expected

    @pytest.mark.parametrize("holes", [False, True])
    @pytest.mark.parametrize("tie_free", [True, False])
    @pytest.mark.parametrize("delta", [0, 1, 2])
    @pytest.mark.parametrize("gamma", [0, 2, 4])
    def test_chained_memo_equals_the_window_scan(self, holes, tie_free, delta, gamma):
        # each level's memo is chained to the one before, as mine() does, so
        # most shapes are composed from the two shorter windows inside; with
        # holes, every other slot of the shorter shapes is blank and those
        # windows (x or x+1 missing) must be ranked directly
        rng = random.Random(100 + delta * 10 + gamma)
        if tie_free:
            series = random_series(rng, 60)
        else:
            series = TimeSeries(tuple(float(rng.randint(1, 3)) for _ in range(60)))
        params = MiningParams(delta=delta, gamma=gamma, minsup=1)
        vals = series.values
        n = len(vals)
        memo = rank_memo(n)
        memo[0][1:] = [(1,)] * n  # every length-1 window has the one shape (1,)
        for m in (2, 3, 4, 5):
            if holes:
                memo[0][2::2] = [None] * len(memo[0][2::2])
            ranks = rank_memo(n, memo[0])
            positions = range(1, n - m + 2)
            for t in itertools.permutations(range(1, m + 1)):
                candidates = sorted(rng.sample(positions, 2 * len(positions) // 3))
                index = _shape_index(candidates, m, vals, ranks)
                got = matching(candidates, t, series, params, index=index)
                expected = tuple(
                    x for x in candidates if occurs(t, vals[x - 1 : x - 1 + m], params)
                )
                assert got == expected
            shapes = ranks[0]
            for x in positions:
                assert shapes[x] is None or shapes[x] == compute_ranks(vals[x - 1 : x - 1 + m])
            memo = ranks


@pytest.mark.parametrize("filled", [False, True])
@pytest.mark.parametrize(
    "candidates",
    [range(1, 40), range(3, 30, 4), range(7, 8), range(9, 9), (5, 6, 20), [2, 11, 38], (17,), [39], ()],
    ids=repr,
)
def test_shape_index_reads_each_slot(candidates, filled):
    # the memo read gathers one shape per candidate, in order, for ranges,
    # tuples and lists of any length, the one-element and empty ones included;
    # filled, the memo is read once; empty, its slots are filled and read again
    series = _three_symbols(11, 42)
    vals = series.values
    m = 4
    ranks = rank_memo(len(vals))
    expected = tuple(compute_ranks(vals[x - 1 : x - 1 + m]) for x in candidates)
    if filled:
        ranks[0][1 : len(vals) - m + 2] = [
            compute_ranks(vals[x - 1 : x - 1 + m]) for x in range(1, len(vals) - m + 2)
        ]
    at, distinct = _shape_index(candidates, m, vals, ranks)
    assert type(at) is tuple and at == expected
    assert distinct == list(dict.fromkeys(expected))


@pytest.mark.parametrize("tied", [False, True])
def test_level_2_shape_index_reads_every_window(tied):
    # level 2 at delta > 0 reads the length-2 memo at range(1, n)
    series = _three_symbols(5, 300) if tied else _gaussian_walk(5, 300)
    vals = series.values
    n = len(vals)
    at, distinct = _shape_index(range(1, n), 2, vals, _length2_memo(vals))
    assert at == tuple(compute_ranks(vals[x - 1 : x + 1]) for x in range(1, n))
    assert sorted(distinct) == ([(1, 1), (1, 2), (2, 1)] if tied else [(1, 2), (2, 1)])


def test_level_2_shape_index_makes_no_object_per_window():
    # the memo read over range(1, n) builds only the result tuple (8 bytes
    # a window as it grows), and no int object or argument slot per window
    series = _gaussian_walk(0, 50_000)
    vals = series.values
    memo = _length2_memo(vals)
    tracemalloc.start()
    try:
        at, _ = _shape_index(range(1, len(vals)), 2, vals, memo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(at) == len(vals) - 1
    assert peak < 16 * len(at)


def test_level_2_keeps_one_int_object_per_window():
    # at delta 1, gamma 2 both length-2 shapes fit every window: level 2 keeps
    # one tuple of the windows' positions, which both occurrence lists are, and
    # one int object per window (8 + 28 bytes), not two of each
    series = _gaussian_walk(0, 50_000)
    n = len(series)
    memo = _length2_memo(series.values)
    params = MiningParams(delta=1, gamma=2, minsup=500)
    tracemalloc.start()
    try:
        level = _confirm(((1, 2), (2, 1)), range(1, n), False, series, params, MiningStats(), memo)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [fp.support for fp in level] == [n - 1, n - 1]
    assert kept < 48 * (n - 1)


def test_level_2_lists_are_one_tuple_when_every_window_fits():
    series = _gaussian_walk(0, 50_000)
    found, _ = mine(series, MiningParams(delta=1, gamma=2, minsup=500, max_len=2))
    a, b = (fp.occurrences for fp in found)
    assert type(a) is tuple and a is b and a == tuple(range(1, len(series)))


@pytest.mark.parametrize("kind", ["aop", "nopruning", "em"])
@pytest.mark.parametrize("tied", [False, True])
def test_equal_positions_are_one_int_object_across_levels(kind, tied):
    # every list of a run is drawn from level 2's one tuple: screening, the
    # prefix slices and matching keep their input's int objects, so a position
    # is one object in every list (scan_em starts each level from a fresh
    # tuple of its windows, so it shares only within a level)
    series = _three_symbols(1, 3_000) if tied else _gaussian_walk(1, 3_000)
    found, _ = mine(series, MiningParams(delta=1, gamma=2, minsup=30, max_len=6), kind)
    assert max(len(fp.pattern) for fp in found) >= 5
    first = {}
    for fp in found:
        assert all(first.setdefault(x, x) is x for x in fp.occurrences), fp.pattern
    assert max(first) > 2_000


@pytest.mark.parametrize("tied", [False, True])
def test_scan_em_shares_one_int_object_per_position_in_each_level(tied):
    # every scan_em group of a level is tried at the same tuple of window starts
    series = _three_symbols(1, 3_000) if tied else _gaussian_walk(1, 3_000)
    found, _ = mine(series, MiningParams(delta=1, gamma=2, minsup=30, max_len=6), "scan_em")
    assert max(len(fp.pattern) for fp in found) >= 5
    first = {}
    for fp in found:
        level = first.setdefault(len(fp.pattern), {})
        assert all(level.setdefault(x, x) is x for x in fp.occurrences), fp.pattern
    assert max(first[5]) > 2_000


def test_chained_memo_tells_ends_in_one_gap_apart():
    # two adjacent windows of length M share their interior 1..M-2, and their
    # ends sit in one gap of it in opposite order, so their shorter windows have
    # equal shapes and only the end sign of the composition key tells them apart
    for M in range(3, 15):
        k = (M - 2) // 2
        interior = [float(v) for v in range(1, M - 1)]
        vals = (k + 0.6, *interior, k + 0.3, k + 0.3, *interior, k + 0.6)
        memo = _length2_memo(vals)
        for m in range(3, M + 1):
            memo = rank_memo(len(vals), memo[0])
            positions = range(1, len(vals) - m + 2)
            at, _ = _shape_index(positions, m, vals, memo)
            expected = tuple(compute_ranks(vals[x - 1 : x - 1 + m]) for x in positions)
            assert at == expected, (M, m)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_cost_table_fit_equals_both_distances(m):
    # every rank vector of m samples, tied ones included, offered to matching
    # as the distinct shapes of one index: candidate i has shape i
    shapes = sorted({compute_ranks(w) for w in itertools.product(range(m), repeat=m)})
    series = TimeSeries(tuple(map(float, range(len(shapes) + m))))
    candidates = range(1, len(shapes) + 1)
    index = (shapes, shapes)
    for t in itertools.permutations(range(1, m + 1)):
        gaps = [(delta_distance(r, t), gamma_distance(r, t)) for r in shapes]
        for delta in (0, 1, 2, 5):
            for gamma in (0, 1, 2, 4, 8):
                params = MiningParams(delta=delta, gamma=gamma, minsup=1)
                got = matching(candidates, t, series, params, index=index)
                fit = [d <= delta and g <= gamma for d, g in gaps]
                assert got == tuple(itertools.compress(candidates, fit)), (t, delta, gamma)


@pytest.mark.parametrize("kind", MINERS)
@pytest.mark.parametrize("delta", [1, 2])
@pytest.mark.parametrize("tied", [False, True])
def test_children_share_one_shape_index_per_group(kind, delta, tied, monkeypatch):
    # at delta > 0 each candidate group indexes its positions' shapes once;
    # matching still runs once per child, every child against one candidates
    # object equal to the group's positions (a tuple of a range shared by
    # several children, else the positions themselves), and finds what it
    # finds with no index
    import aopmine.miner as miner

    real_confirm, real_matching = miner._confirm, miner.matching
    calls = []

    def recorded_matching(candidates, t, series, params, *, screened=False, index=None, ends=None):
        found = real_matching(
            candidates, t, series, params, screened=screened, index=index, ends=ends
        )
        assert found == real_matching(candidates, t, series, params), t
        calls.append((candidates, t, index))
        return found

    def checked_confirm(children, positions, prune, series, params, *rest):
        calls.clear()
        found = real_confirm(children, positions, prune, series, params, *rest)
        if not (prune and len(positions) < params.minsup):
            assert [t for _, t, _ in calls] == list(children)
            shared = calls[0][0]
            assert all(candidates is shared for candidates, _, _ in calls)
            assert tuple(shared) == tuple(positions)
            if isinstance(positions, range) and len(children) > 1:
                assert type(shared) is tuple
            else:
                assert shared is positions
            indexes = {id(index) for _, _, index in calls}
            assert len(indexes) == 1 and calls[0][2] is not None
            groups.append(len(children))
        return found

    groups = []
    monkeypatch.setattr(miner, "matching", recorded_matching)
    monkeypatch.setattr(miner, "_confirm", checked_confirm)
    n = 120 if kind == "scan_em" else 300
    series = _three_symbols(delta, n) if tied else _gaussian_walk(delta, n)
    found, _ = mine(series, MiningParams(delta=delta, gamma=2 * delta, minsup=6, max_len=6), kind)
    assert max(map(len, (fp.pattern for fp in found))) >= 4
    assert max(groups) > 1  # some group has several children


@pytest.mark.parametrize("kind", ["aop", "nopruning"])
@pytest.mark.parametrize("tied", [False, True])
def test_tie_groups_share_one_end_sample_read(kind, tied, monkeypatch):
    # at delta = 0 fusion matches by end order: a group of two children (a tie
    # group, or level 2's two shapes) reads its positions' end samples once and
    # hands that read to both matching calls, and a one-child group reads none;
    # matching still runs once per child, at the group's own positions, and
    # finds what it finds when it reads the samples itself
    import aopmine.miner as miner

    real_confirm, real_matching = miner._confirm, miner.matching
    calls = []

    def recorded_matching(candidates, t, series, params, *, screened=False, index=None, ends=None):
        found = real_matching(
            candidates, t, series, params, screened=screened, index=index, ends=ends
        )
        assert found == real_matching(candidates, t, series, params, screened=screened), t
        calls.append((candidates, t, index, ends))
        return found

    def checked_confirm(children, positions, prune, series, params, *rest):
        calls.clear()
        found = real_confirm(children, positions, prune, series, params, *rest)
        if not (prune and len(positions) < params.minsup):
            assert [t for _, t, _, _ in calls] == list(children)
            assert all(candidates is positions and index is None for candidates, _, index, _ in calls)
            reads = {id(ends) for _, _, _, ends in calls}
            ends = calls[0][3]
            if len(children) == 1:
                assert ends is None
            else:
                assert len(reads) == 1 and ends is not None
                m, vals = len(children[0]), series.values
                assert list(ends[0]) == [vals[x - 1] for x in positions]
                assert list(ends[1]) == [vals[x + m - 2] for x in positions]
            groups.append(len(children))
        return found

    groups = []
    monkeypatch.setattr(miner, "matching", recorded_matching)
    monkeypatch.setattr(miner, "_confirm", checked_confirm)
    series = _three_symbols(0, 300) if tied else _gaussian_walk(0, 300)
    found, _ = mine(series, MiningParams(delta=0, gamma=0, minsup=6, max_len=6), kind)
    # three symbols tie in every window of 4, which then fits no pattern at delta 0
    assert max(map(len, (fp.pattern for fp in found))) >= (3 if tied else 4)
    assert groups[0] == 2 and groups[1:].count(2) > 0 and groups.count(1) > 0


@pytest.mark.parametrize("kind", MINERS)
@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("tied", [False, True])
def test_windows_tested_are_the_positions_of_every_matching_call(kind, delta, tied, monkeypatch):
    # the level step charges a group's positions once per child it matches,
    # so the run's total is what matching is handed over all its calls
    import aopmine.miner as miner

    real_matching = miner.matching
    handed = []

    def counted_matching(candidates, t, series, params, **keywords):
        handed.append(len(candidates))
        return real_matching(candidates, t, series, params, **keywords)

    monkeypatch.setattr(miner, "matching", counted_matching)
    series = _three_symbols(delta, 150) if tied else _gaussian_walk(delta, 150)
    params = MiningParams(delta=delta, gamma=2 * delta, minsup=4, max_len=5)
    _, stats = mine(series, params, kind)
    assert stats.matching_windows_tested == sum(handed) > 0
    assert max(stats.candidates_generated) >= 4  # alar grew at least two levels


class TestChecking:
    def test_pruned_before_matching(self, sample_series, sample_params):
        # three screened positions < minsup 4: pruned without a window test
        stats = MiningStats()
        got = checking(
            (2, 3, 1, 5, 4), (1, 3, 6, 11), (4, 7, 12, 13), sample_series, sample_params, stats
        )
        assert got is None
        assert stats.candidates_generated == {5: 1}
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
        assert stats.candidates_generated == {5: 1}
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
    """The baseline rows of the strategy table, one level at a time."""

    def test_em_keeps_all_fitting_prefix_occurrences(self, sample_series):
        # (1, 2, 3, 4) occurs at 3, 4, 12, 13; a length-5 window at 13 would
        # run off the 16 samples, so its 5 extensions are tried at 3, 4, 12
        params = MiningParams(delta=1, gamma=2, minsup=3)
        stats = MiningStats()
        alar([sample_frequent((1, 2, 3, 4))], sample_series, params, stats, kind="em")
        assert stats.candidates_generated == {5: 5}
        assert stats.matching_windows_tested == 5 * 3
        assert stats.patterns_pruned_by_count == 0

    def test_em_prunes_when_too_few_fit(self, sample_series, sample_params):
        # the same three fitting positions are below minsup 4
        stats = MiningStats()
        got = alar([sample_frequent((1, 2, 3, 4))], sample_series, sample_params, stats, kind="em")
        assert got == ()
        assert stats.patterns_pruned_by_count == 5
        assert stats.matching_windows_tested == 0

    def test_nopruning_matches_below_threshold(self, sample_series, sample_params):
        # one fusible pair, one child (2, 3, 1, 5, 4), screened positions
        # (3, 6, 11): below minsup 4, matched anyway
        level = [sample_frequent((2, 3, 1, 4)), sample_frequent((2, 1, 4, 3))]
        stats = MiningStats()
        got = alar(level, sample_series, sample_params, stats, kind="nopruning")
        assert got == ()
        assert stats.candidates_generated == {5: 1}
        assert stats.patterns_pruned_by_count == 0
        assert stats.matching_windows_tested == 3
        pruned = MiningStats()
        alar(level, sample_series, sample_params, pruned, kind="aop")
        assert pruned.patterns_pruned_by_count == 1
        assert pruned.matching_windows_tested == 0

    def test_scan_em_tests_every_window(self, sample_series, sample_params):
        stats = MiningStats()
        alar([sample_frequent((2, 3, 1, 4))], sample_series, sample_params, stats, kind="scan_em")
        assert stats.candidates_generated == {5: 5}
        assert stats.matching_windows_tested == 5 * 12

    @pytest.mark.parametrize("kind", ["aop", "nopruning"])
    def test_fusion_screens_once_per_pair(self, kind, sample_series, sample_params, monkeypatch):
        # (1, 3, 2) with (2, 1, 3) is a two-child pair: both children share
        # one screened list
        import aopmine.miner as miner

        calls = []
        real_screen = miner.screen
        monkeypatch.setattr(miner, "screen", lambda a, b: calls.append(1) or real_screen(a, b))
        level = [sample_frequent((1, 3, 2)), sample_frequent((2, 1, 3))]
        stats = MiningStats()
        alar(level, sample_series, sample_params, stats, kind=kind)
        pairs = list(fusion_pairs(fp.pattern for fp in level))
        assert len(calls) == len(pairs) < stats.total_candidates

    @pytest.mark.parametrize("kind", ["aop", "nopruning"])
    def test_each_right_hand_pattern_is_marked_once_per_level(self, kind, monkeypatch):
        import aopmine.miner as miner

        marked, levels = [], []
        real_mark, real_alar = miner._mark, miner.alar

        def counted_mark(a_q, n):
            marked.append(a_q)
            return real_mark(a_q, n)

        def checked_alar(level, *args, **kwargs):
            marked.clear()
            grown = real_alar(level, *args, **kwargs)
            by_pattern = {fp.pattern: fp.occurrences for fp in level}
            pairs = list(fusion_pairs(by_pattern))
            rights = {q for _, q in pairs}
            assert sorted(map(id, marked)) == sorted(id(by_pattern[q]) for q in rights)
            levels.append((len(rights), len(pairs)))
            return grown

        monkeypatch.setattr(miner, "_mark", counted_mark)
        monkeypatch.setattr(miner, "alar", checked_alar)
        mine(_gaussian_walk(3, 2000), MiningParams(delta=0, gamma=0, minsup=20), kind)
        assert any(rights < pairs for rights, pairs in levels)  # some q serves several p

    def test_unknown_kind_rejected(self, sample_series, sample_params):
        with pytest.raises(ValueError, match="strategy"):
            alar([sample_frequent((1, 2, 3))], sample_series, sample_params, kind="oracle")


@pytest.mark.parametrize("kind", MINERS)
def test_level_memo_is_garbage_two_levels_on(kind, monkeypatch):
    # mine() gives each level's rank memo only the previous level's shapes,
    # so when alar grows a level only that level's memo is alive, and of the
    # earlier memos only the previous shapes, as its shorter shapes. Exact
    # fusion matches every level by sign and builds no memo at all
    import aopmine.miner as miner

    class Shapes(list):  # list and dict subclasses can be weakly referenced
        pass

    class Composed(dict):
        pass

    memos = []  # (shapes, composed) of every memo made, weakly
    real_rank_memo, real_alar = miner.rank_memo, miner.alar

    def tracked_rank_memo(n, shorter=None):
        shapes, shorter, composed = real_rank_memo(n, shorter)
        shapes, composed = Shapes(shapes), Composed(composed)
        memos.append((weakref.ref(shapes), weakref.ref(composed)))
        return shapes, shorter, composed

    def checked_alar(level, series, params, stats, kind, ranks):
        if ranks is not None:  # memos[-1] is this level's, memos[-2] the previous one
            alive = [(shapes() is not None, composed() is not None) for shapes, composed in memos]
            assert alive == [(False, False)] * (len(memos) - 2) + [(True, False), (True, True)]
            assert ranks[0] is memos[-1][0]() and ranks[1] is memos[-2][0]()
        return real_alar(level, series, params, stats, kind, ranks)

    monkeypatch.setattr(miner, "rank_memo", tracked_rank_memo)
    monkeypatch.setattr(miner, "alar", checked_alar)
    series = TimeSeries(tuple(float(v) for v in range(30)))
    for delta in (0, 1):
        memos.clear()
        found, _ = mine(series, MiningParams(delta=delta, gamma=delta, minsup=5, max_len=7), kind)
        # lengths 2..7: six levels, five grown by alar
        assert sorted({len(fp.pattern) for fp in found}) == [2, 3, 4, 5, 6, 7]
        if delta == 0:
            assert len(found) == 6  # the one ascending shape of each length
        if delta == 0 and kind in ("aop", "nopruning"):
            assert memos == []
        else:
            assert len(memos) == 6
            assert [shapes() or composed() for shapes, composed in memos] == [None] * 6


def test_exact_em_composes_from_the_length_2_memo(monkeypatch):
    # at delta = 0 level 2 is matched without ranking, but it must still
    # leave every length-2 shape in the memo, so that em's level 3 composes
    # its windows rather than ranking each one (3,393 rankings if it did)
    import aopmine.miner as miner

    ranked = []
    real_compute_ranks = miner.compute_ranks
    monkeypatch.setattr(
        miner, "compute_ranks", lambda window: ranked.append(1) or real_compute_ranks(window)
    )
    found, _ = mine(_gaussian_walk(1, 3000), MiningParams(delta=0, gamma=0, minsup=30), "em")
    assert len(found) == 74
    assert 0 < len(ranked) <= 394  # the first window of each composition key


@pytest.mark.parametrize("kind", MINERS)
@pytest.mark.parametrize("delta", [0, 1, 2])
@pytest.mark.parametrize("tied", [False, True])
def test_mine_never_reads_an_empty_slot_without_its_shorter_shapes(kind, delta, tied, monkeypatch):
    # inside mine() every window a level reads has both its one-shorter
    # windows in the previous level's shapes (docs/lemmas.md, composition
    # lemma), so a window is ranked directly only for a new composition key,
    # and the memo maps composition keys one-to-one to shapes
    import aopmine.miner as miner

    empty = []
    real_shape_index = miner._shape_index

    def checked_shape_index(candidates, m, vals, ranks):
        shapes, shorter, composed = ranks
        for x in candidates:
            if shapes[x] is None:
                assert shorter is not None and shorter[x] is not None and shorter[x + 1] is not None
                empty.append(m)
        index = real_shape_index(candidates, m, vals, ranks)
        for key in composed:
            assert len(key) == 3 and key[2] in (-1, 0, 1), key
            assert all(type(s) is tuple and len(s) == m - 1 for s in key[:2]), key
        assert len(set(composed.values())) == len(composed)
        return index

    monkeypatch.setattr(miner, "_shape_index", checked_shape_index)
    n = 120 if kind == "scan_em" else 300
    series = _three_symbols(delta, n) if tied else _gaussian_walk(delta, n)
    mine(series, MiningParams(delta=delta, gamma=2 * delta, minsup=6), kind)
    if delta > 0 or kind in ("em", "scan_em"):
        assert max(empty) >= 4  # slots of level 4 or longer were filled
    else:
        assert empty == []  # exact fusion reads no shapes


@pytest.mark.parametrize("kind", MINERS)
@pytest.mark.parametrize("delta", [0, 1])
def test_length_2_memo_is_filled_only_when_read(kind, delta, monkeypatch):
    # exact fusion strategies match every level by sign; enumeration and
    # delta > 0 compose level 3 from the filled length-2 memo
    import aopmine.miner as miner

    fills = []
    real_fill = miner._length2_memo
    monkeypatch.setattr(miner, "_length2_memo", lambda vals: fills.append(1) or real_fill(vals))
    mine(_gaussian_walk(2, 200), MiningParams(delta=delta, gamma=delta, minsup=5), kind)
    assert len(fills) == (delta > 0 or kind in ("em", "scan_em"))


@pytest.mark.parametrize("kind", MINERS)
@pytest.mark.parametrize("delta", [0, 1])
def test_alar_without_a_memo_makes_at_most_one(kind, delta, monkeypatch):
    # a level grown with no memo given shares one fresh memo among all its
    # candidate groups; exact fusion reads no shapes and makes none
    import aopmine.miner as miner

    made = []
    real_rank_memo = miner.rank_memo

    def counted_rank_memo(n, prev=None):
        made.append(n)
        return real_rank_memo(n, prev)

    monkeypatch.setattr(miner, "rank_memo", counted_rank_memo)
    series = _gaussian_walk(3, 200)
    params = MiningParams(delta=delta, gamma=2 * delta, minsup=5)
    found, _ = mine(series, MiningParams(delta=delta, gamma=2 * delta, minsup=5, max_len=3), kind)
    level = [fp for fp in found if len(fp.pattern) == 3]
    made.clear()
    stats = MiningStats()
    grown = alar(level, series, params, stats, kind)
    assert grown and len(stats.candidates_generated) == 1
    assert made == ([] if delta == 0 and kind in ("aop", "nopruning") else [len(series)])


class TestMineGolden:
    @pytest.mark.parametrize("kind", MINERS)
    def test_sample_series_full_output(self, kind, sample_series, sample_params):
        found, _ = mine(sample_series, sample_params, kind)
        assert freq_map(found) == SAMPLE_EXPECTED

    def test_readme_library_example(self, capsys):
        # the README's Library example runs as written and finds the golden set
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = text.split("\n## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(example, namespace)
        assert freq_map(namespace["found"]) == SAMPLE_EXPECTED
        assert capsys.readouterr().out.count("\n") == len(SAMPLE_EXPECTED) + 1

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

    @pytest.mark.parametrize("kind", MINERS)
    def test_stats_are_only_deterministic_counters(self, kind, sample_series, sample_params):
        # no clock reading rides along: two runs of one input give equal stats
        # slots and no __dict__: an instance holds these three fields and nothing else
        assert MiningStats.__slots__ == (
            "candidates_generated", "matching_windows_tested", "patterns_pruned_by_count"
        )
        assert not hasattr(MiningStats(), "__dict__")
        assert mine(sample_series, sample_params, kind) == mine(
            sample_series, sample_params, kind
        )


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

    def test_monotone_series_needs_the_cap(self):
        series = TimeSeries(tuple(float(v) for v in range(30)))
        params = MiningParams(delta=0, gamma=0, minsup=5, max_len=6)
        found, _ = mine(series, params)
        assert {fp.pattern for fp in found} == {
            tuple(range(1, m + 1)) for m in range(2, 7)
        }


def _gaussian_walk(seed: int, n: int) -> TimeSeries:
    rng = random.Random(seed)
    x, values = 0.0, []
    for _ in range(n):
        x += rng.gauss(0, 1)
        values.append(x)
    return TimeSeries(tuple(values))


def _three_symbols(seed: int, n: int) -> TimeSeries:
    rng = random.Random(seed)
    return TimeSeries(tuple(float(rng.randint(1, 3)) for _ in range(n)))


# every strategy finds the same frequent set; each keeps its own counters:
# (candidates by length, windows tested, patterns pruned)
PINNED_RUNS = {
    "walk": (
        _gaussian_walk(12, 30),
        MiningParams(delta=1, gamma=1, minsup=4),
        {
            (1, 2): (1, 4, 5, 7, 12, 13, 14, 15, 16, 17, 18, 19, 21, 22, 24, 25, 28),
            (2, 1): (2, 3, 6, 8, 9, 10, 11, 20, 23, 26, 27, 29),
            (1, 2, 3): (4, 12, 13, 14, 15, 16, 17, 18, 21, 24),
            (1, 3, 2): (7, 19, 25, 28),
            (2, 1, 3): (3, 6, 11, 20, 23, 27),
            (3, 2, 1): (2, 8, 9, 10, 26),
            (1, 2, 3, 4): (12, 13, 14, 15, 16, 17),
            (2, 1, 3, 4): (3, 11, 20, 23),
            (1, 2, 3, 4, 5): (12, 13, 14, 15, 16),
            (1, 2, 3, 4, 5, 6): (12, 13, 14, 15),
        },
        {
            "aop": ({2: 2, 3: 6, 4: 11, 5: 2, 6: 1, 7: 1}, 118, 11),
            "nopruning": ({2: 2, 3: 6, 4: 11, 5: 2, 6: 1, 7: 1}, 141, 0),
            "em": ({2: 2, 3: 6, 4: 16, 5: 10, 6: 6, 7: 7}, 334, 4),
            "scan_em": ({2: 2, 3: 6, 4: 16, 5: 10, 6: 6, 7: 7}, 1236, 0),
        },
    ),
    "tied": (
        _three_symbols(13, 30),
        MiningParams(delta=1, gamma=2, minsup=4),
        {
            (1, 2): tuple(range(1, 30)),
            (2, 1): tuple(range(1, 30)),
            (1, 2, 3): (1, 2, 9, 10, 14, 17, 21, 22, 27, 28),
            (1, 3, 2): (2, 5, 7, 10, 15, 17, 20, 22, 25, 28),
            (2, 1, 3): (1, 4, 6, 9, 14, 16, 19, 21, 24, 27),
            (2, 3, 1): (3, 5, 7, 11, 15, 17, 18, 20, 23, 25),
            (3, 1, 2): (4, 6, 8, 12, 16, 18, 19, 21, 24, 26),
            (3, 2, 1): (3, 8, 11, 12, 18, 23, 24, 26),
            (2, 1, 3, 4): (1, 9, 21, 27),
            (2, 1, 4, 3): (1, 9, 21, 27),
            (2, 4, 3, 1): (2, 10, 17, 22),
            (3, 1, 4, 2): (4, 6, 16, 19),
            (4, 1, 3, 2): (4, 6, 16, 19, 24),
            (4, 2, 3, 1): (4, 6, 19, 24),
        },
        {
            "aop": ({2: 2, 3: 6, 4: 24, 5: 3}, 358, 5),
            "nopruning": ({2: 2, 3: 6, 4: 24, 5: 3}, 368, 0),
            "em": ({2: 2, 3: 6, 4: 24, 5: 30}, 535, 10),
            "scan_em": ({2: 2, 3: 6, 4: 24, 5: 30}, 1654, 0),
        },
    ),
}


@pytest.mark.parametrize("kind", MINERS)
@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
def test_pinned_frequent_set_and_counters(case, kind):
    series, params, expected, counters = PINNED_RUNS[case]
    found, stats = mine(series, params, kind)
    assert freq_map(found) == expected
    by_length, windows, pruned = counters[kind]
    assert stats.candidates_generated == by_length
    assert stats.matching_windows_tested == windows
    assert stats.patterns_pruned_by_count == pruned


def _per_pair_screened(level, n):
    """Reference fusion groups: every pair screened from both occurrence lists."""
    by_pattern = {fp.pattern: fp.occurrences for fp in level}
    for p, q in fusion_pairs(by_pattern):
        yield fuse(p, q).produced, screen(by_pattern[p], by_pattern[q])


@pytest.mark.parametrize("kind", ["aop", "nopruning"])
@pytest.mark.parametrize("delta", [0, 1, 2])
@pytest.mark.parametrize("tied", [False, True])
def test_grouped_screening_equals_per_pair_screening(tied, delta, kind, monkeypatch):
    # screening each q's marked list against every p of its group finds the
    # same occurrences and counters as screening pair by pair
    import aopmine.miner as miner

    series = _three_symbols(delta, 300) if tied else _gaussian_walk(delta, 300)
    params = MiningParams(delta=delta, gamma=2 * delta, minsup=6)
    found, stats = mine(series, params, kind)
    prune = miner.STRATEGIES[kind][1]
    monkeypatch.setitem(miner.STRATEGIES, kind, (_per_pair_screened, prune))
    assert mine(series, params, kind) == (found, stats)
    assert len(stats.candidates_generated) > 2  # alar grew at least two levels


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
                assert occurs(fp.pattern, window, sample_params)

    @pytest.mark.parametrize(
        "series, params",
        [
            (TimeSeries(SAMPLE_VALUES), MiningParams(delta=1, gamma=2, minsup=4)),
            (_gaussian_walk(0, 800), MiningParams(delta=2, gamma=4, minsup=20, max_len=5)),
        ],
        ids=["sample", "walk-800"],
    )
    def test_counter_dominance(self, series, params):
        runs = {kind: mine(series, params, kind)[1] for kind in MINERS}
        for length, count in runs["aop"].candidates_generated.items():
            assert count <= runs["em"].candidates_generated.get(length, 0)
        assert runs["aop"].total_candidates <= runs["em"].total_candidates
        windows = {kind: stats.matching_windows_tested for kind, stats in runs.items()}
        assert windows["aop"] <= windows["nopruning"] <= windows["scan_em"]
        assert windows["aop"] <= windows["em"] <= windows["scan_em"]

    def test_scan_em_window_count_is_definitional(self, sample_series, sample_params):
        # bootstrap 2*(n-1), then per level: candidates * (n - len + 1)
        _, stats = mine(sample_series, sample_params, "scan_em")
        n = len(SAMPLE_VALUES)
        expected = 2 * (n - 1)
        for length, count in stats.candidates_generated.items():
            if length > 2:
                expected += count * (n - length + 1)
        assert stats.matching_windows_tested == expected

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


def _bank_input(kind: str, n: int) -> TimeSeries:
    """Seed 0 of a benchmark input, generated and read back as the benchmark
    writes it: a Gaussian walk at 4 decimals, or uniform over {1, 2, 3}."""
    rng = random.Random(0)
    if kind == "walk":
        x, lines = 0.0, []
        for _ in range(n):
            x += rng.gauss(0.0, 1.0)
            lines.append(f"{x:.4f}")
    else:
        lines = [str(rng.randint(1, 3)) for _ in range(n)]
    return TimeSeries(map(float, lines))


@pytest.fixture(scope="module")
def long_walk():
    """The dense-approx input (800-sample walk), δ2/γ4/minsup 20, and the
    window-scan positions of every pattern of length 8 or more that aop
    reports, scanned once."""
    series = _bank_input("walk", 800)
    params = MiningParams(delta=2, gamma=4, minsup=20)
    found, _ = mine(series, params, "aop")
    scanned = {
        fp.pattern: scan_occurrences(fp.pattern, series, params)
        for fp in found
        if len(fp.pattern) >= 8
    }
    return series, params, scanned


FUSION_CANDIDATES = {2: 2, 3: 6, 4: 24, 5: 120, 6: 720, 7: 1527, 8: 483, 9: 181, 10: 31}
LONG_WALK_COUNTERS = {
    # candidates by length, windows tested, patterns pruned; aop's are the
    # counters benchmarks/expected.json records for dense-approx at seed 0
    "aop": (FUSION_CANDIDATES, 119_911, 1_463),
    "nopruning": (FUSION_CANDIDATES, 139_492, 0),
    "em": (
        {2: 2, 3: 6, 4: 24, 5: 120, 6: 720, 7: 2394, 8: 1632, 9: 909, 10: 230},
        344_791,
        7,
    ),
}


@pytest.mark.parametrize("kind", ["aop", "nopruning", "em"])
def test_occurrences_past_length_7_equal_a_window_scan(kind, long_walk):
    # no other tier-1 input has a frequent pattern longer than 7; the
    # counters catch a fault that drops or adds work from length 8 on even
    # where the frequent set survives it
    series, params, scanned = long_walk
    found, stats = mine(series, params, kind)
    long = {fp.pattern: fp.occurrences for fp in found if len(fp.pattern) >= 8}
    assert max(map(len, long)) == 9
    assert len(long) == 124
    assert long == scanned
    counters = (
        stats.candidates_generated,
        stats.matching_windows_tested,
        stats.patterns_pruned_by_count,
    )
    assert counters == LONG_WALK_COUNTERS[kind]


BASELINE_CANDIDATES = {2: 2, 3: 6, 4: 24, 5: 120, 6: 673}
BANK_COUNTERS = {
    # (input, params), then per strategy: patterns, candidates by length,
    # windows tested, patterns pruned; the counters benchmarks/expected.json
    # records for these workloads at seed 0
    "long-exact": (
        ("walk", 50_000, MiningParams(delta=0, gamma=0, minsup=500)),
        {
            "aop": (70, {2: 2, 3: 6, 4: 24, 5: 120, 6: 47, 7: 14, 8: 2}, 296_208, 121),
        },
    ),
    "baselines": (
        ("tri", 5_000, MiningParams(delta=1, gamma=2, minsup=50)),
        {
            "aop": (148, BASELINE_CANDIDATES, 79_270, 673),
            "nopruning": (148, BASELINE_CANDIDATES, 90_100, 0),
            "em": (148, {**BASELINE_CANDIDATES, 6: 696}, 167_668, 0),
        },
    ),
}


@pytest.mark.parametrize(
    "workload, kind",
    [(workload, kind) for workload, (_, runs) in BANK_COUNTERS.items() for kind in runs],
)
def test_bank_input_counters(workload, kind):
    # the long-exact and baselines seed-0 inputs; dense-approx's are pinned
    # by test_occurrences_past_length_7_equal_a_window_scan
    (series_kind, n, params), runs = BANK_COUNTERS[workload]
    found, stats = mine(_bank_input(series_kind, n), params, kind)
    counters = (
        len(found),
        stats.candidates_generated,
        stats.matching_windows_tested,
        stats.patterns_pruned_by_count,
    )
    assert counters == runs[kind]
