"""The record contract shared by the six record types.

Each record is a value: equal fields make equal records of one class and
never equal ones of another; the read-only five hash as their field tuple and
refuse assignment and deletion, while ``MiningStats`` is mutable and has no
hash. Records print as ``Name(field=value, ...)`` and survive pickle and
``copy`` unchanged.
"""

from __future__ import annotations

import copy
import pickle
from pathlib import Path

import pytest

from aopmine import FrequentPattern, FusionResult, MiningParams, MiningStats, TimeSeries
from aopmine.ingest import DatasetSpec

# every field, in declaration order, with a value other than its default
RECORDS = {
    TimeSeries: {"values": (1.0, 2.5, -3.0), "name": "prices"},
    MiningParams: {"delta": 1, "gamma": 2, "minsup": 4, "max_len": 6},
    FrequentPattern: {"pattern": (2, 1, 3), "occurrences": (1, 4, 9)},
    FusionResult: {"produced": ((3, 1, 2, 4), (2, 1, 3, 4))},
    DatasetSpec: {"path": Path("runs/prices.csv"), "format": "csv", "column": "close",
                  "name": "prices"},
    MiningStats: {"candidates_generated": {2: 2, 3: 6}, "matching_windows_tested": 40,
                  "patterns_pruned_by_count": 3},
}

# the required arguments, and the fields of a record made from only them
DEFAULTS = {
    TimeSeries: (((7.0,),), ((7.0,), None)),
    MiningParams: ((0, 0, 1), (0, 0, 1, None)),
    FrequentPattern: (((1, 2), ()), ((1, 2), ())),
    FusionResult: ((((1, 2, 3),),), (((1, 2, 3),),)),
    DatasetSpec: (("runs/prices.txt",), (Path("runs/prices.txt"), "plain", None, "prices")),
    MiningStats: ((), ({}, 0, 0)),
}

READ_ONLY = [cls for cls in RECORDS if cls is not MiningStats]


def fields(record):
    return tuple(getattr(record, name) for name in record._fields)


def full(cls):
    return cls(*RECORDS[cls].values())


@pytest.fixture(params=list(RECORDS), ids=lambda cls: cls.__name__)
def cls(request):
    return request.param


@pytest.fixture(params=READ_ONLY, ids=lambda cls: cls.__name__)
def read_only(request):
    return request.param


class TestConstruction:
    def test_fields_in_declaration_order(self, cls):
        assert cls.__slots__ == cls._fields == tuple(RECORDS[cls])
        record = full(cls)
        assert fields(record) == tuple(RECORDS[cls].values())
        assert not hasattr(record, "__dict__")

    def test_positional_and_keyword_arguments_agree(self, cls):
        assert cls(**RECORDS[cls]) == full(cls)
        required, _ = DEFAULTS[cls]
        assert cls(**dict(zip(cls.__slots__, required))) == cls(*required)

    def test_defaults(self, cls):
        required, expected = DEFAULTS[cls]
        assert fields(cls(*required)) == expected

    def test_stats_get_a_fresh_dict_each(self):
        first, second = MiningStats(), MiningStats()
        first.candidates_generated[2] = 2
        assert second.candidates_generated == {}
        assert MiningStats().candidates_generated == {}

    def test_time_series_makes_a_float_tuple(self):
        series = TimeSeries(iter([3, 1.5, True]), "s")
        assert series.values == (3.0, 1.5, 1.0)
        assert all(type(v) is float for v in series.values)
        assert len(series) == 3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_time_series_refuses_a_non_finite_sample(self, bad):
        with pytest.raises(ValueError, match="non-finite sample"):
            TimeSeries((1.0, bad))

    @pytest.mark.parametrize(
        "args, expected",
        [
            (("d/x.CSV",), (Path("d/x.CSV"), "csv", None, "x")),
            ((Path("d/x.txt"), None, None, ""), (Path("d/x.txt"), "plain", None, "x")),
            (("d/x.dat", "csv", 0, "series"), (Path("d/x.dat"), "csv", 0, "series")),
        ],
    )
    def test_dataset_spec_normalises_path_format_and_name(self, args, expected):
        assert fields(DatasetSpec(*args)) == expected


class TestValue:
    def test_equal_fields_make_equal_records(self, cls):
        a, b = full(cls), full(cls)
        assert a is not b
        assert a == b and not a != b

    def test_different_fields_make_different_records(self, cls):
        assert full(cls) != cls(*DEFAULTS[cls][0])

    def test_another_class_of_the_same_fields_is_never_equal(self, cls):
        twin = type("Twin", (cls,), {"__slots__": ()})(**RECORDS[cls])
        assert twin._fields == cls._fields
        assert fields(twin) == fields(full(cls))
        assert full(cls) != twin and twin != full(cls)
        assert full(cls).__eq__(twin) is NotImplemented
        assert full(cls) != tuple(RECORDS[cls].values())

    def test_equal_records_hash_equal(self, read_only):
        a, b = full(read_only), full(read_only)
        assert hash(a) == hash(b) == hash(tuple(RECORDS[read_only].values()))
        assert len({a, b}) == 1

    def test_stats_have_no_hash(self):
        assert MiningStats.__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(MiningStats())

    def test_repr_names_every_field(self, cls):
        body = ", ".join(f"{name}={value!r}" for name, value in RECORDS[cls].items())
        assert repr(full(cls)) == f"{cls.__name__}({body})"

    def test_repr_as_a_dataclass_printed_it(self):
        assert repr(MiningParams(1, 2, 4)) == (
            "MiningParams(delta=1, gamma=2, minsup=4, max_len=None)"
        )
        assert repr(TimeSeries((1, 2), "s")) == "TimeSeries(values=(1.0, 2.0), name='s')"
        assert repr(MiningStats()) == (
            "MiningStats(candidates_generated={}, matching_windows_tested=0, "
            "patterns_pruned_by_count=0)"
        )


class TestReadOnly:
    def test_assignment_and_deletion_raise(self, read_only):
        record = full(read_only)
        for name in read_only.__slots__:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert fields(record) == tuple(RECORDS[read_only].values())

    def test_stats_are_mutable_but_hold_only_their_fields(self):
        stats = MiningStats()
        stats.matching_windows_tested += 5
        stats.patterns_pruned_by_count = 2
        assert fields(stats) == ({}, 5, 2)
        with pytest.raises(AttributeError):
            stats.wall_time = 0.1


class TestCopies:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, cls, protocol):
        record = full(cls)
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls
        assert back == record

    def test_copy_and_deepcopy_round_trip(self, cls):
        record = full(cls)
        for dup in (copy.copy(record), copy.deepcopy(record)):
            assert type(dup) is cls
            assert dup == record

    def test_deepcopy_of_stats_owns_its_dict(self):
        stats = full(MiningStats)
        dup = copy.deepcopy(stats)
        dup.candidates_generated[4] = 1
        assert stats.candidates_generated == {2: 2, 3: 6}
