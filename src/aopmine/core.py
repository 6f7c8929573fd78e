"""The records, the rank calculus and the two integer distances.

A window of numeric samples is reduced to its rank vector: each element's
rank is one plus the number of strictly smaller elements in the same window.
Two equal-length rank vectors are compared with a per-position bound (delta)
and a total bound (gamma); a window "occurs" for a pattern when both bounds
hold. The miner's matching kernel applies that test, and so does the oracle
module's window scan, from the definition. Records are immutable and every
function here is pure.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Sequence

RankVector = tuple[int, ...]
Pattern = tuple[int, ...]
OccurrenceSet = tuple[int, ...]


class Record:
    """A read-only value whose fields are named in ``__slots__``.

    ``_fields`` lists them in declaration order, a subclass's after its base's.
    Records of one class are equal when their fields are, hash as their field
    tuple and print as ``Name(field=value, ...)``; a record never equals one of
    another class. Fields are set once, by ``__init__`` through ``_fill``, and
    assigning or deleting one raises ``AttributeError``. Pickle and ``copy``
    rebuild a record by calling its class with its fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def _fill(self, *values: object) -> None:
        """Set the fields, in ``_fields`` order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class TimeSeries(Record):
    """An ordered sequence of finite numeric samples with an optional label;
    ``values`` is the samples as a tuple of floats."""

    __slots__ = ("values", "name")

    def __init__(self, values: Iterable[float], name: str | None = None) -> None:
        vals = tuple(map(float, values))
        if not all(map(math.isfinite, vals)):
            raise ValueError("non-finite sample")
        self._fill(vals, name)

    def __len__(self) -> int:
        return len(self.values)


class MiningParams(Record):
    """Thresholds for one mining run.

    ``delta`` bounds the rank error at any single position, ``gamma`` bounds
    the total rank error over the window, and ``minsup`` is the absolute
    number of occurrences a pattern needs to count as frequent. ``max_len``
    optionally caps the pattern length; by default mining runs until no
    pattern of the next length is frequent.
    """

    __slots__ = ("delta", "gamma", "minsup", "max_len")

    def __init__(self, delta: int, gamma: int, minsup: int, max_len: int | None = None) -> None:
        # type(...) is int, not isinstance: bool subclasses int
        if type(delta) is not int or delta < 0:
            raise ValueError(f"delta must be a non-negative integer, got {delta!r}")
        if type(gamma) is not int or gamma < 0:
            raise ValueError(f"gamma must be a non-negative integer, got {gamma!r}")
        if type(minsup) is not int or minsup < 1:
            raise ValueError(f"minsup must be a positive integer, got {minsup!r}")
        if max_len is not None and (type(max_len) is not int or max_len < 1):
            raise ValueError(f"max_len must be a positive integer, got {max_len!r}")
        self._fill(delta, gamma, minsup, max_len)


class FrequentPattern(Record):
    """A pattern together with its sorted 1-based occurrence positions."""

    __slots__ = ("pattern", "occurrences")

    def __init__(self, pattern: Pattern, occurrences: OccurrenceSet) -> None:
        self._fill(pattern, occurrences)

    @property
    def support(self) -> int:
        return len(self.occurrences)


def compute_ranks(window: Sequence[float]) -> RankVector:
    """Rank vector of a window: rank_i = 1 + count of strictly smaller peers.

    Tied values receive equal ranks, so only tie-free windows produce
    permutations of 1..m.
    """
    if len(window) == 0:
        raise ValueError("empty window")
    for v in window:
        if not math.isfinite(v):
            raise ValueError("non-finite sample")
    ordered = sorted(window)
    return tuple(1 + bisect_left(ordered, v) for v in window)


def delta_distance(a: RankVector, b: RankVector) -> int:
    """Largest per-position gap between two equal-length rank vectors."""
    _require_same_length(a, b)
    return max((abs(x - y) for x, y in zip(a, b)), default=0)


def gamma_distance(a: RankVector, b: RankVector) -> int:
    """Total per-position gap between two equal-length rank vectors."""
    _require_same_length(a, b)
    return sum(abs(x - y) for x, y in zip(a, b))


def _require_same_length(a: Sequence[int], b: Sequence[int]) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
