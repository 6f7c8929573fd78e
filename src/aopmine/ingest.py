"""Loading series files and run configuration.

Two series formats are supported: plain (one decimal number per line) and
RFC-4180-style CSV with the column chosen by name or 0-based index. Run
configuration is a flat ``key = value`` text file whose grammar is documented
in docs/formats.md; command-line flags override file values.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from pathlib import Path
from typing import Any, Callable, Iterator

from .core import MiningParams, Record, TimeSeries
from .errors import ConfigError, DataError
from .miner import ALGORITHMS

FORMATS = ("plain", "csv")
_BLOCK = 1 << 16  # characters of plain text parsed at a time
# one line and its ending, split as io.StringIO(newline="") splits it
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


class DatasetSpec(Record):
    """Where and how to read one series.

    ``format`` is "plain" or "csv"; None picks "csv" for a .csv suffix, else
    "plain". ``column`` (csv only) is a column name or 0-based index. ``name``
    labels the series; None or "" picks the file's stem.
    """

    __slots__ = ("path", "format", "column", "name")

    def __init__(
        self,
        path: str | Path,
        format: str | None = None,
        column: int | str | None = None,
        name: str | None = None,
    ) -> None:
        path = Path(path)
        if format is None:
            format = "csv" if path.suffix.lower() == ".csv" else "plain"
        if format not in FORMATS:
            raise ConfigError(f"unknown format {format!r}; expected one of {FORMATS}")
        # type(...), not isinstance: bool subclasses int, and True would pick column 1
        if column is not None and type(column) not in (int, str):
            raise ConfigError(f"column must be a name or a 0-based index, got {column!r}")
        if isinstance(column, int) and column < 0:
            raise ConfigError(f"column index must be >= 0, got {column}")
        if column is not None and format == "plain":
            raise ConfigError(f"column {column!r} given for plain-format input {path}")
        self._fill(path, format, column, name or path.stem)


def load_series(spec: DatasetSpec) -> TimeSeries:
    """Read one numeric series from disk, preserving sample order."""
    path = spec.path
    text = _read_text(path, DataError, "cannot read")
    if spec.format == "plain":
        values = _parse_plain(text, path)
    else:
        values = _parse_csv(text, path, spec.column)
    if not values:
        raise DataError(f"{path}: empty series")
    return TimeSeries(values, name=spec.name)  # its __init__ makes the one tuple


def _read_text(path: Path, error: type[Exception], cannot_read: str) -> str:
    """The file's text, less any byte-order mark; ``error`` names an unreadable
    file after ``cannot_read``, and the line of a byte that is not UTF-8."""
    try:  # not read_text: its incremental decoder drops a truncated byte-order mark
        return path.read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise error(f"{cannot_read} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # the line as str.splitlines numbers it; exc.start counts in
        # exc.object, the bytes after any byte-order mark, so count there too
        line = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        raise error(f"{path}:{line}: not UTF-8 text") from None


def _parse_plain(text: str, path: Path) -> list[float]:
    # in blocks that end just after a "\n", so none cuts a line or a "\r\n"
    values: list[float] = []
    start = 0
    try:
        while start < len(text):
            stop = text.find("\n", start + _BLOCK) + 1 or len(text)
            values += map(float, filter(None, map(str.strip, text[start:stop].splitlines())))
            start = stop
    except ValueError:
        pass
    else:
        if all(map(math.isfinite, values)):
            return values
    # a bad sample: parse line by line, so the error names its line
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        token = raw.strip()
        if token:
            values.append(_parse_sample(token, path, lineno))
    return values


def _parse_csv(text: str, path: Path, column: int | str | None) -> list[float]:
    rows = _csv_rows(text, path)
    first = next(rows, None)
    if first is None:
        return []

    col = 0 if column is None else column
    first_line, first_row = first
    if isinstance(col, str):
        if col not in first_row:
            raise DataError(f"{path}: column {col!r} not found in header {first_row}")
        index = first_row.index(col)
    else:
        index = col
        if index >= len(first_row):
            raise DataError(
                f"{path}:{first_line}: row has {len(first_row)} columns, need index {index}"
            )
        # a first row whose chosen cell is not numeric is taken as a header
        try:
            float(first_row[index])
        except ValueError:
            pass
        else:
            rows = itertools.chain((first,), rows)

    values = []
    for lineno, row in rows:
        if index >= len(row):
            raise DataError(f"{path}:{lineno}: row has {len(row)} columns, need column {col!r}")
        values.append(_parse_sample(row[index].strip(), path, lineno))
    return values


def _csv_rows(text: str, path: Path) -> Iterator[tuple[int, list[str]]]:
    """Each row holding a non-blank cell, after the number of the line it ends on;
    a row is parsed only when it is pulled, and the text is never copied whole."""
    reader = csv.reader(map(re.Match.group, _LINE.finditer(text)))
    try:
        for row in reader:
            if any(cell.strip() for cell in row):
                yield reader.line_num, row
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def _parse_sample(token: str, path: Path, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataError(f"{path}:{lineno}: unparseable value {token!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}:{lineno}: non-finite sample {token!r}")
    return value


def _convert_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _convert_column(value: str) -> int | str:
    # isdecimal, not isdigit: int() refuses digits such as "²", a header name
    return int(value, 10) if value.removeprefix("-").isdecimal() else value


def _one_of(choices: tuple[str, ...]) -> Callable[[str], str]:
    def convert(value: str) -> str:
        if value not in choices:
            raise ValueError(f"expected one of {choices}, got {value!r}")
        return value

    return convert


_CONFIG_KEYS: dict[str, Callable[[str], Any]] = {
    "input": str,
    "format": _one_of(FORMATS),
    "column": _convert_column,
    "name": str,
    "delta": int,
    "gamma": int,
    "minsup": int,
    "max_length": int,
    "algorithm": _one_of(ALGORITHMS),
    "output": str,
    "occurrences": _convert_bool,
}


def parse_config(path: str | Path) -> dict[str, Any]:
    """Parse the flat ``key = value`` run-configuration format.

    One assignment per line; blank lines and full-line ``#`` comments are
    ignored; keys may not repeat.
    """
    path = Path(path)
    text = _read_text(path, ConfigError, "cannot read config")
    values: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rhs = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](rhs.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return values


def build_run_config(values: dict[str, Any]) -> tuple[DatasetSpec, MiningParams]:
    """The series and the thresholds of one run, from merged config-file and
    CLI values, none of them None.

    ``input`` and ``minsup`` are required; delta and gamma default to 0, the
    exact-matching specialization.
    """
    for key in ("input", "minsup"):
        if key not in values:
            raise ConfigError(f"missing required key: {key}")
    try:
        delta, gamma = values.get("delta", 0), values.get("gamma", 0)
        params = MiningParams(delta, gamma, values["minsup"], values.get("max_length"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    spec = DatasetSpec(
        values["input"], values.get("format"), values.get("column"), values.get("name")
    )
    return spec, params
