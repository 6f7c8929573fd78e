from __future__ import annotations

import csv
import random
import re
import tracemalloc
from pathlib import Path

import pytest

from aopmine.core import MiningParams, compute_ranks
from aopmine.errors import ConfigError, DataError
from aopmine.ingest import (
    _BLOCK,
    _CONFIG_KEYS,
    DatasetSpec,
    _convert_column,
    _csv_rows,
    build_run_config,
    load_series,
    parse_config,
)


class TestLoadPlain:
    def test_basic(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("12\n15\n10\n13\n")
        series = load_series(DatasetSpec(path))
        assert series.values == (12.0, 15.0, 10.0, 13.0)
        assert series.name == "series"

    def test_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_bytes(b"1\r\n\r\n2\r\n  \r\n3\r\n")
        assert load_series(DatasetSpec(path)).values == (1.0, 2.0, 3.0)

    def test_unparseable_token_names_line(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("1\n2\nabc\n4\n")
        with pytest.raises(DataError, match=r"series\.txt:3.*'abc'"):
            load_series(DatasetSpec(path))

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("1\nnan\n")
        with pytest.raises(DataError, match=r":2.*non-finite"):
            load_series(DatasetSpec(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("\n\n")
        with pytest.raises(DataError, match="empty series"):
            load_series(DatasetSpec(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_series(DatasetSpec(tmp_path / "nope.txt"))

    def test_round_trip_full_precision(self, tmp_path):
        values = (0.1, 1 / 3, 2.5e-17, 123456789.123456789, -7.25)
        path = tmp_path / "series.txt"
        path.write_text("".join(f"{v!r}\n" for v in values))
        assert load_series(DatasetSpec(path)).values == values

    def test_explicit_name(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("1\n2\n")
        assert load_series(DatasetSpec(path, name="prices")).name == "prices"


    def test_utf8_byte_order_mark(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one
        path = tmp_path / "bom.txt"
        path.write_text("\ufeff12\n15\n", encoding="utf-8")
        assert load_series(DatasetSpec(path)).values == (12.0, 15.0)


def _whole_text_parse(text: str) -> tuple[float, ...]:
    return tuple(map(float, filter(None, map(str.strip, text.splitlines()))))


def _lines(count: int, end: str) -> str:
    return "".join(f"{i * 0.37 - 50:.4f}{end}" for i in range(count))


class TestLoadPlainBlocks:
    # plain text is parsed in blocks of about _BLOCK characters, each ending
    # just after a newline; every input here spans several blocks and must
    # parse exactly as the whole text does
    @pytest.mark.parametrize("shift", range(4))
    def test_crlf_at_a_cut(self, tmp_path, shift):
        # "\r" lands on each side of the first block's end in turn
        head = " " * (_BLOCK - 4 + shift) + "7\r\n"
        text = head + _lines(3 * _BLOCK // 9, "\r\n")
        path = tmp_path / "series.txt"
        path.write_bytes(text.encode())
        assert load_series(DatasetSpec(path)).values == _whole_text_parse(text)

    @pytest.mark.parametrize(
        "text",
        [
            _lines(_BLOCK // 4, "\n\n  \n"),  # blank lines
            _lines(_BLOCK // 3, "\x0c") + _lines(_BLOCK // 3, "\u2028") + "5\n",
            "\ufeff" + _lines(_BLOCK // 4, "\n"),  # a byte-order mark
            _lines(_BLOCK // 4, "\n") + "12.5",  # no trailing newline
        ],
        ids=["blank-lines", "formfeed-and-line-separator", "bom", "no-trailing-newline"],
    )
    def test_equals_a_whole_text_parse(self, tmp_path, text):
        path = tmp_path / "series.txt"
        path.write_text(text, encoding="utf-8")
        expected = _whole_text_parse(text.lstrip("\ufeff"))
        assert len(text) > 2 * _BLOCK
        assert load_series(DatasetSpec(path)).values == expected

    def test_bad_sample_in_a_later_block_names_its_line(self, tmp_path):
        count = 3 * _BLOCK // 9
        path = tmp_path / "series.txt"
        path.write_text(_lines(count, "\n") + "oops\n" + _lines(5, "\n"))
        with pytest.raises(DataError, match=rf"series\.txt:{count + 1}: .*'oops'"):
            load_series(DatasetSpec(path))


class TestLoadCsv:
    def test_utf8_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffclose,vol\n12,1\n15,2\n", encoding="utf-8")
        assert load_series(DatasetSpec(path, column="close")).values == (12.0, 15.0)

    def test_column_by_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("date,close\n2020-01-01,12\n2020-01-02,15\n")
        series = load_series(DatasetSpec(path, column="close"))
        assert series.values == (12.0, 15.0)

    def test_column_by_index_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("date,close\na,1\nb,2\n")
        assert load_series(DatasetSpec(path, column=1)).values == (1.0, 2.0)

    def test_column_by_index_headerless(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,9\n2,8\n")
        assert load_series(DatasetSpec(path, column=0)).values == (1.0, 2.0)

    def test_format_inferred_from_suffix(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("v\n5\n6\n")
        assert load_series(DatasetSpec(path)).values == (5.0, 6.0)

    def test_quoted_fields(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('label,"value"\n"a, b",3\n"c",4\n')
        assert load_series(DatasetSpec(path, column="value")).values == (3.0, 4.0)

    def test_missing_column_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="column 'close' not found"):
            load_series(DatasetSpec(path, column="close"))

    def test_bad_cell_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("v\n1\nbad\n")
        with pytest.raises(DataError, match=r":3.*'bad'"):
            load_series(DatasetSpec(path, column="v"))

    def test_row_the_csv_module_refuses_names_its_line(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "data.csv"
        path.write_text("close\n1\n" + "9" * (limit + 1) + "\n2\n")
        with pytest.raises(DataError) as exc:
            load_series(DatasetSpec(path, column="close"))
        assert str(exc.value) == f"{path}:3: field larger than field limit ({limit})"

    def test_rows_are_parsed_as_they_are_read(self, tmp_path):
        # no list of every row: the load peaks below 12 bytes per byte of the
        # file, where a list of the rows took over 20
        rng = random.Random(0)
        values = [round(rng.gauss(0, 100), 3) for _ in range(20_000)]
        path = tmp_path / "data.csv"
        path.write_text("t,close\n" + "".join(f"{i},{v}\n" for i, v in enumerate(values)))
        plain = tmp_path / "series.txt"
        plain.write_text("".join(f"{v}\n" for v in values))
        tracemalloc.start()
        try:
            series = load_series(DatasetSpec(path, column="close"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * path.stat().st_size
        assert series.values == load_series(DatasetSpec(plain)).values

    def test_rows_are_read_without_a_copy_of_the_text(self, tmp_path):
        # the reader is fed lines straight from the decoded text: an
        # io.StringIO copy of it took about 4 bytes per character, 16 times
        # this bound, where the reader alone peaks at under a third of it
        rng = random.Random(0)
        text = "t,close\n" + "".join(
            f"{i},{round(rng.gauss(0, 100), 3)}\n" for i in range(20_000)
        )
        tracemalloc.start()
        try:
            rows = sum(1 for _ in _csv_rows(text, tmp_path / "data.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 20_001
        assert peak < len(text) // 4

    @pytest.mark.parametrize("nl", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_endings(self, tmp_path, nl):
        path = tmp_path / "data.csv"
        path.write_bytes(f"t,close{nl}0,1.5{nl}{nl}1,-2{nl}2,3".encode())
        assert load_series(DatasetSpec(path, column="close")).values == (1.5, -2.0, 3.0)
        path.write_bytes(f"t,close{nl}0,1{nl}{nl}1,bad{nl}".encode())
        with pytest.raises(DataError, match=f"{re.escape(str(path))}:4: unparseable value 'bad'"):
            load_series(DatasetSpec(path, column="close"))

    @pytest.mark.parametrize("nl", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_quoted_field_spanning_lines(self, tmp_path, nl):
        # the row ends on the field's last line, and later rows keep their numbers
        path = tmp_path / "data.csv"
        head = f'label,close{nl}"two{nl}lines",1{nl}c,2{nl}'
        path.write_bytes(head.encode())
        assert load_series(DatasetSpec(path, column="close")).values == (1.0, 2.0)
        path.write_bytes(f"{head}d,bad{nl}".encode())
        with pytest.raises(DataError, match=f"{re.escape(str(path))}:5: unparseable value 'bad'"):
            load_series(DatasetSpec(path, column="close"))
        path.write_bytes(f'label,close{nl}"a{nl}b",bad{nl}'.encode())
        with pytest.raises(DataError, match=f"{re.escape(str(path))}:3: unparseable value 'bad'"):
            load_series(DatasetSpec(path, column="close"))

    def test_short_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match=":3"):
            load_series(DatasetSpec(path, column=1))

    def test_only_blank_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(",\n  ,  \n\n")
        with pytest.raises(DataError, match="data.csv: empty series"):
            load_series(DatasetSpec(path))

    def test_first_row_shorter_than_the_column_index(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(DataError, match="data.csv:1: row has 2 columns, need index 2"):
            load_series(DatasetSpec(path, column=2))

    def test_negative_column_index_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        for column in (-1, -5):
            with pytest.raises(ConfigError, match=f"column index must be >= 0, got {column}"):
                DatasetSpec(path, column=column)

    def test_column_on_plain_input_rejected(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("1\n2\n")
        for column in (0, 3, "close"):
            with pytest.raises(ConfigError, match=f"column {column!r} given for plain-format"):
                DatasetSpec(path, column=column)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {path}\ncolumn = close\nminsup = 2\n")
        with pytest.raises(ConfigError, match="column 'close' given for plain-format"):
            build_run_config(parse_config(cfg))
        assert DatasetSpec(path, format="csv", column=0).column == 0

    def test_samples_are_doubles(self, tmp_path):
        # 2^53 + 1 has no double of its own: it rounds to 2^53 and ties with it
        path = tmp_path / "big.txt"
        path.write_text("9007199254740993\n9007199254740992\n1\n")
        values = load_series(DatasetSpec(path)).values
        assert values == (9007199254740992.0, 9007199254740992.0, 1.0)
        assert compute_ranks(values) == (2, 2, 1)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown format"):
            DatasetSpec(tmp_path / "x.dat", format="parquet")


class TestNotUtf8:
    """A file that is not UTF-8 is refused with its path and the line of the
    first bad byte; a series file is a data error, a config file a config error."""

    @pytest.mark.parametrize(
        "name, data, line",
        [
            ("series.txt", b"1\n2\n3\xff\n", 3),
            ("series.txt", b"\xff1\n", 1),
            ("series.txt", b"1\r\n2\r\n\xe93\r\n", 3),
            ("series.txt", b"1\r2\r\xff\r", 3),
            # the byte-order mark is not counted into the line
            ("bom.txt", b"\xef\xbb\xbf1\n2\n3\xff\n", 3),
            ("data.csv", b"close,vol\n1,2\n3,\xff\n", 3),
            ("bom.csv", b"\xef\xbb\xbfclose\n1\n2\n\xc3\n", 4),
            # the first one or two bytes of a byte-order mark, and nothing else
            ("ef.txt", b"\xef", 1),
            ("efbb.txt", b"\xef\xbb", 1),
        ],
    )
    def test_series_names_the_line(self, tmp_path, name, data, line):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(DataError) as exc:
            load_series(DatasetSpec(path))
        assert str(exc.value) == f"{path}:{line}: not UTF-8 text"

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"minsup = 2\ninput = \xe9.txt\n", 2),
            (b"\xef\xbb\xbf\xffminsup = 2\n", 1),
            (b"\xef\xbb", 1),
        ],
        ids=["plain", "bom", "truncated-bom"],
    )
    def test_config_names_the_line(self, tmp_path, data, line):
        path = tmp_path / "run.conf"
        path.write_bytes(data)
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert str(exc.value) == f"{path}:{line}: not UTF-8 text"

    def test_a_whole_byte_order_mark_alone_is_an_empty_series(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf")
        with pytest.raises(DataError) as exc:
            load_series(DatasetSpec(path))
        assert str(exc.value) == f"{path}: empty series"


class TestColumnChoice:
    @pytest.mark.parametrize(
        "raw, column",
        [("0", 0), ("12", 12), ("-1", -1), ("close", "close"), ("²", "²"), ("-²", "-²"),
         ("--1", "--1"), ("1.5", "1.5")],
    )
    def test_only_decimal_digits_make_an_index(self, raw, column):
        assert _convert_column(raw) == column

    def test_superscript_header_is_a_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,²\n1,5\n2,7\n", encoding="utf-8")
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"input = {path}\ncolumn = ²\nminsup = 1\n", encoding="utf-8")
        spec, _ = build_run_config(parse_config(cfg))
        assert spec.column == "²"
        assert load_series(spec).values == (5.0, 7.0)

    @pytest.mark.parametrize("column", [True, False, 1.0, b"close"])
    def test_column_of_another_type_rejected(self, tmp_path, column):
        # bool subclasses int: True would silently pick column 1, and the
        # others failed later with a TypeError
        message = f"column must be a name or a 0-based index, got {column!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            DatasetSpec(tmp_path / "data.csv", column=column)


class TestDatasetSpec:
    def test_format_and_name_resolved_from_the_path(self):
        spec = DatasetSpec("x.CSV")
        assert (spec.path, spec.format, spec.name) == (Path("x.CSV"), "csv", "x")
        assert (DatasetSpec("x.txt").format, DatasetSpec("x").format) == ("plain", "plain")

    def test_explicit_format_and_name_kept(self):
        spec = DatasetSpec("x.CSV", format="plain", name="prices")
        assert (spec.format, spec.name) == ("plain", "prices")
        assert DatasetSpec("x.txt", format="csv").format == "csv"


class TestParseConfig:
    def test_utf8_byte_order_mark(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("\ufeffminsup = 2\n", encoding="utf-8")
        assert parse_config(path) == {"minsup": 2}

    def test_full_config(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# mining run\n"
            "input = data.csv\n"
            "format = csv\n"
            "column = close\n"
            "delta = 2\n"
            "gamma = 4\n"
            "minsup = 1000\n"
            "algorithm = aop\n"
            "max_length = 6\n"
            "occurrences = true\n"
            "\n"
        )
        values = parse_config(path)
        assert values["delta"] == 2
        assert values["gamma"] == 4
        assert values["minsup"] == 1000
        assert values["column"] == "close"
        assert values["occurrences"] is True

    def test_integer_column(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("input = x.csv\ncolumn = 3\nminsup = 2\n")
        assert parse_config(path)["column"] == 3

    def test_documented_keys_are_the_accepted_keys(self):
        text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
        section = text.split("## Run configuration", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\| `(\w+)`", section, flags=re.MULTILINE)
        assert sorted(documented) == sorted(_CONFIG_KEYS)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("inptu = x.txt\n")
        with pytest.raises(ConfigError, match=r":1.*unknown key 'inptu'"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("minsup = 2\nminsup = 3\n")
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("minsup 2\n")
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config(path)

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("minsup = soon\n")
        with pytest.raises(ConfigError, match="bad value for 'minsup'"):
            parse_config(path)

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("occurrences", "maybe", "expected a boolean, got 'maybe'"),
            ("format", "xml", r"expected one of \('plain', 'csv'\), got 'xml'"),
            ("algorithm", "warp", r"expected one of \('aop', .*'oracle'\), got 'warp'"),
        ],
    )
    def test_value_not_among_the_choices(self, tmp_path, key, value, problem):
        path = tmp_path / "run.conf"
        path.write_text(f"minsup = 2\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f":2: bad value for '{key}': {problem}"):
            parse_config(path)


class TestRunResolution:
    def test_minimal_defaults_to_exact_matching(self):
        # the defaults of the algorithm and of the occurrence cutoff are the
        # command's: test_cli's test_minimal_run_mines_aop_with_the_automatic_cutoff
        spec, params = build_run_config({"input": "x.txt", "minsup": 4})
        assert params == MiningParams(delta=0, gamma=0, minsup=4)
        assert spec == DatasetSpec("x.txt")

    def test_missing_required_key_is_named(self):
        with pytest.raises(ConfigError, match="missing required key: minsup"):
            build_run_config({"input": "x.txt"})
        with pytest.raises(ConfigError, match="missing required key: input"):
            build_run_config({"minsup": 3})

    def test_negative_delta_rejected(self):
        with pytest.raises(ConfigError, match="delta"):
            build_run_config({"input": "x.txt", "minsup": 2, "delta": -1})

    def test_parameters_mirrored(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("input = x.txt\nminsup = 1000\ndelta = 2\ngamma = 4\n")
        _, params = build_run_config(parse_config(path))
        assert params.delta == 2
        assert params.gamma == 4
        assert params.minsup == 1000
