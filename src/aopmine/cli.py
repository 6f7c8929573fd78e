"""Command-line front end: ``mine``, ``bench``, and ``check``.

The three subcommands mirror the three workflows: analyzing one series,
comparing algorithm strategies on it, and validating the engine against the
definitional reference miner. Exit codes: 0 success, 1 usage error, 2 data
error, 3 verification mismatch (``check`` against the reference miner, or
``bench`` strategies against each other).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Sequence, TextIO

from . import __version__
from .core import FrequentPattern
from .errors import ConfigError, DataError
from .ingest import _CONFIG_KEYS, FORMATS, DatasetSpec, _convert_column
from .ingest import build_run_config, load_series, parse_config
from .miner import ALGORITHMS, mine
from .oracle import require_tractable
from .report import bench_table, write_bench, write_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MISMATCH = 3

OUTPUT_DIR_ENV = "AOPMINE_OUTPUT_DIR"
DIFF_LINES = 20  # differing patterns shown per disagreement


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aopmine", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mine = sub.add_parser("mine", help="mine frequent patterns and write a JSON report")
    _add_run_flags(p_mine)
    p_mine.add_argument("--algorithm", choices=ALGORITHMS, help="mining strategy (default aop)")
    p_mine.add_argument(
        "--occurrences",
        action="store_const",
        const=True,
        default=None,
        help="always include occurrence positions in the report",
    )
    p_mine.add_argument("--output", help="report path (default <name>.report.json)")
    p_mine.set_defaults(func=cmd_mine)

    p_bench = sub.add_parser("bench", help="compare algorithm strategies on one dataset")
    _add_run_flags(p_bench)
    p_bench.add_argument(
        "--algorithms", required=True, help="comma-separated strategy names, e.g. aop,em"
    )
    p_bench.add_argument(
        "--repeat", type=int, default=1, help="timing repetitions per algorithm (default 1)"
    )
    p_bench.add_argument("--output", help="bench CSV path (default <name>.bench.csv)")
    p_bench.set_defaults(func=cmd_bench)

    p_check = sub.add_parser("check", help="cross-validate the engine against the reference miner")
    _add_run_flags(p_check)
    p_check.set_defaults(func=cmd_check)
    return parser


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="series file to read")
    p.add_argument("--format", choices=FORMATS, help="series file format (default: by suffix)")
    p.add_argument(
        "--column", type=_convert_column, help="csv column name or 0-based index (default 0)"
    )
    p.add_argument("--delta", type=int, help="per-position rank error bound (default 0)")
    p.add_argument("--gamma", type=int, help="total rank error bound (default 0)")
    p.add_argument("--minsup", type=int, help="absolute occurrence-count threshold (required)")
    p.add_argument("--max-length", type=int, dest="max_length", help="cap on pattern length")
    p.add_argument("--config", help="flat key = value config file; flags override it")
    p.add_argument(
        "--threads",
        type=_thread_count,
        default=1,
        help="accepted for compatibility and ignored: mining runs in one thread (must be >= 1)",
    )


def _thread_count(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _collect_values(args: argparse.Namespace) -> dict[str, Any]:
    """Config-file values overridden by every flag given; each flag's dest is
    its config key. A file key the command does not use is refused."""
    values = parse_config(args.config) if args.config else {}
    for key in values:
        if key != "name" and key not in args:
            raise ConfigError(f"{args.config}: {args.command} does not use config key {key!r}")
    for key in _CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    return values


def _resolve_output(
    spec: DatasetSpec, output: str | None, suffix: str, config_path: str | None
) -> Path:
    """The command's one output path, refused when it is the series file or
    the config file, so a run never overwrites what it reads, or when it is
    a directory or its directory is missing, so a run never mines what it
    cannot write."""
    if output is None:
        path = Path(os.environ.get(OUTPUT_DIR_ENV, ".")) / f"{spec.name}.{suffix}"
    else:
        path = Path(output)
    for source in filter(None, (spec.path, config_path)):
        if path.exists() and Path(source).exists() and path.samefile(source):
            raise ConfigError(f"output {path} is the input {source}; refusing to overwrite it")
    if not path.parent.is_dir():
        raise DataError(f"cannot write {path}: {path.parent} is not a directory")
    if path.is_dir():
        raise DataError(f"cannot write {path}: it is a directory")
    return path


def cmd_mine(args: argparse.Namespace) -> int:
    values = _collect_values(args)
    spec, params = build_run_config(values)
    out_path = _resolve_output(spec, values.get("output"), "report.json", args.config)
    series = load_series(spec)
    algorithm = values.get("algorithm", "aop")
    found, stats = mine(series, params, algorithm)
    write_report(
        out_path,
        series.name,
        algorithm,
        params,
        found,
        stats,
        include_occurrences=values.get("occurrences"),
    )
    _print_pattern_summary(found)
    print(f"report: {out_path}")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    # a repeated name is one run and one row, at its first mention
    names = list(dict.fromkeys(filter(None, map(str.strip, args.algorithms.split(",")))))
    if not names:
        raise ConfigError("--algorithms needs at least one name")
    for name in names:
        if name not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")
    if args.repeat < 1:
        raise ConfigError(f"--repeat must be >= 1, got {args.repeat}")

    values = _collect_values(args)
    spec, params = build_run_config(values)
    out_path = _resolve_output(spec, values.get("output"), "bench.csv", args.config)
    series = load_series(spec)
    rows = []

    def run(name: str) -> Sequence[FrequentPattern]:
        """The strategy's patterns; its row (pattern count, counters, mean
        seconds) is appended. No repeat's result is held while the next one runs."""
        times = []
        for _ in range(args.repeat):
            result = None  # drop the last repeat's before this one runs
            start = time.perf_counter()
            result = mine(series, params, name)
            times.append(time.perf_counter() - start)
        found, stats = result
        rows.append((name, len(found), stats, math.fsum(times) / len(times)))
        return found

    agree = _mine_and_compare(names, run, params.max_len, sys.stderr)
    write_bench(rows, out_path)
    print("\n".join(bench_table(rows)))
    print(f"bench: {out_path}")
    return EXIT_OK if agree else EXIT_MISMATCH


def cmd_check(args: argparse.Namespace) -> int:
    values = _collect_values(args)
    values.setdefault("max_length", 5)
    spec, params = build_run_config(values)
    series = load_series(spec)

    def run(name: str) -> Sequence[FrequentPattern]:
        found = mine(series, params, name)[0]
        print(f"{name}: {len(found)} patterns")
        return found

    agree = _mine_and_compare(("oracle", "aop"), run, params.max_len, sys.stdout)
    print(f"verdict: {'MATCH' if agree else 'MISMATCH'}")
    return EXIT_OK if agree else EXIT_MISMATCH


def _mine_and_compare(
    names: Sequence[str], run: Callable[[str], Sequence], max_len: int | None, out: TextIO
) -> bool:
    """Mine each strategy with ``run``, in order, and whether every one found the
    first one's patterns and occurrences; each one that did not is named on ``out``
    as it finishes, then the diff. A listed oracle refuses an intractable ``max_len``
    before any mining. Only the first strategy's occurrence map outlives its run."""
    if "oracle" in names:
        require_tractable(max_len)
    first, *rest = names
    reference = {fp.pattern: fp.occurrences for fp in run(first)}
    agree = True
    for name in rest:
        got = {fp.pattern: fp.occurrences for fp in run(name)}
        if got != reference:
            agree = False
            print(
                f"warning: {name} and {first} disagree on the frequent patterns "
                "or their occurrences",
                file=out,
            )
            _print_diff(name, got, first, reference, out)
        del got  # not held while the next strategy runs
    return agree


def _print_pattern_summary(found: Sequence[FrequentPattern]) -> None:
    by_length = Counter(len(fp.pattern) for fp in found)
    print(f"patterns found: {len(found)}")
    for length in sorted(by_length):
        print(f"  length {length}: {by_length[length]}")


def _print_diff(a: str, a_map: dict, b: str, b_map: dict, out: TextIO) -> None:
    """One line per pattern whose occurrence lists differ between strategies
    ``a`` and ``b``: supports, then the positions found on one side only. The
    first ``DIFF_LINES`` are shown, then ``  ...``."""
    patterns = sorted(set(a_map) | set(b_map), key=lambda p: (len(p), p))
    differing = [p for p in patterns if a_map.get(p, ()) != b_map.get(p, ())]
    for pattern in differing[:DIFF_LINES]:
        left, right = a_map.get(pattern, ()), b_map.get(pattern, ())
        print(
            f"  {pattern}: {a}={len(left)} {b}={len(right)}; "
            f"{a} only {sorted(set(left) - set(right))}, "
            f"{b} only {sorted(set(right) - set(left))}",
            file=out,
        )
    if len(differing) > DIFF_LINES:
        print("  ...", file=out)
