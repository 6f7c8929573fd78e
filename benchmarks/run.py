#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the aopmine CLI.

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

The benchmark is a closed loop with one client: it runs one CLI command
(``python3 -m aopmine mine|bench ... --threads 1``) as a child process at a
time, checks its output against the result recorded for the input, and
starts the next one, for S seconds. Inputs are generated from the seed
(see workloads.py) and written to a file before any timing starts.

--trace 0 reports the end-to-end metrics:
  wall_mean_s  mean wall time of one command, spawn to exit: the run's
               command time over its command count, the inverse of the
               closed loop's throughput (the median, quartiles, minimum
               and sample count are printed above the result line as
               "wall_s")
  setup_s      median time for a fresh interpreter to import aopmine and
               run ingest.load_series on the input (two after each
               command, so that they sample the same stretch of time)
  peak_rss_mb  median peak resident memory of the command's process (MiB)

Why the mean and not the median: on a shared host the speed of the same
code drifts by up to ~1.9x in phases of several seconds, so the wall times
within a run are spread wide, often in two clusters, and the median jumps
between them from run to run. The mean integrates the whole run; on wall
times recorded on a 2-vCPU shared VM its spread across 44 s windows was
about half the median's.

--trace 1 alternates untraced commands with traced ones (tracer.py, which
runs cli.main in its own process with the layers wrapped) and reports the
per-layer metrics: medians of the traced times, the boundary counts (which
must repeat exactly), and trace.overhead_s, the mean traced wall time
minus the mean untraced one.

``--workload all`` interleaves every workload, one command of each per
round, for S seconds each, and prints every workload's metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A command that exits
nonzero or fails its output check counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import BANK, WORKLOADS, Workload, check_output, cli_args, generate, load_expected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PER_ROUND = 2

SETUP_CODE = (
    "import sys; import aopmine; from aopmine.ingest import DatasetSpec, load_series; "
    "load_series(DatasetSpec(sys.argv[1]))"
)


class Spawner:
    """Runs child processes through spawner.py, which see for why."""

    def __enter__(self) -> "Spawner":
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is not None:
            self.proc.terminate()  # the spawner kills and reaps its running child
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], cwd: Path) -> tuple[int, float, float, str]:
        """Run one child to completion: exit code, wall seconds, peak RSS in MiB, stderr."""
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        reply = json.loads(line)
        stderr = (cwd / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        return reply["code"], reply["wall_s"], reply["rss_mb"], stderr


class Session:
    """One workload's input, expected result and samples within a run."""

    def __init__(self, spawner: Spawner, workload: Workload, seed: int, workdir: Path, expected: dict) -> None:
        self.spawner = spawner
        self.workload = workload
        self.seed = seed
        self.dir = workdir / workload.name
        self.dir.mkdir()
        self.input = self.dir / "input.txt"
        self.input.write_text(generate(workload, seed), encoding="utf-8")
        self.output = self.dir / ("report.json" if workload.command == "mine" else "bench.csv")
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.setups: list[float] = []
        self.traces: list[dict] = []
        self.traced_walls: list[float] = []
        self.report_bytes: list[int] = []
        self.counters: dict | None = None

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {self.workload.name} seed {self.seed}: {what}", file=sys.stderr)

    def setup(self) -> float:
        """Import aopmine and load the input in a fresh interpreter; return its wall time."""
        self.attempted += 1
        code, wall, _, stderr = self.spawner.run([sys.executable, "-c", SETUP_CODE, str(self.input)], self.dir)
        if code != 0:
            self.fail(f"setup exited {code}: {stderr.strip()[-300:]}")
        return wall

    def command(self, traced: bool = False) -> None:
        """Run the workload's command once, check its output and keep its samples."""
        self.attempted += 1
        self.output.unlink(missing_ok=True)
        summary = self.dir / "trace.json"
        args = cli_args(self.workload, self.input, self.output)
        if traced:
            args = [str(HERE / "tracer.py"), str(summary)] + args
        else:
            args = ["-m", "aopmine"] + args
        code, wall, rss, stderr = self.spawner.run([sys.executable] + args, self.dir)
        if code != 0:
            self.fail(f"exit {code}: {stderr.strip()[-300:]}")
            return
        error, counters = check_output(self.workload, self.output, stderr, self.expected)
        if error is not None:
            self.fail(error)
            return
        if self.counters is None:
            self.counters = counters
        if traced:
            self.traced_walls.append(wall)
            self.traces.append(json.loads(summary.read_text(encoding="utf-8")))
            if self.workload.command == "mine":
                self.report_bytes.append(self.output.stat().st_size)
        else:
            self.walls.append(wall)
            self.rss.append(rss)

    def end_to_end(self) -> dict:
        return {
            "wall_mean_s": _metric(statistics.fmean(self.walls), "s"),
            "setup_s": _metric(statistics.median(self.setups), "s"),
            "peak_rss_mb": _metric(statistics.median(self.rss), "MiB"),
        }

    def per_layer(self) -> dict:
        counts = [_trace_counts(t) for t in self.traces]
        if any(c != counts[0] for c in counts[1:]):
            self.fail(f"traced counts differ between runs: {counts}")
        if counts and self.expected.get("trace") not in (None, counts[0]):
            print(f"note: traced counts differ from the recorded ones: {counts[0]}")
        absent = sorted({name for t in self.traces for name in t["absent"]})
        if absent:
            print(f"absent layers (reported as 0): {' '.join(absent)}")

        def seconds(source: str, field: str) -> float:
            return statistics.median(_trace_seconds(t, source, field) for t in self.traces)

        c = counts[0]
        overhead = statistics.fmean(self.traced_walls) - statistics.fmean(self.walls)
        metrics = {name: _metric(c[name], "count") for name in COUNT_METRICS}
        metrics.update({name: _metric(seconds(*where), "s") for name, where in TIME_METRICS.items()})
        metrics["miner.prune_ratio"] = _metric(_ratio(c["miner.pruned"], c["miner.candidates"]), "ratio")
        metrics["miner.screen_precision"] = _metric(
            _ratio(c["confirmed_3up"], c["windows_tested_3up"]), "ratio"
        )
        metrics["report.bytes"] = _metric(statistics.median(self.report_bytes or [0]), "bytes")
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        return metrics

    def describe(self, trace: bool) -> None:
        w = self.workload
        print(
            f"workload {w.name}: seed {self.seed} (input {self.seed % BANK}), n={w.n}, "
            f"delta={w.delta}, gamma={w.gamma}, minsup={w.minsup}, {w.command}; "
            f"{self.attempted - self.failed}/{self.attempted} runs ok"
        )
        samples = [("wall_s", self.walls), ("setup_s", self.setups), ("peak_rss_mb", self.rss)]
        if trace:
            samples = [("wall_s", self.walls), ("traced wall_s", self.traced_walls)]
        for name, values in samples:
            if values:
                print(f"  {name}: {_quartiles(values)}")
        if self.counters is not None and self.counters != self.expected.get("counters"):
            print(f"  note: counters differ from the recorded ones: {self.counters}")


# per-layer count metrics: metric name -> key in the traced counts
COUNT_METRICS = (
    "patterns.fusible_calls",
    "patterns.fuse_calls",
    "miner.screen_calls",
    "miner.screened_positions",
    "miner.candidates",
    "miner.pruned",
    "miner.matching_calls",
    "miner.windows_tested",
    "miner.confirmed",
    "core.ranks_computed",
)
# per-layer time metrics: metric name -> (layer or "counts", field)
TIME_METRICS = {
    "ingest.load_series_s": ("ingest.load_series", "total_s"),
    "patterns.fusible_s": ("patterns.fusible", "total_s"),
    "miner.screen_s": ("miner.screen", "total_s"),
    "miner.matching_s": ("miner.matching", "total_s"),
    "miner.bootstrap_s": ("counts", "bootstrap_s"),
    "miner.alar_self_s": ("miner.alar", "self_s"),
    "miner.mine_s.aop": ("counts", "mine_s.aop"),
    "miner.mine_s.nopruning": ("counts", "mine_s.nopruning"),
    "miner.mine_s.em": ("counts", "mine_s.em"),
    "report.write_s": ("report.write_report", "total_s"),
}


def _trace_counts(summary: dict) -> dict:
    """The deterministic part of one traced command: calls and boundary counts."""
    layers, counts = summary["layers"], summary["counts"]

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    out = {
        "patterns.fusible_calls": calls("patterns.fusible"),
        "patterns.fuse_calls": calls("patterns.fuse"),
        "miner.screen_calls": calls("miner.screen"),
        "miner.matching_calls": calls("miner.matching"),
        "miner.alar_calls": calls("miner.alar"),
    }
    for key in ("screened_positions", "candidates", "pruned", "windows_tested", "confirmed"):
        out[f"miner.{key}"] = counts.get(key, 0)
    for key in ("windows_tested_3up", "confirmed_3up"):
        out[key] = counts.get(key, 0)
    out["core.ranks_computed"] = out["miner.windows_tested"] + 2 * (
        out["patterns.fusible_calls"] + out["patterns.fuse_calls"]
    )
    return out


def _trace_seconds(summary: dict, source: str, field: str) -> float:
    if source == "counts":
        return summary["counts"].get(field, 0.0)
    return summary["layers"].get(source, {}).get(field, 0.0)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _quartiles(values: list[float]) -> str:
    if len(values) == 1:
        return f"median {values[0]:.4f} (n=1)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f}, quartiles {q1:.4f}..{q3:.4f}, min {min(values):.4f} (n={len(values)})"


def print_environment() -> None:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(
        f"env: nproc={affinity} cpu_count={os.cpu_count()} python={platform.python_version()} "
        f"({platform.python_implementation()}) platform={platform.platform()}"
    )


def run(
    spawner: Spawner, names: list[str], seed: int, seconds: float, trace: bool, workdir: Path
) -> list[Session]:
    expected = load_expected()
    sessions = [
        Session(spawner, WORKLOADS[name], seed, workdir, expected[name][str(seed % BANK)])
        for name in names
    ]
    for s in sessions:
        s.setup()  # untimed: fills the bytecode and file caches
    # one round runs every workload once (untraced and traced, when tracing);
    # the run ends at the round boundary nearest the budget
    budget = seconds * len(sessions)
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for s in sessions:
            if trace:
                first = rounds % 2 == 1
                s.command(traced=first)
                s.command(traced=not first)
            else:
                s.command()
                s.setups.extend(s.setup() for _ in range(SETUP_PER_ROUND))
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 > budget:
            break
    return sessions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "aopmine" / "__init__.py").is_file():
        print(f"error: no aopmine sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, stopping the children
    print_environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # the spawner stops (and stops its child) before the directory is removed
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp, Spawner() as spawner:
        sessions = run(spawner, names, args.seed, args.seconds, bool(args.trace), Path(tmp))

    metrics: dict = {}
    for s in sessions:
        s.describe(bool(args.trace))
        ok = bool(s.walls) and (s.traces if args.trace else s.setups)
        if not ok:
            continue
        values = s.per_layer() if args.trace else s.end_to_end()
        prefix = "" if len(sessions) == 1 else f"{s.workload.name}."
        metrics.update({prefix + name: value for name, value in values.items()})
        for name, value in values.items():
            print(f"  {prefix + name} = {value['value']:.6g} {value['unit']}")
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
