#!/usr/bin/env python3
"""Record the expected result of every bank input into expected.json.

Usage (from the repository root): python3 benchmarks/record.py

For each workload and each of its BANK inputs this runs the workload's
command once under the tracer and keeps the report digest (``mine``) or the
pattern count (``bench``), the report's deterministic counters and the
traced call counts. test_benchmark.py anchors the recorded results to the
reference miners; run it after recording.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, Session, Spawner, _trace_counts
from workloads import BANK, EXPECTED_PATH, WORKLOADS, cli_args, read_bench, read_report


def record_one(spawner: Spawner, workload, index: int, workdir: Path) -> dict:
    session = Session(spawner, workload, index, workdir, expected={})
    summary = session.dir / "trace.json"
    tracer = [sys.executable, str(HERE / "tracer.py"), str(summary)]
    code, _, _, stderr = spawner.run(tracer + cli_args(workload, session.input, session.output), session.dir)
    if code != 0:
        raise SystemExit(f"{workload.name} input {index}: exit {code}\n{stderr}")
    entry: dict = {}
    if workload.command == "mine":
        entry["digest"], entry["patterns"], entry["counters"] = read_report(session.output)
    else:
        counts, entry["counters"] = read_bench(session.output)
        if len(set(counts.values())) != 1 or "disagree" in stderr:
            raise SystemExit(f"{workload.name} input {index}: strategies disagree: {counts}")
        entry["patterns"] = next(iter(counts.values()))
    entry["trace"] = _trace_counts(json.loads(summary.read_text(encoding="utf-8")))
    return entry


def main() -> int:
    expected: dict = {}
    with Spawner() as spawner:
        for workload in WORKLOADS.values():
            expected[workload.name] = {}
            for index in range(BANK):
                with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
                    expected[workload.name][str(index)] = record_one(spawner, workload, index, Path(tmp))
                print(f"{workload.name} {index}: {expected[workload.name][str(index)]['patterns']} patterns", flush=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
