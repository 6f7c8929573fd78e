"""Run one aopmine CLI command in this process with its layers traced.

Usage: python3 tracer.py SUMMARY.json CLI-ARG...

The wrappers replace the names where the code looks them up: ``miner`` and
``cli`` import their callees directly, so patching ``aopmine.patterns.fusible``
would not see the calls made from ``miner``. Every call becomes a span (name,
start, end, parent) kept in memory; at exit the spans are reduced to per-layer
call counts, total time and self time (total minus the time covered by child
spans), and written with the boundary counters to SUMMARY.json. A wrapped
name that no longer exists is listed as absent instead of failing.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

WRAPPED = {
    "aopmine.miner": ("screen", "matching", "fusible", "fuse", "alar"),
    "aopmine.cli": ("load_series", "mine", "write_report"),
}
# reported under the module that defines each function
LAYER_NAMES = {
    "fusible": "patterns.fusible",
    "fuse": "patterns.fuse",
    "load_series": "ingest.load_series",
    "write_report": "report.write_report",
}


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.layer = array("i")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def mark_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def install(self) -> None:
        for module_name, attrs in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.mark_absent(f"{module_name}.{attr}")
                    continue
                name = LAYER_NAMES.get(attr, f"{module_name.split('.')[-1]}.{attr}")
                setattr(module, attr, self.wrap(name, fn, getattr(self, f"_on_{attr}", None)))

    def wrap(self, name, fn, hook):
        layer_id = len(self.layers)
        self.layers.append(name)
        starts, ends, layers, parents, stack = self.start, self.end, self.layer, self.parent, self.stack

        def traced(*args, **kwargs):
            idx = len(starts)
            starts.append(0.0)
            ends.append(0.0)
            layers.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(args, kwargs, result, t1 - t0)
            return result

        return traced

    # counters recorded at the layer boundaries

    def _on_screen(self, args, kwargs, result, seconds) -> None:
        self.add("screened_positions", len(result))

    def _on_matching(self, args, kwargs, result, seconds) -> None:
        candidates, t = args[0], args[1]
        if not hasattr(candidates, "__len__"):
            self.mark_absent("miner.windows_tested")  # a one-shot iterable cannot be counted
            return
        windows = len(candidates)
        self.add("windows_tested", windows)
        self.add("confirmed", len(result))
        if len(t) == 2:
            self.add("bootstrap_s", seconds)
        else:
            self.add("windows_tested_3up", windows)
            self.add("confirmed_3up", len(result))

    def _on_mine(self, args, kwargs, result, seconds) -> None:
        kind = args[2] if len(args) > 2 else kwargs.get("kind", "aop")
        self.add(f"mine_s.{kind}", seconds)
        stats = result[1]
        for key, attr in (("candidates", "total_candidates"), ("pruned", "patterns_pruned_by_count")):
            value = getattr(stats, attr, None)
            if value is None:
                self.mark_absent(f"miner.{key}")
            else:
                self.add(key, value)

    def summary(self) -> dict:
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        layers = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.layers}
        for i in range(n):
            entry = layers[self.layers[self.layer[i]]]
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child[i]
        return {"layers": layers, "counts": self.counts, "absent": self.absent, "spans": n}


def main(argv: list[str]) -> int:
    summary_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from aopmine import cli

    code = cli.main(cli_argv)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
