"""Run the tier-1 tests against each mutant in mutants/catalogue.py.

For each entry the repository (without .git and bytecode caches) is copied
into a temporary directory, the entry's old text is replaced by its new
text, and tier-1 runs there with ``-x -q``. The mutant is killed when that
run fails, and the first failing test is printed; it survives when the run
passes. The unmutated copy runs first and must pass, so a broken test setup
cannot pass as a kill. A tier-1 run that takes longer than ``TIMEOUT``
seconds counts as a kill (the mutant made a test hang).

    python3 mutants/run.py

Exit status: 0 when every mutant is killed, 1 when any survives, 2 when an
entry does not apply (its old text does not occur exactly once) or the
unmutated tests fail. Standard library only; pytest runs in a subprocess.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from catalogue import CATALOGUE, Mutant

ROOT = Path(__file__).resolve().parents[1]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.pyc")
TIMEOUT = 900
FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def mutated(mutant: Mutant, tree: Path) -> str:
    """The mutant's file in ``tree`` with the entry applied; refuse an old text
    that does not occur there exactly once."""
    text = (tree / mutant.file).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def tier1(tree: Path) -> tuple[int | None, str]:
    """Exit status and output of ``pytest -x -q`` in ``tree`` (None on timeout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(tree / "src"), env.get("PYTHONPATH"))))
    command = [sys.executable, "-m", "pytest", "-x", "-q"]
    try:
        done = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout + done.stderr


def main() -> int:
    try:  # refuse a stale entry before any test runs
        texts = [mutated(mutant, ROOT) for mutant in CATALOGUE]
    except ValueError as exc:
        print(f"refused: {exc}")
        return 2
    with tempfile.TemporaryDirectory(prefix="aopmine-mutants-") as temp:
        clean = Path(temp) / "clean"
        shutil.copytree(ROOT, clean, ignore=IGNORED)
        code, output = tier1(clean)
        if code != 0:
            print("the unmutated tree does not pass tier-1:\n" + output[-2000:])
            return 2
        survivors = 0
        for mutant, text in zip(CATALOGUE, texts):
            tree = Path(temp) / mutant.name
            shutil.copytree(clean, tree)
            (tree / mutant.file).write_text(text, encoding="utf-8")
            start = time.perf_counter()
            code, output = tier1(tree)
            took = time.perf_counter() - start
            if code is None:
                verdict = f"killed   {mutant.name} ({took:.0f} s): timed out"
            elif code != 0:
                first = FIRST_FAILURE.search(output)
                failing = first.group(1) if first else output.strip().splitlines()[-1]
                verdict = f"killed   {mutant.name} ({took:.0f} s): {failing}"
            else:
                survivors += 1
                verdict = f"SURVIVED {mutant.name} ({took:.0f} s): {mutant.fault}"
            print(verdict, flush=True)
            shutil.rmtree(tree)
        print(f"{len(CATALOGUE) - survivors} of {len(CATALOGUE)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
