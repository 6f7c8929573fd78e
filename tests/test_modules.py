"""Module structure: each rule is decided in one module.

Every import sits at module level, so the import graph is visible and has no
cycle hidden in a function body, and every import is used. No module uses ``assert``, which ``-O``
strips, so every check on an argument raises. The oracle imports only the core types, so
it shares no mining code with the engine it checks.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import aopmine
from aopmine.miner import ALGORITHMS, STRATEGIES

PACKAGE = Path(aopmine.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_at_module_level(path):
    tree = parse(path)
    top = {id(node) for node in tree.body}
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert nested == [], f"{path.name} imports below module level at lines {nested}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    # a module-level import that nothing reads is dead code; a name listed in
    # __all__ is a re-export, and ``from __future__`` binds nothing
    tree = parse(path)
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            exported = set(ast.literal_eval(node.value))
    unused = {name: line for name, line in imported.items() if name not in read | exported}
    assert unused == {}, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    # asserts vanish under python -O, so no argument check may be one
    lines = [node.lineno for node in ast.walk(parse(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


def test_oracle_imports_only_core():
    tree = parse(PACKAGE / "oracle.py")
    imported = [
        "." * node.level + (node.module or "")
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
    ] + [alias.name for node in tree.body if isinstance(node, ast.Import) for alias in node.names]
    own = [name for name in imported if name.startswith((".", "aopmine"))]
    assert own == [".core"]


def test_counters_are_charged_only_in_the_level_step_and_the_oracle():
    # every write to a MiningStats counter, in any module, sits in miner's
    # _confirm (which sees every candidate group) or _mine_oracle
    counters = {"candidates_generated", "matching_windows_tested", "patterns_pruned_by_count"}
    writers = set()
    for path in MODULES:
        for func in ast.walk(parse(path)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        target = target.value
                    if isinstance(target, ast.Attribute) and target.attr in counters:
                        writers.add(f"{path.stem}.{func.name}")
    assert writers == {"miner._confirm", "miner._mine_oracle"}
    assert not hasattr(aopmine.MiningStats, "count_candidate")


def test_algorithms_are_the_strategies_then_oracle():
    assert ALGORITHMS == (*STRATEGIES, "oracle")


def test_cli_import_leaves_out_the_numeric_tower():
    # bench averages its run times with math.fsum; importing statistics would
    # pull fractions, decimal and numbers into every command's memory
    # (-S: without site, so only this package's imports are seen)
    heavy = ("statistics", "fractions", "decimal", "numbers")
    probe = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import aopmine.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
