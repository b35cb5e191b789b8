"""Process-lifetime memos are `functools.lru_cache` on the computing function.

A module-level name bound to an empty dict, list or set is the shape of a
hand-rolled cache that some function fills in later; such state cannot be
reset with `.cache_clear()` and reports no `cache_info()`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "imgroups"
MODULES = sorted(SRC.glob("*.py"))


def _empty_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set")
            and not node.args and not node.keywords)


def module_level_empty_containers(source: str) -> list[str]:
    """Names bound at module level to an empty {}, [], dict(), list() or set()."""
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if _empty_container(value):
            found.extend(ast.unparse(t) for t in targets)
    return found


def test_guard_recognizes_the_hand_rolled_pattern():
    source = ("A: dict[int, int] = {}\nB = []\nC = dict()\nD = list()\n"
              "E = set()\nF = {1: 2}\nG = [0]\nH = frozenset()\n"
              "def f():\n    local = {}\n")
    assert module_level_empty_containers(source) == ["A", "B", "C", "D", "E"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_mutable_cache(path):
    assert module_level_empty_containers(path.read_text()) == []
