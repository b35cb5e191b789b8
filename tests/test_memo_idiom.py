"""Process-lifetime memos are `functools.lru_cache` on the computing function.

A module-level name, or an attribute set on ``self`` in a method, bound to
an empty dict, list or set is the shape of a hand-rolled cache that some
function fills in later; such state cannot be reset with `.cache_clear()`
and reports no `cache_info()`.
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


def _bindings(nodes):
    """(targets, value) of each assignment among the nodes."""
    for stmt in nodes:
        if isinstance(stmt, ast.Assign):
            yield stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            yield [stmt.target], stmt.value


def module_level_empty_containers(source: str) -> list[str]:
    """Names bound at module level to an empty {}, [], dict(), list() or set()."""
    found = []
    for targets, value in _bindings(ast.parse(source).body):
        if _empty_container(value):
            found.extend(ast.unparse(t) for t in targets)
    return found


def method_empty_containers(source: str) -> list[str]:
    """`self.<attr>` targets bound anywhere to an empty container."""
    found = []
    for targets, value in _bindings(ast.walk(ast.parse(source))):
        if _empty_container(value):
            found.extend(ast.unparse(t) for t in targets
                         if isinstance(t, ast.Attribute)
                         and isinstance(t.value, ast.Name)
                         and t.value.id == "self")
    return found


def test_guard_recognizes_the_hand_rolled_pattern():
    source = ("A: dict[int, int] = {}\nB = []\nC = dict()\nD = list()\n"
              "E = set()\nF = {1: 2}\nG = [0]\nH = frozenset()\n"
              "def f():\n    local = {}\n")
    assert module_level_empty_containers(source) == ["A", "B", "C", "D", "E"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_mutable_cache(path):
    assert module_level_empty_containers(path.read_text()) == []


def test_method_guard_recognizes_the_hand_rolled_pattern():
    source = ("class C:\n"
              "    def __init__(self):\n"
              "        self.a: dict[int, int] = {}\n"
              "        self.b = []\n"
              "        self.c = dict()\n"
              "        self.d = list()\n"
              "        self.e = set()\n"
              "        self.f = {1: 2}\n"
              "        self.g = frozenset()\n"
              "        other.h = {}\n"
              "        local = {}\n"
              "    def fill(self):\n"
              "        self.i = {}\n")
    assert method_empty_containers(source) == [
        "self.a", "self.b", "self.c", "self.d", "self.e", "self.i"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_instance_mutable_cache(path):
    assert method_empty_containers(path.read_text()) == []
