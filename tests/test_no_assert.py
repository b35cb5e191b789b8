"""Checks must still fire under ``python -O``, which strips every `assert`.

A check on input or on an invariant in `src/` raises an exception of its
own; an `assert` statement there would silently vanish in optimized runs.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "imgroups"
MODULES = sorted(SRC.glob("*.py"))


def assert_lines(source: str) -> list[int]:
    """Line numbers of the assert statements in the source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_guard_recognizes_an_assert():
    source = ("def f(x):\n    assert x > 0, x\n    return x\n"
              "class C:\n    def g(self):\n        assert self\n"
              "ok = 'assert 1'\n")
    assert assert_lines(source) == [2, 6]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert assert_lines(path.read_text()) == []
