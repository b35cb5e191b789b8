"""Every level or size cap is a module constant that no keyword raises.

A parameter named ``cap``, ``*_cap`` or ``allow_*`` is the shape of a
per-call override of such a limit: one caller raises it and the
documented limit no longer holds.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "imgroups"
MODULES = sorted(SRC.glob("*.py"))

# (module, function, parameter): why the parameter stays
ALLOWED = {
    ("arithmodel.py", "build_model", "allow_deep"):
        "accepted and ignored; the benchmark scripts still pass it",
}


def _is_override(name: str) -> bool:
    return name == "cap" or name.endswith("_cap") or name.startswith("allow_")


def cap_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for every override-shaped parameter."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = func.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        name = getattr(func, "name", "<lambda>")
        found.extend((name, p.arg) for p in params if _is_override(p.arg))
    return found


def test_guard_recognizes_override_parameters():
    source = ("def f(level, cap=4): pass\n"
              "def g(n, *, size_cap): pass\n"
              "def h(n, allow_deep=False, capacity=1, max_size=2): pass\n"
              "k = lambda x, cap: x\n")
    assert cap_parameters(source) == [
        ("f", "cap"), ("g", "size_cap"), ("h", "allow_deep"),
        ("<lambda>", "cap")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_cap_keywords(path):
    found = [(path.name, func, param)
             for func, param in cap_parameters(path.read_text())]
    assert [f for f in found if f not in ALLOWED] == []


def test_allowed_exceptions_still_exist():
    # an exception outlives its parameter only by mistake
    present = {(path.name, func, param) for path in MODULES
               for func, param in cap_parameters(path.read_text())}
    assert set(ALLOWED) <= present
