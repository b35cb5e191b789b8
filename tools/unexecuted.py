"""List the statements of src/imgroups that the Tier-1 suite never runs.

    PYTHONPATH=src python3 tools/unexecuted.py

Runs the Tier-1 suite (pytest, as `python -m pytest -q
--continue-on-collection-errors` from the repository root) in this
process under a `sys.settrace` line trace of the files in src/imgroups,
then prints each statement that never ran as `file:line: text`.  A
statement counts as run when a line event falls on its own lines: every
line of a simple statement, the header lines of a compound one.  Only
statements that compile to code are listed; a docstring, for one, does
not.  A statement with `# pragma: no cover` on any of its header lines is
skipped with its body, and so is the module's `if __name__ ==
"__main__":` guard.  Lines run in a subprocess are not seen.

Exit 0 when nothing is listed, 1 when a statement is listed or the suite
fails.  The traced suite takes about four times as long as a plain run.
Standard library only, apart from pytest for the suite itself.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "imgroups")
PRAGMA = "pragma: no cover"


def _code_lines(code) -> set[int]:
    """The lines that the code object and its nested ones compile."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _header(node: ast.stmt) -> range:
    """The statement's own lines: all of a simple statement, the lines
    before the first body statement of a compound one (decorators
    included)."""
    start = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(start, body[0].lineno)
    return range(start, node.end_lineno + 1)


def _is_main_guard(node: ast.stmt) -> bool:
    test = getattr(node, "test", None)
    return (isinstance(node, ast.If) and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "__name__")


def _statements(source: str, lines: list[str]):
    """(header lines, first line) of every statement outside the skipped
    ones, in source order."""
    def walk(body):
        for node in body:
            head = _header(node)
            if _is_main_guard(node) or any(PRAGMA in lines[i - 1] for i in head):
                continue
            if isinstance(node, ast.stmt):  # an except clause is not one
                yield head, node.lineno
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from walk(getattr(node, field, None) or ())
    yield from walk(ast.parse(source).body)


def main() -> int:
    paths = [os.path.join(PACKAGE, name)
             for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")]
    seen: dict[str, set[int]] = {path: set() for path in paths}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in seen else None

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors",
                              "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        compiled = _code_lines(compile(source, path, "exec"))
        for head, first in _statements(source, lines):
            if compiled.isdisjoint(head) or not seen[path].isdisjoint(head):
                continue
            missed += 1
            print(f"{os.path.relpath(path, ROOT)}:{first}: "
                  f"{lines[first - 1].strip()}")
    if status != 0:
        print(f"unexecuted: the suite failed (pytest exit {int(status)})",
              file=sys.stderr)
    print(f"unexecuted: {missed} statements never ran", file=sys.stderr)
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
