"""`import imgroups` loads the exact layers only.

The numeric layer `constantfield` and the claim suite `verify` need mpmath,
so the package resolves the names it re-exports from them on first use.
Each check of what an import loads runs in a fresh interpreter: this test
process has long since imported every module.  The lookups themselves are
also repeated in this process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFERRED = ["imgroups.constantfield", "imgroups.verify", "mpmath"]


def fresh(*argv, paths=()) -> subprocess.CompletedProcess:
    """Run a new interpreter on argv with the given paths, then src/, on
    its import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [*map(str, paths), str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


def loaded(code: str) -> list[str]:
    """Which of the deferred modules are in sys.modules after code runs."""
    proc = fresh("-c", code + f"\nimport json, sys\nprint(json.dumps("
                 f"[m for m in {DEFERRED!r} if m in sys.modules]))")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_leaves_mpmath_unloaded():
    assert loaded("import imgroups") == []


def test_cli_import_still_loads_the_claim_suite_and_mpmath():
    assert loaded("import imgroups.cli") == DEFERRED


def test_a_deferred_name_loads_its_layer():
    assert loaded("from imgroups import preimage_tree") == [
        "imgroups.constantfield", "mpmath"]
    assert loaded("from imgroups import VerifyCaps") == DEFERRED


def test_every_public_name_resolves():
    # the deferred names are looked up in their modules on every access:
    # sys.modules is the only cache, and the package namespace never holds them
    proc = fresh(
        "-c",
        "import json, imgroups\n"
        "ns = {}\n"
        "exec('from imgroups import *', ns)\n"
        "from imgroups import verify\n"
        "print(json.dumps({\n"
        "  'unresolved': [n for n in imgroups.__all__ if n not in ns],\n"
        "  'unlisted': sorted(set(imgroups.__all__) - set(dir(imgroups))),\n"
        "  'same': ns['run_claims'] is verify.run_claims,\n"
        "  'cached': sorted(set(imgroups._DEFERRED) & set(vars(imgroups))),\n"
        "}))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "unresolved": [], "unlisted": [], "same": True, "cached": []}


def test_deferred_names_resolve_in_this_process():
    import imgroups
    from imgroups import constantfield, verify
    assert imgroups.run_claims is verify.run_claims
    assert imgroups.preimage_tree is constantfield.preimage_tree
    assert set(imgroups.__all__) <= set(dir(imgroups))
    assert set(imgroups._DEFERRED) <= set(dir(imgroups))
    assert not set(imgroups._DEFERRED) & set(vars(imgroups))
    with pytest.raises(AttributeError,
                       match="module 'imgroups' has no attribute 'nope'"):
        imgroups.nope


def test_unknown_attribute_is_named():
    proc = fresh(
        "-c",
        "import imgroups\n"
        "try:\n"
        "    imgroups.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'imgroups' has no attribute 'no_such_name'\n"
    proc = fresh("-c", "from imgroups import no_such_name")
    assert proc.returncode == 1
    assert "cannot import name 'no_such_name'" in proc.stderr


def test_exact_core_check_runs_where_mpmath_is_missing(tmp_path):
    # a package named mpmath that refuses to import stands in for a machine
    # without it, as in the CI job that installs nothing
    (tmp_path / "mpmath").mkdir()
    (tmp_path / "mpmath" / "__init__.py").write_text(
        "raise ImportError('mpmath is not installed here')\n")
    proc = fresh(ROOT / "tools" / "check_exact_core.py", paths=[tmp_path])
    assert proc.returncode == 0, proc.stderr
    assert "no mpmath" in proc.stdout
    proc = fresh("-c", "import imgroups.cli", paths=[tmp_path])
    assert proc.returncode == 1
    assert "mpmath is not installed here" in proc.stderr
