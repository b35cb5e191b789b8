"""`img verify` claims fail for real, also when Python strips asserts."""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from imgroups import arithmodel, selfsim, treeauto, verify

ROOT = Path(__file__).resolve().parent.parent


def test_check_raises_with_the_assert_detail():
    verify._check(True, "unused")
    with pytest.raises(AssertionError) as bare:
        verify._check(False)
    assert bare.value.args == ()
    with pytest.raises(AssertionError) as tagged:
        verify._check(0, (3, 32))
    assert str(tagged.value) == "(3, 32)"


def test_claim_bodies_use_no_bare_assert():
    tree = ast.parse((ROOT / "src" / "imgroups" / "verify.py").read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


def test_failing_check_reports_fail_under_optimize():
    script = (
        "import imgroups.verify as v\n"
        "assert False, 'stripped under -O'\n"
        "v.CLAIMS = (('forced', lambda caps: v._check(1 == 2, 'forced') or 'ok'),)\n"
        "[r] = v.run_claims()\n"
        "print(__debug__, r.status, r.detail)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False FAIL forced"


def test_model_claims_reach_the_level_cap():
    # the expected orders follow |M_n| = 2^(2n) from level 3 on, so every
    # model level up to the cap has them
    results = verify.run_claims(verify.VerifyCaps(model_level=7))
    assert [r for r in results if r.status != "PASS"] == []
    assert len(results) == 42
    details = {r.claim: r.detail for r in results}
    assert details["model-orders"].endswith("|M6|=4096 |M7|=16384")
    assert details["model-growth-profile"].startswith(
        "growth (4, 8, 4, 4, 4, 4)")


def test_random_portrait_code_is_one_getrandbits_draw():
    for level in range(9):
        rng, twin = random.Random(level), random.Random(level)
        u = verify._rand_portrait(rng, level)
        assert u._code is None  # so `code` below is read back from `perm`
        assert u.code == twin.getrandbits((1 << level) - 1)
        assert rng.getstate() == twin.getstate()


def _run_one(monkeypatch, claim):
    monkeypatch.setattr(verify, "CLAIMS", tuple(
        (name, body) for name, body in verify.CLAIMS if name == claim))
    [result] = verify.run_claims()
    return result


def test_conjugacy_claim_catches_a_merged_class(monkeypatch):
    # the root swap given the identity's key: two non-conjugate elements
    # with one key, and the claim names that pair
    real = treeauto.conjugacy_class
    one, swap = treeauto.identity(3), treeauto.sigma(3)
    monkeypatch.setattr(treeauto, "conjugacy_class",
                        lambda u: real(one) if u == swap else real(u))
    result = _run_one(monkeypatch, "conjugacy-brute-force")
    assert (result.status, result.detail) == ("FAIL", str((one, swap)))


def test_twist_claim_catches_a_nonabelian_subgroup(monkeypatch):
    monkeypatch.setattr(selfsim, "subgroup_U", selfsim.geometric_group)
    result = _run_one(monkeypatch, "twist-subgroup-abelian")
    # G_2 is the dihedral group of order 8, so the claim fails at level 2
    assert result.status == "FAIL"
    assert result.detail.startswith("(2, Portrait('2:")


def test_model_claims_share_the_odometer_scan():
    # model-growth-profile scans every model up to the cap for odometers;
    # model-odometer-free then reads levels 3..cap from the cache
    caps, claims = verify.VerifyCaps(), dict(verify.CLAIMS)
    arithmodel.odometer_elements.cache_clear()
    claims["model-growth-profile"](caps)
    before = arithmodel.odometer_elements.cache_info()
    claims["model-odometer-free"](caps)
    after = arithmodel.odometer_elements.cache_info()
    assert after.misses == before.misses == caps.model_level
    assert after.hits - before.hits == caps.model_level - 2


def _flip_at_level_2(real):
    return lambda self, m: -real(self, m) if m == 2 else real(self, m)


@pytest.mark.parametrize("claim, name, wrong", [
    ("sign-character-two-routes", "sign", _flip_at_level_2),
    ("portrait-inverse", "inverse", lambda real: lambda self: self),
    ("odometer-two-routes", "is_level_odometer",
     lambda real: lambda self: not real(self)),
    ("portrait-wire-roundtrip", "decode",
     lambda real: lambda text: treeauto.identity(int(text.split(":")[0]))),
])
def test_sample_claims_catch_a_wrong_method(monkeypatch, claim, name, wrong):
    # each claim calls the method once per sample and checks that one
    # answer every way it did before, so a wrong answer still fails it
    real = getattr(treeauto.Portrait, name)
    monkeypatch.setattr(treeauto.Portrait, name, wrong(real))
    assert _run_one(monkeypatch, claim).status == "FAIL"


def _accepting(real, refused):
    """real, except that the refusal it raises is swallowed: a callee that
    accepts what it must refuse."""
    def call(*args):
        try:
            return real(*args)
        except refused:
            return None
    return call


@pytest.mark.parametrize("claim, module, name, refused, detail", [
    ("specialize-numerator", "polyarith", "specialize_numerator",
     "ExcludedBasePointError", "base point 0 accepted"),
    ("factor-degrees-mod-p", "polyarith", "factor_degrees_mod_p",
     "BadPrimeError", "bad prime accepted"),
    ("elimination-edge-cases", "maximality", "eliminate_maximal_subgroups",
     "ModelInconsistencyError", "1^16 accepted at p = 3 mod 8"),
    ("preimage-tree-values", "constantfield", "preimage_tree",
     "DegenerateTreeError", "postcritical root accepted"),
])
def test_refusal_claims_catch_an_accepting_callee(monkeypatch, claim, module,
                                                  name, refused, detail):
    from imgroups import errors
    layer = getattr(verify, module)
    monkeypatch.setattr(layer, name, _accepting(
        getattr(layer, name), getattr(errors, refused)))
    assert _run_one(monkeypatch, claim) == verify.ClaimResult(
        claim, "FAIL", detail)


def test_a_claim_that_raises_is_reported_by_type(monkeypatch):
    def broken(caps):
        raise TypeError("unsupported operand")
    monkeypatch.setattr(verify, "CLAIMS", (("broken", broken),))
    assert verify.run_claims() == [
        verify.ClaimResult("broken", "FAIL", "TypeError: unsupported operand")]
