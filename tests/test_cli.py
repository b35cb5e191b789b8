"""End-to-end command line behavior, exit codes, and output stability."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from imgroups import cli, constantfield, maximality, polyarith
from imgroups.cli import main
from imgroups.errors import ModelInconsistencyError, ResourceLimitError
from imgroups.verify import VerifyCaps

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGroup:
    def test_level_4_table(self, capsys):
        code, out, _ = run(capsys, "group", "--level", "4")
        assert code == 0
        assert "|G4| = 64 = 2^6" in out
        assert "[G:H1]=4" in out and "[G:U]=4" in out

    def test_over_cap_is_resource_limit(self, capsys):
        code, _, err = run(capsys, "group", "--level", "8")
        assert code == 3
        assert "resource limit" in err

    def test_bad_level(self, capsys):
        code, _, err = run(capsys, "group", "--level", "0")
        assert code == 2

    def test_cache_dir_is_rebuilt_then_valid(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        for status in ("rebuilt", "valid"):
            code, out, _ = run(capsys, "group", "--level", "3",
                               "--cache-dir", cache)
            assert code == 0
            assert f"  cache        {status}" in out.splitlines()
        code, out, _ = run(capsys, "group", "--level", "3", "--cache-dir",
                           cache, "--format", "json")
        assert json.loads(out)["cache"] == "valid"
        assert os.listdir(cache) == ["f_G_L3.grp"]


class TestArith:
    def test_level_4_summary(self, capsys):
        code, out, _ = run(capsys, "arith", "--level", "4")
        assert code == 0
        assert " 4     256     64       4         0" in out
        assert "Frattini index 16" in out
        assert "15 maximal subgroups" in out

    def test_over_cap(self, capsys):
        code, _, err = run(capsys, "arith", "--level", "9")
        assert code == 3

    def test_bad_level(self, capsys):
        code, out, err = run(capsys, "arith", "--level", "0")
        assert code == 2 and out == ""
        assert err == "img: error: model level 0 must be positive\n"

    def test_level_7_is_public(self, capsys):
        code, out, _ = run(capsys, "arith", "--level", "7")
        assert code == 0
        assert "7 16384 512 4 0" in " ".join(out.split())

    def test_level_8_names_the_cap(self, capsys):
        # the message is for CLI users: no Python keyword raises the cap
        code, out, err = run(capsys, "arith", "--level", "8")
        assert code == 3 and out == ""
        assert "capped at 7" in err and "allow_deep" not in err

    def test_cache_lifecycle(self, capsys, tmp_path):
        cache = str(tmp_path)
        code, out, _ = run(capsys, "arith", "--level", "4", "--cache-dir", cache)
        assert code == 0 and "cache  rebuilt" in out
        files = sorted(p.name for p in tmp_path.iterdir())
        assert "arith_M_L4.grp" in files
        assert "arith_Frattini(M)_L4.grp" in files
        assert sum(1 for f in files if f.startswith("arith_Mmax-")) == 15

        code, out, _ = run(capsys, "arith", "--level", "4", "--cache-dir", cache)
        assert code == 0 and "cache  valid" in out

        target = tmp_path / "arith_M_L4.grp"
        target.write_text("M 4 999\n" + target.read_text().split("\n", 1)[1])
        code, out, _ = run(capsys, "arith", "--level", "4", "--cache-dir", cache)
        assert code == 0 and "cache  rebuilt" in out

    def test_cache_checks_every_level_4_file(self, capsys, tmp_path):
        cache = str(tmp_path)
        run(capsys, "arith", "--level", "4", "--cache-dir", cache)
        paths = sorted(tmp_path.iterdir())
        assert len(paths) == 17
        for p in paths:
            os.utime(p, ns=(10**18, 10**18))
        code, out, _ = run(capsys, "arith", "--level", "4", "--cache-dir", cache)
        assert code == 0 and "cache  valid" in out
        assert all(p.stat().st_mtime_ns == 10**18 for p in paths)

        # a well-formed file holding another group is stale, and rewritten
        target = tmp_path / "arith_Mmax-07_L4.grp"
        fresh = target.read_text()
        other = (tmp_path / "arith_Mmax-08_L4.grp").read_text()
        target.write_text(other.replace("Mmax-08", "Mmax-07", 1))
        code, out, _ = run(capsys, "arith", "--level", "4", "--cache-dir", cache)
        assert code == 0 and "cache  stale, rebuilt" in out
        assert target.read_text() == fresh

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("IMG_CACHE_DIR", str(tmp_path))
        code, out, _ = run(capsys, "arith", "--level", "3")
        assert code == 0 and "cache  rebuilt" in out
        code, out, _ = run(capsys, "arith", "--level", "3")
        assert code == 0 and "cache  valid" in out


class TestDisc:
    def test_level_1_line(self, capsys):
        code, out, _ = run(capsys, "disc", "--n", "1")
        assert code == 0
        assert "n=1: +2^3 * t^1 * (2-t)^0" in out

    def test_range(self, capsys):
        # above DISC_LEVEL_CAP is a resource limit, exit 3 as for every cap
        code, _, err = run(capsys, "disc", "--n", "6")
        assert code == 3
        assert "DISC_LEVEL_CAP" in err

    def test_below_range(self, capsys):
        code, _, err = run(capsys, "disc", "--n", "0")
        assert code == 2

    @pytest.mark.parametrize("n, exit_code", [("-2", 2), ("0", 2), ("6", 3)])
    def test_out_of_range_does_no_work(self, capsys, monkeypatch, n,
                                       exit_code):
        # `discriminant_shape` checks the level range, before any iterate
        # or shape is computed
        def refuse(*args):
            raise AssertionError("work done for an out-of-range level")

        monkeypatch.setattr(polyarith, "iterate_pair", refuse)
        monkeypatch.setattr(polyarith, "_shape_recursion", refuse)
        code, _, err = run(capsys, "disc", "--n", n)
        assert code == exit_code
        assert ("DISC_LEVEL_CAP" in err) == (exit_code == 3)


class TestMaximality:
    def test_maximal_point(self, capsys):
        code, out, _ = run(capsys, "maximality", "--a", "5")
        assert code == 0
        assert "verdict: maximal" in out
        assert "Mmax-01: eliminated by square-class independence" in out
        assert "Mmax-02: eliminated by p=7, profile 2/2+2/4+4/4+4+4+4" in out

    def test_not_maximal_point(self, capsys):
        code, out, _ = run(capsys, "maximality", "--a", "1")
        assert code == 0
        assert "verdict: not_maximal" in out

    def test_excluded_point(self, capsys):
        code, _, err = run(capsys, "maximality", "--a", "0")
        assert code == 2
        assert "postcritical" in err

    def test_zero_denominator(self, capsys):
        code, _, err = run(capsys, "maximality", "--a", "1/0")
        assert code == 2

    def test_too_few_primes_is_bad_input(self, capsys):
        # a bound too small for the point is no broken invariant
        code, out, err = run(capsys, "maximality", "--a", "5",
                             "--prime-bound", "10")
        assert code == 2 and out == ""
        assert err == ("img: error: maximality: a = 5 has 1 usable prime "
                       "up to 10 (need 5)\n")

    def test_model_inconsistency_is_an_invariant_violation(self, capsys,
                                                           monkeypatch):
        def inconsistent(point, bound):
            raise ModelInconsistencyError(f"forged at a = {point.text()}")
        monkeypatch.setattr(maximality, "maximality_verdict", inconsistent)
        code, out, err = run(capsys, "maximality", "--a", "5")
        assert code == 1 and out == ""
        assert err == "img: invariant violation: forged at a = 5\n"

    def test_prime_near_factoring_cap(self, capsys):
        start = time.perf_counter()
        code, _, _ = run(capsys, "maximality", "--a", "999999999999999989")
        assert time.perf_counter() - start < 5
        assert code == 0

    def test_point_past_the_factoring_bound(self, capsys):
        # a and 2 - a leave 90-bit cofactors that are neither squares nor
        # primes; their square classes need no factoring
        code, out, _ = run(capsys, "maximality", "--a",
                           "123456789012345678901/98765432109876543211")
        assert code == 0
        assert "verdict: maximal" in out

    def test_inconclusive_lists_survivor_tables(self, capsys):
        code, out, _ = run(capsys, "maximality", "--a", "21",
                           "--prime-bound", "30")
        assert code == 0
        assert "  no Frobenius witness: Mmax-04\n" in out
        assert "  Mmax-04 realizes, by p mod 8" in out
        assert ("\n    3: 1+1/1+1+1+1/2+2+1+1+1+1/2+2+2+2+2+2+1+1+1+1, "
                "1+1/2+2/4+4/4+4+4+4, 2/2+2/2+2+2+2/4+4+4+4, "
                "2/2+2/4+4/4+4+4+4\n") in out

    def test_square_product_beyond_factoring_cap(self, capsys):
        # a = 2/(1 + t^2) with t = 10000044: a(2 - a) is a square
        start = time.perf_counter()
        code, out, _ = run(capsys, "maximality", "--a", "2/100000880001937",
                           "--format", "json")
        assert time.perf_counter() - start < 5
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "not_maximal"
        assert data["square_class"]["dependent_subset"] == ["a", "2-a"]

    def test_prime_bound_flag(self, capsys):
        code, out, _ = run(capsys, "maximality", "--a", "21",
                           "--prime-bound", "30")
        assert code == 0
        assert "verdict: inconclusive" in out

    def test_prime_bound_over_table_cap(self, capsys):
        code, _, err = run(capsys, "maximality", "--a", "5",
                           "--prime-bound", "2000000")
        assert code == 3
        assert "resource limit" in err and "prime table capped" in err

    def test_refused_prime_bound_sieves_nothing(self, capsys):
        # the cap is checked before any prime table is built
        polyarith._prime_table.cache_clear()
        refusals = (
            lambda: polyarith.primes_up_to(2 * 10**6),
            lambda: maximality._primes_to(2 * 10**6),
            lambda: maximality.maximality_verdict(
                maximality.BasePoint(Fraction(5)), 2 * 10**6),
        )
        for refuse in refusals:
            with pytest.raises(ResourceLimitError, match="prime table capped"):
                refuse()
        code, _, _ = run(capsys, "maximality", "--a", "5",
                         "--prime-bound", "2000000")
        assert code == 3
        assert polyarith._prime_table.cache_info().misses == 0

    def test_prime_bound_over_table_cap_on_a_square_class_verdict(self, capsys):
        # a = 1 is decided by its square classes, before any prime is read
        code, _, err = run(capsys, "maximality", "--a", "1",
                           "--prime-bound", "2000000")
        assert code == 3
        assert "prime table capped at 1000000, asked for 2000000" in err

    @pytest.mark.parametrize("a", ["7e200000", "1e20000", "2e1300"])
    def test_base_point_over_height_cap(self, capsys, a):
        start = time.perf_counter()
        code, _, err = run(capsys, "maximality", "--a", a)
        assert time.perf_counter() - start < 2
        assert code == 3
        assert "resource limit: base point height" in err


class TestRadical:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "radical", "--samples", "2")
        assert code == 0
        assert "all within tolerance: yes" in out
        assert "5 involutions" in out


class TestVerify:
    def test_quick_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--level", "3")
        assert code == 0
        lines = [l for l in out.splitlines()
                 if l.startswith(("PASS", "FAIL", "SKIP"))]
        assert len(lines) >= 25
        assert not any(l.startswith("FAIL") for l in lines)

    def test_sample_claims_skip_without_samples(self, capsys):
        # the samples cap bounds the random samples of three claims; one
        # sample leaves each of them none, which is a SKIP, not a PASS
        claims = ("portrait-associativity", "portrait-inverse",
                  "sign-character-two-routes")
        for samples, status in (("1", "SKIP"), ("4", "PASS")):
            code, out, _ = run(capsys, "verify", "--samples", samples,
                               "--format", "json")
            assert code == 0
            got = {c["claim"]: c for c in json.loads(out)["claims"]}
            for claim in claims:
                assert got[claim]["status"] == status, got[claim]
                if status == "SKIP":
                    assert got[claim]["detail"].startswith("samples cap 1 ")

    def test_bad_level(self, capsys):
        code, out, err = run(capsys, "verify", "--level", "0")
        assert code == 2 and out == ""
        assert err == "img: error: verify level 0 must be positive\n"

    def test_config_line_without_equals(self, capsys, tmp_path):
        cfg = tmp_path / "img.cfg"
        cfg.write_text("# caps\n\nprime_bound 30\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "img: error: line 3: expected key = value\n"

    def test_unreadable_config(self, capsys, tmp_path):
        missing = tmp_path / "absent.cfg"
        code, out, err = run(capsys, "verify", "--config", str(missing))
        assert code == 2 and out == ""
        assert err.startswith(f"img: error: cannot read config {missing}: ")

    def test_config_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "img.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, "verify", "--level", "3",
                           "--config", str(cfg))
        assert code == 2
        assert "unknown key" in err

    def test_config_overrides_prime_bound(self, capsys, tmp_path):
        cfg = tmp_path / "img.cfg"
        cfg.write_text("# comment line\nprime_bound = 30\n")
        code, out, _ = run(capsys, "maximality", "--a", "21",
                           "--config", str(cfg))
        assert code == 0
        assert "verdict: inconclusive" in out

    def test_config_prime_bound_over_table_cap(self, capsys, tmp_path):
        cfg = tmp_path / "img.cfg"
        cfg.write_text("prime_bound = 2000000\n")
        code, _, err = run(capsys, "maximality", "--a", "5",
                           "--config", str(cfg))
        assert code == 3
        assert "prime table capped at 1000000, asked for 2000000" in err

    def test_config_prime_bound_over_table_cap_at_a_1(self, capsys, tmp_path):
        cfg = tmp_path / "img.cfg"
        cfg.write_text("prime_bound = 2000000\n")
        code, _, err = run(capsys, "maximality", "--a", "1",
                           "--config", str(cfg))
        assert code == 3
        assert "prime table capped at 1000000, asked for 2000000" in err

    def test_config_bad_value(self, capsys, tmp_path):
        cfg = tmp_path / "img.cfg"
        cfg.write_text("prime_bound = sixty\n")
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert "bad value" in err


class TestVerificationCaps:
    @pytest.mark.parametrize("argv, key", [
        (("verify", "--prime-bound", "2"), "prime_bound"),
        (("verify", "--level", "3", "--samples", "-5"), "samples"),
        (("radical", "--samples", "0"), "samples"),
        (("radical", "--samples", "-1"), "samples"),
        (("radical", "--precision", "0"), "precision"),
    ])
    def test_flag_below_range_is_bad_input(self, capsys, argv, key):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"verification cap {key} = " in err
        assert "postcritical" not in err

    def test_config_below_range_is_bad_input(self, capsys, tmp_path):
        cfg = tmp_path / "img.cfg"
        cfg.write_text("radical_points = -3\n")
        code, out, err = run(capsys, "verify", "--level", "3",
                             "--config", str(cfg))
        assert code == 2 and out == ""
        assert "verification cap radical_points = -3 is below 1" in err

    @pytest.mark.parametrize("line, message", [
        ("group_level = 0", "group_level = 0 is below 1"),
        ("group_level = -1", "group_level = -1 is below 1"),
        ("model_level = -1", "model_level = -1 is below 0"),
        ("disc_n = -1", "disc_n = -1 is below 0"),
    ])
    def test_config_level_below_range_is_bad_input(self, capsys, tmp_path,
                                                   line, message):
        cfg = tmp_path / "img.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2 and out == ""
        assert f"verification cap {message}" in err

    def test_zero_level_caps_skip_their_claims(self, capsys, tmp_path):
        cfg = tmp_path / "img.cfg"
        cfg.write_text("group_level = 3\nmodel_level = 0\ndisc_n = 0\n")
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0 and "0 failed" in out
        assert "model level < 1" in out and "disc cap < 1" in out

    def test_quick_level_keeps_config_level_caps(self, capsys, tmp_path):
        cfg = tmp_path / "img.cfg"
        cfg.write_text("model_level = 0\ndisc_n = 0\n")
        code, out, _ = run(capsys, "verify", "--level", "3",
                           "--config", str(cfg))
        assert code == 0 and "0 failed" in out
        assert "model level < 1" in out and "disc cap < 1" in out

    def test_quick_level_keeps_config_group_level(self, capsys, tmp_path):
        # --level lowers the caps and never raises one: the group claims
        # stay at the config's level 3
        cfg = tmp_path / "img.cfg"
        cfg.write_text("group_level = 3\nmodel_level = 0\ndisc_n = 0\n")
        code, out, _ = run(capsys, "verify", "--level", "5",
                           "--config", str(cfg))
        assert code == 0 and "0 failed" in out
        wreath = next(l for l in out.splitlines() if "wreath-presentation" in l)
        assert "level 3:" in wreath

    def test_quick_level_over_group_cap_is_resource_limit(self, capsys):
        code, out, err = run(capsys, "verify", "--level", "8")
        assert code == 3 and out == ""
        assert "resource limit" in err and "group_level = 8 exceeds 7" in err

    @pytest.mark.parametrize("argv, message", [
        (("radical", "--samples", "1000000000"),
         "radical_points = 1000000000 exceeds 1000"),
        (("radical", "--samples", "1001"), "radical_points = 1001 exceeds 1000"),
        (("radical", "--precision", "1000000000"),
         "precision = 1000000000 exceeds 4096"),
        (("radical", "--precision", "4097"), "precision = 4097 exceeds 4096"),
        (("verify", "--precision", "1000000000"),
         "precision = 1000000000 exceeds 4096"),
    ])
    def test_flag_over_cap_is_resource_limit(self, capsys, monkeypatch, argv,
                                            message):
        # refused before any base value is computed or any claim runs
        def never(*args, **kwargs):
            raise AssertionError("work started before the cap check")

        monkeypatch.setattr(constantfield, "preimage_tree", never)
        monkeypatch.setattr(cli, "run_claims", never)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert "resource limit" in err and message in err

    def test_caps_accept_their_limits(self):
        caps = VerifyCaps(precision=4096, radical_points=1000)
        assert (caps.precision, caps.radical_points) == (
            constantfield.PRECISION_CAP, constantfield.RADICAL_POINTS_CAP)
        # verify's own samples are cut inside the claims, so no cap applies
        assert VerifyCaps(samples=10**9).samples == 10**9

    @pytest.mark.parametrize("line, message", [
        ("group_level = 99", "group_level = 99 exceeds 7"),
        ("model_level = 8", "model_level = 8 exceeds 7"),
        ("disc_n = 9", "disc_n = 9 exceeds 5"),
        ("precision = 65536", "precision = 65536 exceeds 4096"),
        ("radical_points = 1001", "radical_points = 1001 exceeds 1000"),
    ])
    def test_config_over_cap_is_resource_limit(self, capsys, tmp_path,
                                               line, message):
        cfg = tmp_path / "img.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 3 and out == ""
        assert "resource limit" in err and message in err


class TestJsonOutput:
    @pytest.mark.parametrize("argv", [
        ("group", "--level", "4"),
        ("disc", "--n", "2"),
        ("maximality", "--a", "5"),
        ("radical", "--samples", "2"),
    ])
    def test_deterministic_and_parseable(self, capsys, argv):
        _, first, _ = run(capsys, *argv, "--format", "json")
        _, second, _ = run(capsys, *argv, "--format", "json")
        assert first == second
        json.loads(first)

    @pytest.mark.parametrize("argv", [
        ("group", "--level", "7"),
        ("arith", "--level", "5"),
        ("maximality", "--a", "5"),
    ])
    def test_stdout_does_not_depend_on_the_hash_seed(self, argv):
        # portraits hash as bytes, which PYTHONHASHSEED salts; no set
        # iteration order may reach the output
        outs = []
        for seed in ("1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(SRC), env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-m", "imgroups.cli", *argv, "--format", "json"],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        json.loads(outs[0])

    def test_maximality_json_fields(self, capsys):
        _, out, _ = run(capsys, "maximality", "--a", "5", "--format", "json")
        data = json.loads(out)
        assert data["verdict"] == "maximal"
        vias = {e["via"] for e in data["eliminations"]}
        assert vias == {"frobenius", "square_class"}


class TestGoldenOutput:
    # sha256 of the JSON stdout, the same under PYTHONHASHSEED 1 and 2;
    # byte-stable JSON is the output contract, so a new digest here must
    # come with a stated change of behaviour
    GOLDEN = {
        ("verify",):
            "f89997bf2c4416e87ce5f312eef3f283b9a31ba7e2cd836be9bb8320445cd1e2",
        ("arith", "--level", "7"):
            "932d1c818cf316a80e80f2afbd0da8be9063180815c649eabbc4770e08f006e2",
        ("group", "--level", "6"):
            "ee7934f51537a30c3569d5d50cdba30b28f1714bf0dd43cc914312fbf385d739",
        ("maximality", "--a", "5"):
            "8300dfaedcfa4c7759bf01591085434deba6576df5ecd382a4e23327c76d5d84",
        ("disc", "--n", "5"):
            "2aa950deec6c49a702eeefe676bcb6dbf419cd61a38cda0f3227258ee7832142",
    }

    @pytest.mark.parametrize("argv", sorted(GOLDEN))
    def test_json_digest(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("IMG_CACHE_DIR", raising=False)
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[argv]


class TestArgparse:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["group", "--bogus"])
        assert exc.value.code == 2
