"""Numerical verification layer: preimage trees and radical identities."""

import random

import mpmath
import pytest

import oracles
from imgroups import constantfield
from imgroups.constantfield import (
    IDENTITY_NAMES,
    MAX_TREE_DEPTH,
    branch_flip_invariance,
    preimage_tree,
    sample_points,
    verify_radical_identities,
)
from imgroups.errors import DegenerateTreeError


class TestPreimageTree:
    def test_known_children(self):
        # 1 +- sqrt(2/3), frozen to 15 digits
        tree = preimage_tree(3, 1, 256)
        a1, a2 = complex(tree.values["1"]), complex(tree.values["2"])
        assert abs(a1 - 1.816496580927726) < 1e-12
        assert abs(a2 - 0.183503419072274) < 1e-12

    def test_forward_map_inverts_every_edge(self):
        tree = preimage_tree(mpmath.mpc(2, 5), 3, 192)
        for word, val in tree.values.items():
            if not word:
                continue
            parent = tree.values[word[:-1]]
            image = oracles.forward_map(val, dps=50)
            assert abs(image - parent) < 1e-30

    def test_word_layout(self):
        tree = preimage_tree(3, 2, 128)
        assert sorted(tree.values) == ["", "1", "11", "12", "2", "21", "22"]
        assert complex(tree.values[""]) == 3

    def test_degenerate_roots_rejected(self):
        # tolerance at 128 bits is 2^-64, so these all count as postcritical
        for bad in (0, 2, 1e-30, 2 + 1e-33):
            with pytest.raises(DegenerateTreeError):
                preimage_tree(bad, 2, 128)

    def test_a_leaf_within_tolerance_of_0_is_rejected(self):
        # t0 = 2 / (1 - c)^2 with c = 2^-65 lies 2^-63 from 2, outside the
        # root's tolerance of 2^-64 at 128 bits, but its child 1 - sqrt(2/t0)
        # is c itself, a leaf that only the final scan sees
        with mpmath.workprec(256):
            t0 = 2 / (1 - mpmath.mpf(2) ** -65) ** 2
        with pytest.raises(DegenerateTreeError,
                           match="^value at vertex 2 is within tolerance of 0$"):
            preimage_tree(t0, 1, 128)

    @pytest.mark.parametrize("depth", [-1, MAX_TREE_DEPTH + 1])
    def test_depth_out_of_range(self, depth):
        with pytest.raises(ValueError, match=f"^depth {depth} out of range "
                           f"0..{MAX_TREE_DEPTH}$"):
            preimage_tree(3, depth)

    def test_flipped_branch_changes_values_not_fibers(self):
        plain = preimage_tree(5, 2, 160)
        flipped = preimage_tree(5, 2, 160, flipped=frozenset(["1"]))
        # the two children of "1" trade places, the unordered pair survives
        assert abs(plain.values["11"] - flipped.values["12"]) < 1e-40
        assert abs(plain.values["12"] - flipped.values["11"]) < 1e-40
        assert abs(plain.values["21"] - flipped.values["21"]) < 1e-40


class TestRadicalIdentities:
    def test_identity_names(self):
        rep = verify_radical_identities(3, 256)
        assert set(rep.residuals) == set(IDENTITY_NAMES)

    @pytest.mark.parametrize("t0", [3, 7, -4, 2.5 + 1.25j, -0.7 - 3j])
    def test_residuals_tiny(self, t0):
        rep = verify_radical_identities(t0, 256)
        assert rep.ok
        for name, res in rep.residuals.items():
            assert res < 1e-40, (name, res)

    def test_precision_scaling(self):
        lo = verify_radical_identities(3.5, 256)
        hi = verify_radical_identities(3.5, 512)
        for name in IDENTITY_NAMES:
            a, b = lo.residuals[name], hi.residuals[name]
            assert b == 0 or a / b >= 1e10, (name, a, b)

    def test_exact_zero_possible(self):
        # at t0 = 7 the double-reciprocal identity happens to come out
        # exactly 0 in binary floating point; the report must allow that
        rep = verify_radical_identities(7, 256)
        assert rep.ok

    def test_branch_flips(self):
        for t0 in (3, 5.5, 1 + 2j):
            assert branch_flip_invariance(t0, 192)

    def test_a_residual_above_tolerance_fails_the_flip_check(self, monkeypatch):
        monkeypatch.setattr(constantfield, "_depth3_residual",
                            lambda m1: mpmath.mpf(1))
        assert not branch_flip_invariance(3, 128)

    @pytest.mark.parametrize("precision", [16, 128])
    def test_flip_check_is_identity_3_of_the_full_report(self, precision):
        tol = mpmath.mpf(2) ** (-(precision // 2))
        for t0 in sample_points(8, seed=precision):
            full = all(
                verify_radical_identities(t0, precision, flipped={w})
                .residuals["depth3-square-is-minus-one"] <= tol
                for w in ("", "1", "2", "11", "12", "21", "22"))
            assert branch_flip_invariance(t0, precision) == full, t0

    @pytest.mark.parametrize("t0", [3, 2.5 + 1.25j, -0.7 - 3j])
    def test_pair_product_over_ordered_pairs(self, t0):
        # the report runs each unordered pair once; the ordered pairs give
        # the same residual to the last bit
        v = preimage_tree(t0, 3, 128).values
        with mpmath.workprec(128):
            inner = [w for w in v if len(w) <= 2]
            want = max(
                abs(lhs - rhs) / max(mpmath.mpf(1), abs(rhs))
                for w in inner for w2 in inner if w2 != w
                for lhs in [((v[w + "1"] - 1) * (v[w2 + "1"] - 1)) ** 2]
                for rhs in [4 / (v[w] * v[w2])])
        got = verify_radical_identities(t0, 128).residuals["pair-product"]
        assert got._mpf_ == want._mpf_

    def test_report_json(self):
        import json

        rep = verify_radical_identities(3, 128)
        blob = json.dumps(rep.to_json_dict())
        assert "child-product" in blob


class TestSamplePoints:
    def test_deterministic(self):
        assert sample_points(10, 99) == sample_points(10, 99)
        assert sample_points(10, 99) != sample_points(10, 100)

    def test_draws_near_the_postcritical_set_are_skipped(self):
        # seed 1's 53rd draw lies within 0.2 of 0 or 2; the 60 points are
        # the first 60 draws with it left out
        rng = random.Random(1)
        draws = [complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
                 for _ in range(61)]
        near = [i for i, z in enumerate(draws)
                if abs(z) < 0.2 or abs(z - 2) < 0.2]
        assert near == [52]
        assert sample_points(60, 1) == draws[:52] + draws[53:]

    def test_count_and_avoidance(self):
        pts = sample_points(50, 2024)
        assert len(pts) == 50
        for z in pts:
            assert abs(z) > 0.2
            assert abs(z - 2) > 0.2
            assert abs(z.real) <= 6 and abs(z.imag) <= 6
