"""Numerical verification layer: preimage trees and radical identities."""

import mpmath
import pytest

import oracles
from imgroups.constantfield import (
    IDENTITY_NAMES,
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

    def test_report_json(self):
        import json

        rep = verify_radical_identities(3, 128)
        blob = json.dumps(rep.to_json_dict())
        assert "child-product" in blob


class TestSamplePoints:
    def test_deterministic(self):
        assert sample_points(10, 99) == sample_points(10, 99)
        assert sample_points(10, 99) != sample_points(10, 100)

    def test_count_and_avoidance(self):
        pts = sample_points(50, 2024)
        assert len(pts) == 50
        for z in pts:
            assert abs(z) > 0.2
            assert abs(z - 2) > 0.2
            assert abs(z.real) <= 6 and abs(z.imag) <= 6
