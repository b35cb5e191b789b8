"""Acceptance gate: one test, and one pass/fail line, per criterion.

Every numeric tolerance and time budget is pinned here rather than
imported, so a regression in any module flips exactly one line.

Criterion 3 gates the slow growth of the arithmetic model that gives
it Hausdorff dimension zero.  The orders through the level cap 7 are
2, 8, 64, 256, 1024, 4096, 16384: from level 3 on every step is a
factor of 4, so |M_n| = 2^(2n) and log2|M_n| / (2^n - 1) tends to 0
(14/127 at level 7), and the one step above 4 is the level-3 jump by
exactly 8.  |M_3| = 64 is backed by a count that shares
nothing with the model's lift filter: M_3 contains the level-3 arboreal
group at a = 5, and of the 78,494 primes 11 <= p < 10^6 exactly 1,189
split f^3(x) = 5 completely, a share of 1/66.0 (about 2,450 would split
for an order of 32, about 613 for 128).
"""

import math
import random
import time
from fractions import Fraction

import pytest

import oracles
from imgroups.arithmodel import (
    build_model,
    brute_model_cross_check,
    cycle_type_table,
    frattini_subgroup,
    maximal_subgroups,
    odometer_elements,
    order_growth_report,
)
from imgroups.constantfield import (
    IDENTITY_NAMES,
    branch_flip_invariance,
    sample_points,
    verify_radical_identities,
)
from imgroups.errors import (
    ExcludedBasePointError,
    InsufficientDataError,
    ModelInconsistencyError,
)
from imgroups.maximality import BasePoint, maximality_verdict, recheck_certificate
from imgroups.polyarith import (
    discriminant_shape,
    iterate_metadata,
    iterate_pair,
    resultant,
)
from imgroups.selfsim import (
    abelian_invariants,
    commutator_subgroup,
    geometric_group,
    subgroup_H,
    subgroup_U,
    subgroup_index,
    verify_triple_theorem,
)
from imgroups.treeauto import Portrait, are_conjugate, iter_all


def test_criterion_1_geometric_order_profile():
    t0 = time.monotonic()
    for n in range(3, 8):
        assert len(geometric_group(n)) == 1 << (n + 2), n
    assert time.monotonic() - t0 < 10.0


def test_criterion_2_subgroup_ledger():
    t0 = time.monotonic()
    for n in range(3, 7):
        g = geometric_group(n)
        assert subgroup_index(g, subgroup_H(1, n)) == 4
        assert subgroup_index(g, subgroup_H(2, n)) == 2
        assert subgroup_index(g, subgroup_H(3, n)) == 2
        assert subgroup_index(g, subgroup_U(n)) == 4
        assert subgroup_index(g, commutator_subgroup(g)) == 8
        assert abelian_invariants(g) == (2, 4)
    assert time.monotonic() - t0 < 60.0


def test_criterion_3_model_order_growth():
    rep = order_growth_report(7)

    # the true profile, each value confirmed by an independent sweep
    # wherever the sweep is affordable
    assert rep.model_orders == (2, 8, 64, 256, 1024, 4096, 16384)
    for n in (1, 2, 3, 4):
        agrees, _, _ = brute_model_cross_check(n)
        assert agrees, n
    for n in range(3, 8):
        assert rep.model_orders[n - 1] == 1 << (2 * n)  # 2^(2n) from level 3
        assert not odometer_elements(build_model(n))
    m4 = build_model(4)
    assert subgroup_index(m4.group, frattini_subgroup(m4)) == 16
    assert len(maximal_subgroups(m4)) == 15
    assert (16,) not in cycle_type_table(m4.group)

    # the growth clause: from level 3 on every step is at most a factor
    # 4 (in fact exactly 4, so log2|M_n| / (2^n - 1) falls towards 0);
    # the only larger step is the level-3 jump, by exactly 8
    offenders = [
        (n + 1, rep.model_orders[n] // rep.model_orders[n - 1])
        for n in range(1, 7)
        if rep.model_orders[n] > 4 * rep.model_orders[n - 1]
    ]
    assert offenders == [(3, 8)], offenders
    dims = [
        math.log2(rep.model_orders[n - 1]) / ((1 << n) - 1) for n in range(3, 8)
    ]
    assert all(a > b for a, b in zip(dims, dims[1:])), dims
    assert dims[-1] == 14 / 127, dims

    # independent of the lift filter: by Chebotarev, f^n(x) = 5 splits
    # completely mod p at a share 1/|G_n(5)| of primes, and G_n(5) <= M_n
    # is all of M_n since a = 5 is maximal; the fixed prime range starts
    # above the primes 2, 3, 5 that ramify (discriminant 2^c a^i (2-a)^j)
    primes = oracles.primes_between(11, 10**6)
    total = len(primes)
    splits = oracles.preimage_split_counts(5, 4, primes)
    for n in (1, 2, 3, 4):
        expected = total / rep.model_orders[n - 1]
        assert abs(splits[n - 1] - expected) <= expected / 4, (n, splits)
    assert abs(splits[2] - total / 32) > total / 32 / 4, splits  # |M_3| != 32


def test_criterion_4_arithmetic_to_geometric_ratio():
    m5 = build_model(5)
    assert subgroup_index(m5.group, geometric_group(5)) == 8


def test_criterion_5_discriminant_shapes():
    # delta_1 = 8t exactly
    s1 = discriminant_shape(1)
    assert (s1.sign, s1.c, s1.a, s1.b) == (1, 3, 1, 0)
    assert s1.reconstruct().coeffs == (0, 8)
    for n in range(1, 6):
        shape = discriminant_shape(n)
        assert shape.reconstruct() is not None
    assert iterate_metadata(1).wronskian_lc == -4
    assert iterate_metadata(2).wronskian_lc == -16
    for n in range(1, 7):
        assert abs(iterate_metadata(n).wronskian_lc) == 4 ** n
    for n in range(1, 9):
        it = iterate_pair(n)
        assert it.g.coeffs[-1] == 2 and it.h.coeffs[-1] == 1
        assert it.h.degree() == 1 << n
    for n in range(2, 6):
        for k in range(2, n + 1):
            v = abs(resultant(iterate_pair(k).g, iterate_pair(n).h))
            assert v and v & (v - 1) == 0, (k, n)


def test_criterion_6_maximality_certificates():
    t0 = time.monotonic()
    v5 = maximality_verdict(BasePoint(Fraction(5)))
    assert v5.status == "maximal"
    assert recheck_certificate(v5)
    assert time.monotonic() - t0 < 30.0

    assert maximality_verdict(BasePoint(Fraction(1))).status == "not_maximal"
    for bad in (Fraction(0), Fraction(2)):
        with pytest.raises(ExcludedBasePointError):
            BasePoint(bad)

    # the sampler must never observe a cycle type outside the model
    rng = random.Random(20260815)
    seen = 0
    while seen < 100:
        num = rng.randint(-30, 30)
        den = rng.randint(1, 10)
        a = Fraction(num, den)
        if a in (0, 2):
            continue
        seen += 1
        try:
            v = maximality_verdict(BasePoint(a), 150)
        except InsufficientDataError:
            continue  # a thin prime harvest is acceptable, silence is not
        except ModelInconsistencyError as exc:  # pragma: no cover
            raise AssertionError(f"inconsistent observation at a={a}: {exc}")
        assert v.status in ("maximal", "not_maximal", "inconclusive")
        assert recheck_certificate(v), a


def test_criterion_7_radical_identities():
    points = sample_points(20, 2024)
    for t0 in points:
        rep = verify_radical_identities(t0, 256)
        assert rep.ok
        for name, res in rep.residuals.items():
            assert res < 1e-40, (t0, name, res)
    probe = points[0]
    lo = verify_radical_identities(probe, 256)
    hi = verify_radical_identities(probe, 512)
    for name in IDENTITY_NAMES:
        a, b = lo.residuals[name], hi.residuals[name]
        assert b == 0 or a / b >= 1e10, (name, a, b)
    assert branch_flip_invariance(points[1], 256)


def test_criterion_8_conjugacy_cross_checks():
    # exhaustive at level 3
    omega = list(iter_all(3))
    classes = {}
    for u in omega:
        if u not in classes:
            orbit = frozenset(g.inverse() * u * g for g in omega)
            for x in orbit:
                classes[x] = orbit
    for u in omega:
        for v in omega:
            assert are_conjugate(u, v) == (v in classes[u])

    verify_triple_theorem(1)
    verify_triple_theorem(2)
    verify_triple_theorem(3)

    # random cross-checks at deeper levels: explicit conjugates must be
    # recognized, and cycle-type mismatches must be rejected
    rng = random.Random(88)
    checked = 0
    while checked < 10_000:
        level = rng.randint(1, 5)
        nbits = (1 << level) - 1
        u = Portrait(level, [rng.getrandbits(1) for _ in range(nbits)])
        g = Portrait(level, [rng.getrandbits(1) for _ in range(nbits)])
        v = g.inverse() * u * g
        assert are_conjugate(u, v)
        checked += 1
        w = Portrait(level, [rng.getrandbits(1) for _ in range(nbits)])
        if w.cycle_type() != u.cycle_type():
            assert not are_conjugate(u, w)
            checked += 1
