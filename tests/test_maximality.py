"""Square classes, Frobenius sampling, elimination, and the full verdict.

The frozen witnesses (p = 7, 11, 13, 17 for base point 5) were found by
the streaming search itself and then pinned; the structural facts that
matter, such as the profiles (cycle types on levels 1-4) of each coset of
G_4 and which subgroups the plain level-4 cycle-type table cannot
eliminate, are recomputed here by brute force rather than trusted.
"""

import dataclasses
import hashlib
import json
import random
import time
from fractions import Fraction
from pathlib import Path
from math import exp, log, prod

import pytest

import oracles
from imgroups.arithmodel import build_model, cycle_type_table, maximal_subgroups
from imgroups import maximality, polyarith
from imgroups.treeauto import Portrait
from imgroups.errors import (
    ExcludedBasePointError,
    InsufficientDataError,
    ModelInconsistencyError,
    ResourceLimitError,
)
from imgroups.maximality import (
    BASE_POINT_BITS_CAP,
    MIN_USABLE_PRIMES,
    BasePoint,
    FrobeniusObservation,
    cycle_blind_subgroups,
    eliminate_maximal_subgroups,
    maximality_verdict,
    recheck_certificate,
    residue_cosets,
    sample_frobenius,
    square_class_test,
)

BLIND = ("Mmax-01", "Mmax-05", "Mmax-09", "Mmax-13", "Mmax-14")
ALL_MAXIMAL = tuple(f"Mmax-{i:02d}" for i in range(1, 16))
# one odd prime per residue 1, 3, 5, 7 mod 8
PRIME_OF_RESIDUE = {1: 17, 3: 3, 5: 5, 7: 7}
# the profile of the identity: every vertex of levels 1-4 fixed
IDENTITY_PROFILE = tuple((1,) * (1 << k) for k in range(1, 5))
# ordered pairs (H, S) of maximal subgroups where no coset of G_4 holds a
# level-4 cycle type of H missing from S
TYPE_BLIND_PAIRS = {("Mmax-04", "Mmax-08"), ("Mmax-04", "Mmax-12"),
                    ("Mmax-06", "Mmax-08"), ("Mmax-06", "Mmax-14"),
                    ("Mmax-10", "Mmax-08")}
# a = 21 keeps Mmax-04 until its witness at 31
INCONCLUSIVE = (Fraction(21), 30)


class TestBasePoint:
    def test_parse_and_text(self):
        assert BasePoint.parse("5").a == 5
        assert BasePoint.parse(" 7/3 ").a == Fraction(7, 3)
        assert BasePoint.parse("-3").text() == "-3"
        assert BasePoint.parse("9/4").text() == "9/4"

    def test_excluded(self):
        for bad in ("0", "2", "4/2"):
            with pytest.raises(ExcludedBasePointError):
                BasePoint.parse(bad)

    def test_malformed(self):
        with pytest.raises(ValueError, match="zero denominator"):
            BasePoint.parse("1/0")
        with pytest.raises(ValueError, match="malformed"):
            BasePoint.parse("five")

    def test_height_cap(self):
        cap = BASE_POINT_BITS_CAP
        top = (1 << cap) - 1
        assert BasePoint(Fraction(-1, top)).a == Fraction(-1, top)
        for big in (Fraction(1 << cap), Fraction(3, 1 << cap)):
            with pytest.raises(ResourceLimitError,
                               match=f"height of {cap + 1} bits exceeds cap {cap}"):
                BasePoint(big)

    def test_huge_exponent_refused_before_it_is_expanded(self):
        # Fraction("1e20000000") alone takes tens of seconds
        start = time.perf_counter()
        for text in ("1e20000000", "0e-20000000", "7.5E+99999999999"):
            with pytest.raises(ResourceLimitError, match="exponent too large"):
                BasePoint.parse(text)
        assert time.perf_counter() - start < 1
        assert BasePoint.parse("25e-1").a == Fraction(5, 2)
        with pytest.raises(ResourceLimitError, match="height of 4320 bits"):
            BasePoint.parse("2e1300")

    def test_an_int_is_stored_as_a_fraction(self):
        point = BasePoint(5)
        assert type(point.a) is Fraction and point.a == 5
        assert point == BasePoint(Fraction(5))


class TestSquareClasses:
    def test_point_5(self):
        rep = square_class_test(BasePoint(Fraction(5)))
        assert rep.labels == ("-1", "2", "a", "2-a")
        assert rep.parts == (-1, 2, 5, -3)
        assert rep.rank == 4
        assert rep.passed
        assert rep.dependent_subset is None

    def test_constant_classes_are_square_class(self):
        assert maximality._CONSTANT_CLASSES == (
            polyarith.square_class(Fraction(-1)),
            polyarith.square_class(Fraction(2)))

    def test_square_class_matches_whole_table_trial_division(self):
        # square_class trial-divides by the smallest table whose primes
        # reach past the cube root of its cofactor; plain trial division
        # by every prime below 10^6 must find the same class and cofactor.
        # The crafted values put two or three prime factors on each side of
        # each table's end: 2^15 .. 2^19 and 10^6
        primes = oracles.primes_between(2, 10**6 + 100)
        below = [p for p in primes if p < 10**6]
        values = [HUGE_POINT]
        for end in (*(1 << k for k in range(15, 20)), 10**6):
            i = next(i for i, p in enumerate(primes) if p > end)
            q0, q1, q2 = primes[i - 1], primes[i], primes[i + 1]
            values += [q1 * q1 * q2, q1**3, q1 * q2, q1 * q1, q0 * q1 * q2,
                       Fraction(-15 * q1 * q1, q2), Fraction(q0 * q0, 6 * q1)]
        rng = random.Random(31)
        for _ in range(60):
            u, v = (rng.getrandbits(rng.randint(1, 80)) | 1 for _ in range(2))
            values.append(Fraction(rng.choice((-1, 1)) * u, v))
        got = [polyarith.square_class(a) for a in values]
        assert got == [oracles.square_class_by_trial_division(a, below)
                       for a in values]
        assert sum(cofactor != 1 for _, cofactor in got) > 1

    def test_point_1(self):
        rep = square_class_test(BasePoint(Fraction(1)))
        assert not rep.passed
        assert rep.dependent_subset == ("a",)

    def test_point_8(self):
        rep = square_class_test(BasePoint(Fraction(8)))
        assert not rep.passed
        assert rep.dependent_subset == ("2", "a")

    def test_representation_invariance(self):
        # 9/4 and 9 * 4 = 36 land in the same square class
        rep_frac = square_class_test(BasePoint(Fraction(9, 4)))
        rep_int = square_class_test(BasePoint(Fraction(36)))
        assert rep_frac.parts[2] == rep_int.parts[2] == 1

    def test_pass_iff_no_square_subset(self):
        # brute oracle: a nonempty subset multiplying to a perfect square
        # exists exactly when the report says the classes are dependent
        import itertools
        import math

        for a in (Fraction(3), Fraction(5), Fraction(1), Fraction(8),
                  Fraction(-1), Fraction(7, 2), Fraction(-2), Fraction(18),
                  *LARGE_POINTS):
            rep = square_class_test(BasePoint(a))
            values = [Fraction(-1), Fraction(2), a, 2 - a]
            dependent = False
            for r in range(1, 5):
                for combo in itertools.combinations(values, r):
                    prod = Fraction(1)
                    for v in combo:
                        prod *= v
                    if prod > 0:
                        num, den = prod.numerator, prod.denominator
                        if math.isqrt(num) ** 2 == num and \
                                math.isqrt(den) ** 2 == den:
                            dependent = True
            assert rep.passed == (not dependent), a

    def test_parts_are_squarefree(self):
        rep = square_class_test(BasePoint(Fraction(45, 7)))
        for part in rep.parts:
            assert part == oracles.squarefree_part_slow(part)

    def test_large_prime_part_in_bounded_time(self):
        # trial division stops at the cube root of the cofactor, about 10^5
        # here, and a cofactor below 10^18 left by it has at most two prime
        # factors; dividing up to its square root would take seconds
        start = time.perf_counter()
        rep = square_class_test(BasePoint(Fraction(10**15 + 37)))
        assert time.perf_counter() - start < 5
        assert rep.parts[2] == 10**15 + 37
        assert rep.passed

    def test_unfactored_cofactor_is_kept_whole(self):
        # the part of a is a class representative, not certified
        # squarefree: squarefree_part refuses the same value
        n = (10**10 + 19) * (10**10 + 33)
        rep = square_class_test(BasePoint(Fraction(n)))
        assert rep.parts[2] == n
        assert rep.derivation[2].startswith(
            "square-class representatives (a cofactor above 10^18 is not "
            "factored): ")
        with pytest.raises(ResourceLimitError,
                           match="refusing to factor a 67-bit cofactor"):
            polyarith.squarefree_part(n)


class TestFrobeniusSampling:
    def test_point_5_observations(self):
        obs = sample_frobenius(BasePoint(Fraction(5)), 60)
        primes = [o.prime for o in obs]
        assert primes == sorted(primes)
        assert 2 not in primes
        assert 3 not in primes  # divides the leading coefficient 2 - 5
        by_prime = {o.prime: o.cycle_type for o in obs}
        assert by_prime[13] == (4, 4, 4, 2, 1, 1)
        assert by_prime[19] == (8, 8)

    def test_every_type_is_realized_by_the_model(self):
        model_types = set(cycle_type_table(build_model(4).group))
        obs = sample_frobenius(BasePoint(Fraction(5)), 200)
        assert {o.cycle_type for o in obs} <= model_types

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            sample_frobenius(BasePoint(Fraction(5)), 6)

    def test_insufficient_data_names_the_point_and_the_bound(self):
        # 3 divides the leading coefficient 2 - 5 and 5 divides a, so 7 is
        # the one usable prime up to 10; at a = 7/3 the usable primes up
        # to 13 are 5, 11 and 13 itself, as the stream includes the bound
        with pytest.raises(InsufficientDataError, match=(
                r"^maximality: a = 5 has 1 usable prime up to 10 "
                rf"\(need {MIN_USABLE_PRIMES}\)$")):
            sample_frobenius(BasePoint(Fraction(5)), 10)
        with pytest.raises(InsufficientDataError, match=(
                r"^maximality: a = 7/3 has 3 usable primes up to 13 ")):
            maximality_verdict(BasePoint(Fraction(7, 3)), 13)


def _stream(a, bound):
    """The stream's (prime, profile) pairs up to the bound, with no
    usable-prime floor."""
    return list(maximality._frobenius_stream(BasePoint(a),
                                             polyarith.primes_up_to(bound)))


def _reference_stream(a, bound):
    """(prime, profile) at every good odd prime up to the bound, each level
    counted afresh on the integer numerators by the public route; the
    level-4 numerator decides which primes are good."""
    polys = [polyarith.specialize_numerator(k, a) for k in range(1, 5)]
    out = []
    for p in polyarith.primes_up_to(bound):
        if p == 2 or polys[-1].lc % p == 0:
            continue
        if polyarith.factor_degrees_mod_p(polys[-1], p) is not None:
            out.append((p, tuple(polyarith.factor_degrees_mod_p(f, p)
                                 for f in polys)))
    return out


def _pool_draw(rng):
    """a = +-u/v with u and v log-uniform in [1, 10^6], as the benchmark's
    pool is drawn."""
    span = log(10**6)
    while True:
        u, v = (min(10**6, int(exp(rng.random() * span)))
                for _ in range(2))
        a = Fraction(rng.choice((1, -1)) * u, v)
        if a not in (0, 2):
            return a


HUGE_POINT = Fraction(random.Random(19).getrandbits(4095) | 1 << 4095, 3**9 * 7)

# points whose square classes no certified factoring reaches: a cofactor
# above 10^18 that is neither a square nor a Miller-Rabin prime, in a or in
# 2 - a; the last three have square subsets {2, a}, {2-a} and {a, 2-a}
LARGE_POINTS = (
    Fraction(123456789012345678901, 98765432109876543211),
    Fraction((10**10 + 19) * (10**10 + 33)),
    HUGE_POINT,
    Fraction(2 * (10**10 + 19)**2 * (10**10 + 33)**2),
    Fraction(2 - (10**10 + 19)**2 * (10**10 + 33)**2),
    Fraction(2, 1 + (10**10 + 19)**2 * (10**10 + 33)**2),
)

# points that differ by a multiple of every odd prime below 60 lie in the
# same fibre at every prime of a stream bounded by 60
ODD_PRIMORIAL_60 = prod(polyarith.primes_up_to(60)[1:])


class TestFibreMemo:
    @pytest.mark.parametrize("a", [
        Fraction(7, 3),                  # p | v at 3
        Fraction(-22, 15),               # negative; p | v at 3 and 5
        Fraction(5 * 7 * 11),            # a = 0 mod 5, 7, 11
        Fraction(2 + 13 * 17 * 19),      # a = 2 mod 13, 17, 19
        HUGE_POINT,
    ], ids=["7/3", "-22/15", "385", "4201", "4096-bit"])
    def test_stream_matches_the_public_route(self, a):
        bound = 2000
        assert _stream(a, bound) == _reference_stream(a, bound)

    @pytest.mark.parametrize("a", [Fraction(5), Fraction(-22, 15)], ids=str)
    def test_congruent_points_share_entries(self, a):
        memo = maximality._fibre_profile
        first = _stream(a, 60)
        before = memo.cache_info()
        second = _stream(a + ODD_PRIMORIAL_60, 60)
        after = memo.cache_info()
        assert second == first and len(first) > 5
        assert after.misses == before.misses
        assert after.hits == before.hits + len(second)

    def test_skips_are_the_resultant_routes_bad_primes(self, monkeypatch):
        # the stream skips p | 2uv(u - 2v); the integer route skips 2 and
        # p | lc(f) or p | Res(f, f').  Only the skip sets are compared, so
        # no fibre is counted.
        monkeypatch.setattr(maximality, "_fibre_profile", lambda p, t: ())
        primes = polyarith.primes_up_to(10**4)
        rng = random.Random(20)
        for _ in range(64):
            a = _pool_draw(rng)
            kept = {p for p, _ in
                    maximality._frobenius_stream(BasePoint(a), primes)}
            poly = polyarith.specialize_numerator(4, a)
            res = polyarith.resultant(poly, poly.derivative())
            bad = {p for p in primes
                   if p == 2 or poly.lc % p == 0 or res % p == 0}
            assert set(primes) - kept == bad, a

    def test_one_object_per_cycle_type(self):
        # one object per profile, shared with the level-4 tables
        profiles = [maximality._fibre_profile(p, t)
                    for p in (101, 103) for t in range(3, 40)]
        assert len(set(profiles)) < len(profiles)
        assert len({id(pr) for pr in profiles}) == len(set(profiles))
        coset_profiles, _ = maximality._level4_data()
        tabled = {id(pr) for c in coset_profiles for pr in c}
        assert {id(pr) for pr in profiles} <= tabled

    def test_stream_builds_no_integer_numerator(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the integer numerator was built")
        monkeypatch.setattr(maximality, "specialize_numerator", refuse)
        assert maximality_verdict(BasePoint(Fraction(7, 3))).status == "maximal"
        assert sample_frobenius(BasePoint(HUGE_POINT), 200)

    def test_recheck_leaves_the_memo_alone(self):
        v = maximality_verdict(BasePoint(Fraction(7, 3)))
        assert v.frobenius_eliminations
        before = maximality._fibre_profile.cache_info()
        assert recheck_certificate(v)
        assert maximality._fibre_profile.cache_info() == before

    @pytest.mark.parametrize("p", [7, 101, 9973])
    def test_fibres_match_the_ddf_oracle(self, p):
        pairs = [polyarith.iterate_pair(k) for k in range(1, 5)]
        checked = 0
        for t in range(min(p, 50)):
            if t == 2:
                continue
            want = tuple(oracles.ddf_degrees_reference(
                (fr.g - fr.h.scale(t)).coeffs, p) for fr in pairs)
            if want[-1] is not None:
                assert maximality._fibre_profile(p, t) == want, (p, t)
                checked += 1
        assert checked >= min(p, 50) // 2


def _kernel_fibre(p, t, n=4):
    """Factor degrees of g_n - t h_n mod p by the packed counting kernel."""
    fr = polyarith.iterate_pair(n)
    f = [c % p for c in (fr.g - fr.h.scale(t)).coeffs]
    inv = pow(f[-1], -1, p)
    return polyarith._factor_degrees_monic([c * inv % p for c in f], p)


class TestPreimageWalk:
    @pytest.mark.parametrize("p, t", [(7, 0), (7, 2), (7, 9), (9, 1), (2, 1)])
    def test_bad_fibres_are_refused(self, p, t):
        with pytest.raises(ValueError, match="not a good fibre"):
            maximality._fibre_profile(p, t)

    def test_levels_1_to_5_match_the_integer_numerator(self):
        # each walk's entry at every level k <= n against the factor
        # degrees of the level-k numerator
        rng = random.Random(23)
        primes = polyarith.primes_up_to(2000)[1:]
        checked = 0
        for n in range(1, 6):
            for _ in range(12):
                a = _pool_draw(rng)
                u, v = a.numerator, a.denominator
                polys = [polyarith.specialize_numerator(k, a)
                         for k in range(1, n + 1)]
                for p in rng.sample(primes, 4):
                    if 2 * u * v * (u - 2 * v) % p == 0:
                        continue
                    t = u * pow(v, -1, p) % p
                    profile = maximality._preimage_profile(p, t, n)
                    assert len(profile) == n
                    for k, poly in enumerate(polys, 1):
                        assert profile[k - 1] == \
                            polyarith.factor_degrees_mod_p(poly, p), (k, n, a, p)
                    checked += 1
        assert checked > 200

    def test_every_good_fibre_below_60(self):
        for p in polyarith.primes_up_to(60)[1:]:
            for t in range(p):
                if t not in (0, 2):
                    assert maximality._fibre_profile(p, t) == tuple(
                        _kernel_fibre(p, t, k) for k in range(1, 5)), (p, t)

    @pytest.mark.parametrize("p", [1019, 1021, 1031, 1033])
    def test_root_routes_agree_at_the_table_cutoff(self, p):
        # 1019 and 1021 read the root table, 1031 and 1033 Euler's
        # criterion and `_sqrt_mod`: both give a square root of every
        # square and call exactly Euler's non-residues non-squares
        below = p < maximality._ROOT_TABLE_CUTOFF
        assert below == (p < 1024)
        is_square, sqrt = maximality._roots(p)
        if below:
            assert maximality._root_table(p).nbytes == 2 * p
        for x in range(1, p):
            euler = pow(x, p >> 1, p) == 1
            assert bool(is_square(x)) == euler, (p, x)
            if euler:
                r = sqrt(x)
                assert r * r % p == x, (p, x)
                assert r in (maximality._sqrt_mod(x, p),
                             p - maximality._sqrt_mod(x, p)), (p, x)
            elif below:
                assert maximality._root_table(p)[x] == 0, (p, x)
        rng = random.Random(p)
        for t in rng.sample(range(3, p), 25):
            assert maximality._preimage_profile(p, t, 4)[-1] == \
                _kernel_fibre(p, t), (p, t)

    @pytest.mark.parametrize("p", [257, 7681, 65537])
    def test_primes_with_a_large_power_of_2_in_p_minus_1(self, p):
        # p - 1 = q 2^e with e = 8, 9, 16, so Tonelli-Shanks runs its loop;
        # 7681 and 65537 lie above the root-table cutoff, so the walks
        # below take their square roots from it as well
        assert 257 < maximality._ROOT_TABLE_CUTOFF <= 7681
        rng = random.Random(p)
        for _ in range(50):
            x = rng.randrange(1, p)
            r = maximality._sqrt_mod(x * x % p, p)
            assert r in (x, p - x)
        types = set()
        for t in rng.sample(range(3, p), 40):
            got = maximality._preimage_profile(p, t, 4)[-1]
            assert got == _kernel_fibre(p, t), (p, t)
            types.add(got)
        assert len(types) > 1

    def test_verdicts_and_rechecks_use_different_algorithms(self, monkeypatch):
        class KernelReached(Exception):
            pass

        def refuse(f, prime):
            raise KernelReached(prime)
        monkeypatch.setattr(polyarith, "_factor_degrees_monic", refuse)
        maximality._fibre_profile.cache_clear()
        v = maximality_verdict(BasePoint(Fraction(7, 3)))
        assert v.status == "maximal"
        with pytest.raises(KernelReached):
            recheck_certificate(v)


class TestTowerArithmetic:
    """The F_p-tower functions bottom out at depth 1, F_p(s_1) = F_(p^2);
    F_p itself is no depth of the tower."""

    @staticmethod
    def _tower(p, depth):
        """beta_1 the least non-residue of F_p, beta_2 a non-square of
        F_p(s_1) with second coordinate 1."""
        is_square = maximality._roots(p)[0]
        tower = (maximality._non_residue(p),)
        if depth == 2:
            tower += (next((c, 1) for c in range(p) if not is_square(
                maximality._t_norm((c, 1), tower, 1, p))),)
        return tower

    @pytest.mark.parametrize("p", [7, 13, 17, 1021, 1031, 1033, 9973])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_square_roots_of_subfield_elements(self, p, depth):
        # an element of F_p is a square in F_(p^2), with b = 0 at every
        # depth; at depth 1 and a non-square a the root is sqrt(a/beta) s,
        # which the general formula would reach through sqrt(0).  1021
        # reads the root table, 1031 and 1033 (= 1 mod 4, Tonelli-Shanks,
        # where sqrt(0) never returns) take Euler's route
        roots = maximality._roots(p)
        tower = self._tower(p, depth)
        rng = random.Random(p)
        for a in rng.sample(range(1, p), min(p - 1, 40)):
            x = maximality._t_embed(a, depth)
            r = maximality._t_sqrt(x, tower, depth, p, roots)
            assert maximality._t_mul(r, r, tower, depth, p) == x, (p, a)
            assert maximality._t_norm(x, tower, depth, p) == \
                pow(a, 1 << depth, p)

    @pytest.mark.parametrize("p", [13, 1033])
    def test_square_roots_of_the_middle_field(self, p):
        # a + b s_1 inside F_p(s_1, s_2): every element of F_(p^2) is a
        # square in F_(p^4), and the non-squares of F_(p^2) take the
        # sqrt(a / beta_2) s_2 route
        roots = maximality._roots(p)
        tower = self._tower(p, 2)
        zero = maximality._t_embed(0, 1)
        rng = random.Random(p)
        routes = set()
        for _ in range(60):
            y = (rng.randrange(p), rng.randrange(1, p))
            r = maximality._t_sqrt((y, zero), tower, 2, p, roots)
            assert maximality._t_mul(r, r, tower, 2, p) == (y, zero), (p, y)
            routes.add(r[1] == zero)
        assert routes == {True, False}

    def test_inverse_and_norm_at_depth_2(self):
        p = 1033
        tower = self._tower(p, 2)
        one = maximality._t_embed(1, 2)
        rng = random.Random(2)
        for _ in range(30):
            x = tuple((rng.randrange(p), rng.randrange(p)) for _ in range(2))
            if x == maximality._t_embed(0, 2):
                continue
            assert maximality._t_mul(
                x, maximality._t_inv(x, tower, 2, p), tower, 2, p) == one
            # the norm is multiplicative
            y = maximality._t_mul(x, x, tower, 2, p)
            assert maximality._t_norm(y, tower, 2, p) == \
                pow(maximality._t_norm(x, tower, 2, p), 2, p)

    @pytest.mark.parametrize("p", [1031, 1033, 7681])
    def test_levels_4_and_5_against_the_ddf_oracle(self, p):
        # above the root-table cutoff, where every root is computed; each
        # entry k of a level-5 walk against distinct-degree factorization
        # of g_k - t h_k, and the level-4 walk as its prefix
        rng = random.Random(p)
        for t in rng.sample(range(3, p), 50):
            profile = maximality._preimage_profile(p, t, 5)
            assert maximality._preimage_profile(p, t, 4) == profile[:4]
            for k in range(1, 6):
                fr = polyarith.iterate_pair(k)
                assert profile[k - 1] == oracles.ddf_degrees_reference(
                    (fr.g - fr.h.scale(t)).coeffs, p), (p, t, k)


class TestBlindSubgroups:
    def test_frozen_names(self):
        assert cycle_blind_subgroups() == BLIND

    def test_blindness_recomputed_from_tables(self):
        # a subgroup is invisible to Frobenius statistics exactly when its
        # cycle types cover everything the model realizes
        m4 = build_model(4)
        full = set(cycle_type_table(m4.group))
        for sub in maximal_subgroups(m4):
            covers = set(cycle_type_table(sub.group)) == full
            assert covers == (sub.name in BLIND), sub.name

    def test_each_blind_subgroup_misses_a_type_within_a_coset(self):
        # read off the profile tables by their level-4 entries
        coset_profiles, tables = maximality._level4_data()
        for name in BLIND:
            assert any(_types(part) < _types(full) for part, full
                       in zip(tables[name], coset_profiles)), name


def _types(profiles):
    """The level-4 cycle types of a set of profiles."""
    return {pr[-1] for pr in profiles}


class TestProfiles:
    def test_group_profiles_are_the_restrictions_cycle_types(self):
        m4 = build_model(4)
        profiles = maximality._group_profiles(m4.group.elements)
        assert len(profiles) == 256
        for u in m4.group.sorted_elements():
            assert profiles[u.perm] == tuple(
                u.restrict(k).cycle_type() for k in range(1, 5)), u

    def test_eighteen_profiles_and_thirty_four_keys(self):
        coset_profiles, _ = maximality._level4_data()
        assert len(frozenset().union(*coset_profiles)) == 18
        assert [len(c) for c in coset_profiles] == [10, 9, 8, 7]
        assert len(_types(frozenset().union(*coset_profiles))) == 7
        assert len(maximality._elimination_table()) == 34

    def test_profiles_separate_every_ordered_pair(self):
        # an image H rules S out when some coset holds an invariant of H
        # missing from S: profiles do it for all 210 ordered pairs, level-4
        # cycle types for all but five
        _, tables = maximality._level4_data()

        def separates(h, s, key):
            return any(key(hc) - key(sc)
                       for hc, sc in zip(tables[h], tables[s]))
        pairs = [(h, s) for h in ALL_MAXIMAL for s in ALL_MAXIMAL if h != s]
        assert len(pairs) == 210
        assert all(separates(h, s, set) for h, s in pairs)
        assert {(h, s) for h, s in pairs
                if not separates(h, s, _types)} == TYPE_BLIND_PAIRS


@pytest.fixture(scope="module")
def brute_tables():
    """(coset profiles, tables) by a pass over M_4's elements on swap bits:
    cosets of G_4 numbered by their first element in sorted order, cycle
    types at level k from the node-string action of the first 2^k - 1
    swap bits, membership by swap-bit tuples."""
    m4 = build_model(4)
    g4 = {g.swaps for g in m4.geometric.sorted_elements()}
    subgroups = {ms.name: {h.swaps for h in ms.group.sorted_elements()}
                 for ms in maximal_subgroups(m4)}
    reps = []
    coset_types = []
    tables = {name: [] for name in subgroups}
    for g in m4.group.sorted_elements():
        u = g.swaps
        c = next((i for i, r in enumerate(reps) if oracles.compose_swaps(
            oracles.invert_swaps(r, 4), u, 4) in g4), None)
        if c is None:
            c = len(reps)
            reps.append(u)
            coset_types.append(set())
            for sets in tables.values():
                sets.append(set())
        t = tuple(oracles.cycle_type_of_perm(
            oracles.leaf_permutation(u[:(1 << k) - 1], k)) for k in range(1, 5))
        coset_types[c].add(t)
        for name, members in subgroups.items():
            if u in members:
                tables[name][c].add(t)
    return coset_types, tables


class TestResidueCosets:
    def test_coset_tables_match_a_brute_force_pass(self, brute_tables):
        coset_types, tables = maximality._level4_data()
        assert [set(t) for t in coset_types] == brute_tables[0]
        assert {n: [set(t) for t in sets] for n, sets in tables.items()} \
            == brute_tables[1]
        assert [len(_types(t)) for t in coset_types] == [5, 5, 5, 3]
        assert [(1,) * 16 in _types(t) for t in coset_types] == \
            [True, False, False, False]

    def test_residues_that_label_no_coset_one_to_one(self, monkeypatch):
        # with no observation over a = 5, residues 5 and 7 each still fit
        # all three cosets outside G_4
        monkeypatch.setattr(maximality, "_frobenius_stream",
                            lambda point, primes: iter(()))
        with pytest.raises(ModelInconsistencyError,
                           match=r"residue 5 fits \[1, 2, 3\].*violated"):
            residue_cosets.__wrapped__()

    def test_labelling_pinned(self):
        lab = residue_cosets()
        assert lab.cosets == (None, 0, None, 3, None, 1, None, 2)
        assert [(o.prime, o.cycle_type) for o in lab.witnesses] == [
            (13, (4, 4, 4, 2, 1, 1)), (23, (8, 8)), (103, (2,) * 8)]
        assert [o.profile[:2] for o in lab.witnesses] == [
            ((1, 1), (2, 1, 1)), ((2,), (4,)), ((2,), (2, 2))]
        assert residue_cosets() is lab  # computed once

    def test_even_primes_have_no_coset(self):
        for p in (2, 4, 100):
            with pytest.raises(ValueError, match="not an odd prime"):
                residue_cosets().coset(p)

    def test_subgroups_containing_g4_fix_the_quadratic_subfields(self):
        # H >= G_4 is two cosets; the residues of those cosets are the
        # primes at which d is a square, for Q(sqrt(d)) the field H fixes
        m4 = build_model(4)
        _, tables = maximality._level4_data()
        lab = residue_cosets()
        fixed = {}
        for ms in maximal_subgroups(m4):
            empty = [c for c, part in enumerate(tables[ms.name]) if not part]
            assert bool(empty) == (m4.geometric.elements <= ms.group.elements)
            if empty:
                assert len(empty) == 2
                for d in (-1, 2, -2):
                    if all((oracles.legendre(d, p) == 1)
                           == (lab.coset(p) not in empty)
                           for p in polyarith.primes_up_to(500)[1:]):
                        fixed[ms.name] = d
        assert fixed == {"Mmax-03": -2, "Mmax-05": 2, "Mmax-06": -1}

    @pytest.mark.parametrize("a", [Fraction(7, 3), Fraction(-22, 15),
                                   Fraction(385), HUGE_POINT],
                             ids=["7/3", "-22/15", "385", "4096-bit"])
    def test_observations_lie_in_their_residues_coset(self, a):
        coset_profiles, _ = maximality._level4_data()
        for obs in sample_frobenius(BasePoint(a), 2000):
            assert obs.profile in coset_profiles[residue_cosets().coset(obs.prime)]

    @pytest.mark.parametrize("prime, cycle_type", [
        (3, (1,) * 16),                  # only G_4, the coset of 1 mod 8
        (13, (8, 8)),                    # not in the coset of 5 mod 8
        (7, (4, 4, 4, 2, 1, 1)),         # not in the coset of 7 mod 8
        (11, (2, 2, 2, 2, 2, 2, 2, 2)),  # not in the coset of 3 mod 8
    ])
    def test_observation_outside_its_coset_is_inconsistent(self, prime,
                                                           cycle_type):
        # every profile of M_4 with that level-4 type lies outside the coset
        m4 = build_model(4)
        assert cycle_type in cycle_type_table(m4.group)
        profiles = {pr for pr in maximality._group_profiles(
            m4.group.elements).values() if pr[-1] == cycle_type}
        assert profiles
        for profile in profiles:
            with pytest.raises(ModelInconsistencyError,
                               match=f"{prime % 8} mod 8"):
                eliminate_maximal_subgroups(
                    (FrobeniusObservation(prime, profile),), m4)


class TestElimination:
    def test_empty_observations(self):
        rep = eliminate_maximal_subgroups((), build_model(4))
        assert rep.eliminated == ()
        assert len(rep.surviving) == 15

    def test_full_coset_tables_eliminate_all(self):
        m4 = build_model(4)
        coset_profiles, _ = maximality._level4_data()
        obs = tuple(
            FrobeniusObservation(prime=p, profile=pr)
            for p in PRIME_OF_RESIDUE.values()
            for pr in sorted(coset_profiles[residue_cosets().coset(p)])
        )
        rep = eliminate_maximal_subgroups(obs, m4)
        assert rep.surviving == ()
        assert tuple(n for n, _ in rep.eliminated) == ALL_MAXIMAL

    @pytest.mark.parametrize("residue", [1, 3, 5, 7])
    def test_one_cosets_types_leave_the_subgroups_that_cover_it(
            self, residue, brute_tables):
        m4 = build_model(4)
        coset_types, tables = brute_tables
        c = residue_cosets().cosets[residue]
        obs = tuple(FrobeniusObservation(PRIME_OF_RESIDUE[residue], ct)
                    for ct in sorted(coset_types[c]))
        rep = eliminate_maximal_subgroups(obs, m4)
        assert set(rep.surviving) == {
            n for n, sets in tables.items() if sets[c] == coset_types[c]}
        assert set(rep.surviving) < set(ALL_MAXIMAL)

    def test_table_is_the_per_subgroup_rule(self, brute_tables):
        # each odd residue and each profile of M_4: a key exactly when the
        # residue's coset realizes the profile, naming the subgroups that
        # miss the profile in that coset
        coset_profiles, tables = brute_tables
        table = maximality._elimination_table()
        model_profiles = set().union(*coset_profiles)
        keys = 0
        for r in (1, 3, 5, 7):
            c = residue_cosets().coset(r)
            for pr in model_profiles:
                if pr not in coset_profiles[c]:
                    assert (r, pr) not in table, (r, pr)
                    continue
                keys += 1
                assert table[(r, pr)] == tuple(sorted(
                    name for name in tables if pr not in tables[name][c])), (r, pr)
        assert keys == len(table) == 34

    def test_table_is_built_by_the_first_elimination(self):
        maximality._elimination_table.cache_clear()
        cycle_blind_subgroups()  # the benchmark's set-up
        assert maximality._elimination_table.cache_info().currsize == 0
        maximality_verdict(BasePoint(Fraction(5)))
        assert maximality._elimination_table.cache_info().currsize == 1

    def test_verdict_refuses_a_type_outside_its_coset(self, monkeypatch):
        # the identity's profile lies only in G_4, the coset of 1 mod 8; at
        # base point 5 the first good prime of residue 3 is 11
        maximality._elimination_table()
        fibre = maximality._fibre_profile
        monkeypatch.setattr(
            maximality, "_fibre_profile",
            lambda p, t: IDENTITY_PROFILE if p % 8 == 3 else fibre(p, t))
        with pytest.raises(ModelInconsistencyError, match="at prime 11 .*3 mod 8"):
            maximality_verdict(BasePoint(Fraction(5)))

    def test_verdict_refuses_a_profile_outside_its_coset(self, monkeypatch):
        # a profile of M_4 missing from the coset of 3 mod 8 whose level-4
        # type that coset realizes: only the profile is inconsistent
        coset_profiles, _ = maximality._level4_data()
        coset = coset_profiles[residue_cosets().coset(3)]
        foreign = min(pr for pr in frozenset().union(*coset_profiles)
                      if pr not in coset and pr[-1] in _types(coset))
        fibre = maximality._fibre_profile
        monkeypatch.setattr(
            maximality, "_fibre_profile",
            lambda p, t: foreign if p % 8 == 3 else fibre(p, t))
        with pytest.raises(ModelInconsistencyError, match="at prime 11 .*3 mod 8"):
            maximality_verdict(BasePoint(Fraction(5)))

    def test_foreign_type_is_inconsistent(self):
        with pytest.raises(ModelInconsistencyError):
            eliminate_maximal_subgroups(
                (FrobeniusObservation(13, ((2,), (4,), (8,), (16,))),),
                build_model(4)
            )

    def test_wrong_level_rejected(self):
        with pytest.raises(ValueError):
            eliminate_maximal_subgroups((), build_model(3))

    @pytest.mark.parametrize("a", [Fraction(5), Fraction(7, 3), Fraction(-3)],
                             ids=str)
    def test_public_routes_match_the_streamed_verdict(self, a):
        # the early-stopping verdict and the exhaustive public route share
        # one prime stream and one elimination step, so they agree; every
        # witness prime lies below 1000 (17 at most for all three), so the
        # verdict at that bound eliminates as the one at the default bound
        point = BasePoint(a)
        rep = eliminate_maximal_subgroups(sample_frobenius(point, 1000),
                                          build_model(4))
        v = maximality_verdict(point, 1000)
        assert v.frobenius_eliminations == rep.eliminated
        assert v.frobenius_eliminations == \
            maximality_verdict(point, 10**4).frobenius_eliminations


class TestVerdict:
    def test_point_5_maximal(self):
        v = maximality_verdict(BasePoint(Fraction(5)))
        assert v.status == "maximal"
        assert v.primes_tried == MIN_USABLE_PRIMES == 5
        assert tuple(n for n, _ in v.frobenius_eliminations) == ALL_MAXIMAL
        assert v.square_class_eliminations == ALL_MAXIMAL
        witnesses = {n: o.prime for n, o in v.frobenius_eliminations}
        assert witnesses["Mmax-02"] == 7
        assert witnesses["Mmax-06"] == 7
        assert witnesses["Mmax-03"] == 7
        # blind to level-4 types; its part of the coset of 1 mod 8 misses
        # the profile 2/2+2/2+2+2+2/2+2+2+2+2+2+2+2
        assert witnesses["Mmax-14"] == 17
        assert max(witnesses.values()) == 17
        assert v.surviving == ()

    def test_point_1_not_maximal(self):
        v = maximality_verdict(BasePoint(Fraction(1)))
        assert v.status == "not_maximal"
        assert v.primes_tried == 0
        assert "a" in (v.reason or "")

    def test_monotone_in_prime_bound(self):
        a, bound = INCONCLUSIVE
        statuses = [maximality_verdict(BasePoint(a), b).status
                    for b in (bound, 60, 10**4)]
        assert statuses == ["inconclusive", "maximal", "maximal"]

    def test_inconclusive_reports_survivors(self):
        v = maximality_verdict(BasePoint(INCONCLUSIVE[0]), INCONCLUSIVE[1])
        assert v.status == "inconclusive"
        assert v.surviving
        assert v.surviving_tables is not None
        for name in v.surviving:
            assert name in v.surviving_tables

    def test_survivor_tables_are_keyed_by_residue(self):
        # each survivor's profiles within the coset of every odd residue
        # mod 8: the observations below the bound all fall inside them,
        # and the witness the default bound finds at 31 = 7 mod 8 falls
        # outside
        a, bound = INCONCLUSIVE
        v = maximality_verdict(BasePoint(a), bound)
        assert v.surviving == ("Mmax-04",)
        table = v.surviving_tables["Mmax-04"]
        assert sorted(table) == [1, 3, 5, 7]
        coset_profiles, _ = maximality._level4_data()
        for r, profiles in table.items():
            assert profiles <= coset_profiles[residue_cosets().coset(r)]
        for obs in sample_frobenius(BasePoint(a), bound):
            assert obs.profile in table[obs.prime % 8], obs
        witness = dict(maximality_verdict(BasePoint(a)).
                       frobenius_eliminations)["Mmax-04"]
        assert witness.prime == 31
        assert witness.profile not in table[witness.prime % 8]
        data = json.loads(json.dumps(v.to_json_dict()))
        assert data["surviving_tables"]["Mmax-04"]["3"] == [
            [[1, 1], [1, 1, 1, 1], [2, 2, 1, 1, 1, 1], [2, 2, 2, 2, 2, 2, 1, 1, 1, 1]],
            [[1, 1], [2, 2], [4, 4], [4, 4, 4, 4]],
            [[2], [2, 2], [2, 2, 2, 2], [4, 4, 4, 4]],
            [[2], [2, 2], [4, 4], [4, 4, 4, 4]]]

    @pytest.mark.parametrize("a", [
        Fraction(random.Random(64).getrandbits(64),
                 random.Random(65).getrandbits(64)),
        Fraction(random.Random(1024).getrandbits(1024),
                 random.Random(1025).getrandbits(1024)),
        HUGE_POINT,
    ], ids=["64-bit", "1024-bit", "4096-bit"])
    def test_points_past_the_factoring_route_get_verdicts(self, a):
        v = maximality_verdict(BasePoint(a))
        assert v.status in ("maximal", "not_maximal")
        assert recheck_certificate(v)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            maximality_verdict(BasePoint(Fraction(5)), 6)

    @pytest.mark.parametrize("a", [1, 5])
    def test_prime_bound_checked_before_the_square_classes(self, a):
        # the square classes decide a = 1, the Frobenius stream a = 5
        point = BasePoint(Fraction(a))
        with pytest.raises(ValueError, match="prime bound 2 < 3"):
            maximality_verdict(point, 2)
        with pytest.raises(ResourceLimitError, match="prime table capped"):
            maximality_verdict(point, 2 * 10**6)

    def test_json_serializable(self):
        v = maximality_verdict(BasePoint(Fraction(5)))
        blob = json.dumps(v.to_json_dict(), sort_keys=True)
        data = json.loads(blob)
        vias = [(e["subgroup"], e["via"]) for e in data["eliminations"]]
        assert vias == [(n, via) for n in ALL_MAXIMAL
                        for via in ("frobenius", "square_class")]


class TestCertificateRecheck:
    def test_valid_certificates(self):
        for point, bound in ((Fraction(5), 10**4), INCONCLUSIVE,
                             (Fraction(1), 10**4), (Fraction(7, 3), 10**4)):
            v = maximality_verdict(BasePoint(point), bound)
            assert recheck_certificate(v), (point, bound, v.status)

    def test_no_integer_resultant_on_verdicts_or_rechecks(self, monkeypatch):
        # the stream decides good primes from the fibre alone, and the
        # recheck decides squarefreeness by gcd(f, f') mod p: neither
        # computes Res(f, f') of a level-k numerator
        class ResultantReached(Exception):
            pass

        def refuse(a, b):
            raise ResultantReached
        monkeypatch.setattr(polyarith, "resultant", refuse)
        maximality._fibre_profile.cache_clear()
        v = maximality_verdict(BasePoint(Fraction(7, 3)))
        assert v.frobenius_eliminations
        assert sample_frobenius(BasePoint(HUGE_POINT), 2000)
        assert recheck_certificate(v)

    def test_one_recount_per_distinct_witness_prime(self, monkeypatch):
        v = maximality_verdict(BasePoint(Fraction(5)))
        calls = []

        def counting(poly, prime):
            calls.append(prime)
            return polyarith.factor_degrees_mod_p(poly, prime)
        monkeypatch.setattr(maximality, "factor_degrees_mod_p", counting)
        assert recheck_certificate(v)
        primes = [obs.prime for _, obs in v.frobenius_eliminations]
        # four levels per prime
        assert sorted(calls) == sorted([*set(primes)] * 4)
        assert sorted(set(primes)) == [7, 11, 13, 17]
        # Mmax-06 shares p = 7 with Mmax-03: the stored 2/4/4+4/8+8 lies in
        # that coset and misses Mmax-06's part, so only the shared recount
        # of 2/2+2/4+4/4+4+4+4 can reject it
        witnesses = dict(v.frobenius_eliminations)
        assert witnesses["Mmax-03"].prime == witnesses["Mmax-06"].prime == 7
        forged = ((2,), (4,), (4, 4), (8, 8))
        coset_profiles, tables = maximality._level4_data()
        c = residue_cosets().coset(7)
        assert forged in coset_profiles[c] and forged not in tables["Mmax-06"][c]
        tampered = dataclasses.replace(v, frobenius_eliminations=tuple(
            (n, dataclasses.replace(o, profile=forged) if n == "Mmax-06"
             else o) for n, o in v.frobenius_eliminations))
        assert not recheck_certificate(tampered)

    def test_tampered_observation_fails(self):
        v = maximality_verdict(BasePoint(Fraction(5)))
        name, obs = v.frobenius_eliminations[0]
        fake = (name, dataclasses.replace(obs, profile=IDENTITY_PROFILE))
        tampered = dataclasses.replace(
            v, frobenius_eliminations=(fake,) + v.frobenius_eliminations[1:]
        )
        assert not recheck_certificate(tampered)

    @pytest.mark.parametrize("name, forged", [
        # 2/2+2/2+2+2+2/4+4+4+4 at p = 11 with level 3 altered
        ("Mmax-01", ((2,), (2, 2), (4, 4), (4, 4, 4, 4))),
        # the same witness with levels 1 and 2 altered
        ("Mmax-05", ((1, 1), (2, 1, 1), (2, 2, 2, 2), (4, 4, 4, 4))),
    ], ids=["level-3", "level-2"])
    def test_tampered_lower_level_fails(self, name, forged):
        # the forged profile keeps the level-4 type, lies in the coset of
        # 11 = 3 mod 8 and misses the subgroup's part of it, so only the
        # recount of the lower levels can reject it
        v = maximality_verdict(BasePoint(Fraction(5)))
        witnesses = dict(v.frobenius_eliminations)
        obs = witnesses[name]
        assert obs.prime == 11 and obs.profile[-1] == forged[-1] != obs.profile
        coset_profiles, tables = maximality._level4_data()
        c = residue_cosets().coset(11)
        assert forged in coset_profiles[c] and forged not in tables[name][c]
        tampered = dataclasses.replace(v, frobenius_eliminations=tuple(
            (n, dataclasses.replace(o, profile=forged) if n == name else o)
            for n, o in v.frobenius_eliminations))
        assert recheck_certificate(v)
        assert not recheck_certificate(tampered)

    def test_dropped_elimination_fails(self):
        v = maximality_verdict(BasePoint(Fraction(5)))
        tampered = dataclasses.replace(
            v, square_class_eliminations=v.square_class_eliminations[:-1]
        )
        assert not recheck_certificate(tampered)

    @pytest.mark.parametrize("forge", [
        lambda obs: dataclasses.replace(obs, prime=4),
        lambda obs: dataclasses.replace(obs, prime=13),
    ], ids=["prime-4", "prime-13"])
    def test_forged_witness_primes_fail(self, forge):
        # the stored cycle types stay valid table entries; only a
        # recomputation at the stored prime can reject them
        v = maximality_verdict(BasePoint(Fraction(5)))
        forged = dataclasses.replace(v, frobenius_eliminations=tuple(
            (name, forge(obs)) for name, obs in v.frobenius_eliminations
        ))
        assert not recheck_certificate(forged)

    def test_witness_moved_to_another_residue_fails(self):
        # at a = 5 the primes 7 and 59 both give 2/2+2/4+4/4+4+4+4, but
        # 59 = 3 mod 8 names a coset that Mmax-03 contains, so the recount
        # alone would accept the moved witness and only its residue
        # rejects it
        v = maximality_verdict(BasePoint(Fraction(5)))
        witnesses = dict(v.frobenius_eliminations)
        profile = ((2,), (2, 2), (4, 4), (4, 4, 4, 4))
        assert witnesses["Mmax-03"] == FrobeniusObservation(7, profile)
        assert tuple(polyarith.factor_degrees_mod_p(
            polyarith.specialize_numerator(k, Fraction(5)), 59)
            for k in range(1, 5)) == profile
        moved = dataclasses.replace(v, frobenius_eliminations=tuple(
            (n, FrobeniusObservation(59, o.profile) if n == "Mmax-03" else o)
            for n, o in v.frobenius_eliminations))
        assert recheck_certificate(v)
        assert not recheck_certificate(moved)

    def test_changed_square_class_parts_fail(self):
        v = maximality_verdict(BasePoint(Fraction(5)))
        sq = v.square_class
        assert sq.parts == (-1, 2, 5, -3)
        forged = dataclasses.replace(sq, parts=(-1, 2, 5, -7))
        assert recheck_certificate(v)
        assert not recheck_certificate(
            dataclasses.replace(v, square_class=forged))

    @pytest.mark.parametrize("subset", [("2",), (), ("b",)],
                             ids=["not-a-square", "empty", "unknown-label"])
    def test_forged_dependent_subset_fails(self, subset):
        # a = 1: the parts are -1, 2, 1, 1 and {a} is the stored subset;
        # the part 2 alone is no square
        v = maximality_verdict(BasePoint(Fraction(1)))
        assert v.status == "not_maximal" and recheck_certificate(v)
        forged = dataclasses.replace(v.square_class, dependent_subset=subset)
        assert not recheck_certificate(
            dataclasses.replace(v, square_class=forged))

    def test_unknown_status_fails(self):
        v = maximality_verdict(BasePoint(Fraction(5)))
        assert not recheck_certificate(dataclasses.replace(v, status="proved"))

    def test_witness_naming_no_maximal_subgroup_fails(self):
        v = maximality_verdict(BasePoint(Fraction(5)))
        (_, obs), *rest = v.frobenius_eliminations
        forged = dataclasses.replace(
            v, frobenius_eliminations=(("Mmax-99", obs), *rest))
        assert not recheck_certificate(forged)

    def test_square_product_beyond_factoring_cap_rechecks(self):
        # a = 2/(1 + t^2) with t = 10000044, so a(2 - a) is a square whose
        # root exceeds the factoring cap
        v = maximality_verdict(BasePoint(Fraction(2, 100000880001937)))
        assert v.status == "not_maximal"
        assert v.square_class.dependent_subset == ("a", "2-a")
        assert recheck_certificate(v)


class TestPool:
    def test_every_pool_point_keeps_its_status(self):
        # the benchmark pool stores the primes each verdict consumed before
        # the residue cosets refined the elimination, 0 for the not_maximal
        # ones; every status stays, the verdicts need far fewer primes, and
        # the median maximal verdict stops at the usable-prime floor
        path = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"
        points = json.loads(path.read_text())["points"]
        before = after = 0
        tried = []
        for text, consumed in points:
            v = maximality_verdict(BasePoint(Fraction(text)))
            assert v.status == ("not_maximal" if consumed == 0 else "maximal"), text
            before += consumed
            after += v.primes_tried
            if v.status == "maximal":
                tried.append(v.primes_tried)
        assert len(points) == 2048
        assert 3 * after < before
        assert sorted(tried)[len(tried) // 2] == MIN_USABLE_PRIMES

    def test_profiles_never_need_more_primes_than_level4_types(self):
        # a profile missing from a subgroup's part of a coset has a level-4
        # type that may not be, never the other way round, so the stream
        # of profiles finishes no later than elimination by the types
        coset_profiles, tables = maximality._level4_data()
        lab = residue_cosets()
        path = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"
        for text, consumed in json.loads(path.read_text())["points"]:
            if consumed == 0:
                continue
            point = BasePoint(Fraction(text))
            pending, usable = set(tables), 0
            for p, profile in maximality._frobenius_stream(
                    point, polyarith.primes_up_to(10**4)):
                usable += 1
                c = lab.coset(p)
                pending -= {name for name in pending
                            if profile[-1] not in _types(tables[name][c])}
                if not pending and usable >= MIN_USABLE_PRIMES:
                    break
            assert maximality_verdict(point).primes_tried <= usable, text

    def test_verdicts_sieve_nothing_past_the_default_bound(self):
        # the table up to the default prime bound also holds every trial
        # divisor a pool height needs, so no verdict builds another
        path = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"
        points = json.loads(path.read_text())["points"]
        polyarith._prime_table.cache_clear()
        polyarith.primes_up_to(maximality.DEFAULT_PRIME_BOUND)
        before = polyarith._prime_table.cache_info()
        for text, _ in random.Random(31).sample(points, 64):
            maximality_verdict(BasePoint(Fraction(text)))
        after = polyarith._prime_table.cache_info()
        assert before.misses == after.misses == 1
        assert after.hits > before.hits

    def test_verdicts_are_pinned(self):
        # sha256 of every pool verdict's JSON, one line per point in pool
        # order, the same under PYTHONHASHSEED 1 and 2
        path = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"
        digest = hashlib.sha256()
        for text, _ in json.loads(path.read_text())["points"]:
            v = maximality_verdict(BasePoint(Fraction(text)))
            digest.update((json.dumps(v.to_json_dict(), sort_keys=True)
                           + "\n").encode())
        assert digest.hexdigest() == \
            "7a3d79bd09ef2ceca42cf3538a2d55988bb93dce239768d0b68db5f9c6a31a6c"
