"""Iterate polynomials, resultants, discriminant shapes, mod-p splitting.

Dual routes everywhere: the subresultant chain is checked against both
the CRT route and a Fraction Sylvester determinant; discriminant shapes
against direct discriminants at specialized points; mod-p factor degree
lists against root counting, the factor-count parity law and
square-and-multiply distinct-degree splitting.
"""

import dataclasses
import itertools
import random
import re
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import pytest

import oracles
from imgroups import builtin_system_f, polyarith
from imgroups.errors import (
    BadPrimeError,
    ExcludedBasePointError,
    ResourceLimitError,
    ShapeViolationError,
)
from imgroups.polyarith import (
    IntPoly,
    IterateFraction,
    X,
    _big_moduli,
    _crt_resultant,
    _GFPackedRing,
    _gf_resultant,
    _is_probable_prime,
    _resultant_bound,
    discriminant_shape,
    factor_degrees_mod_p,
    iterate_metadata,
    iterate_pair,
    primes_up_to,
    resultant,
    resultant_modular,
    specialize_numerator,
    squarefree_part,
)


class TestIntPoly:
    def test_basic_arithmetic(self):
        f = IntPoly((1, 2, 3))
        g = IntPoly((-1, 1))
        assert (f + g).coeffs == (0, 3, 3)
        assert (f - g).coeffs == (2, 1, 3)
        assert (f * g).coeffs == (-1, -1, -1, 3)
        assert f.square().coeffs == (f * f).coeffs
        assert f(2) == 1 + 4 + 12
        assert f.derivative().coeffs == (2, 6)
        assert (X * X - IntPoly((2,))).coeffs == (-2, 0, 1)

    def test_normalization(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly(()).is_zero
        with pytest.raises(ValueError):
            IntPoly((1.5,))

    def test_content_primitive(self):
        f = IntPoly((6, -9, 12))
        assert f.content() == 3
        assert f.primitive().coeffs == (2, -3, 4)

    def test_product_matches_schoolbook(self):
        # Kronecker products against the oracle's schoolbook: signed
        # coefficients up to 10^40, lengths 1..40, the zero polynomial and
        # +/-1 constants on either side, and squares through `is`
        rng = random.Random(3701)

        def operand():
            size = 10 ** rng.randint(0, 40)
            return tuple(rng.randint(-size, size)
                         for _ in range(rng.randint(1, 40)))

        pairs = [(operand(), operand()) for _ in range(300)]
        special = [(), (1,), (-1,)]
        pairs += [(a, b) for a in special for b in special + [operand()]]
        pairs += [(b, a) for a in special for b in (operand(), operand())]
        for a, b in pairs:
            f, g = IntPoly(a), IntPoly(b)
            assert (f * g).coeffs == oracles.poly_mul(f.coeffs, g.coeffs), (a, b)
        for a, _ in pairs[:40]:
            f = IntPoly(a)
            assert f.square().coeffs == oracles.poly_mul(f.coeffs, f.coeffs)

    def test_product_slot_edges(self):
        # k equal coefficients c put +/-k c^2, the bound max|a| max|b|
        # min(len) that sizes a slot, in the middle of the product; bound
        # bit lengths 7 mod 8 leave one spare bit in the signed slot
        for bits in (7, 8, 15, 16, 63, 64, 127):
            for k in (1, 2, 5):
                c = isqrt(((1 << bits) - 1) // k)
                f, g = IntPoly([c] * k), IntPoly([-c] * k)
                for x, y in ((f, f), (f, g), (g, g)):
                    assert (x * y).coeffs == oracles.poly_mul(x.coeffs, y.coeffs)

    def test_to_text(self):
        assert IntPoly((3, 0, -12)).to_text() == "3 0 -12"
        assert IntPoly((5, 0, 0)).to_text() == "5"
        assert IntPoly(()).to_text() == "0"


class TestRefusals:
    def test_int_polys_hash_by_their_coefficients(self):
        f, g = IntPoly((1, 2, 3)), IntPoly([1, 2, 3, 0])
        assert f == g and hash(f) == hash(g)
        assert {f: "f"}[g] == "f"

    @pytest.mark.parametrize("call, message", [
        (lambda: IterateFraction(0, IntPoly([2]), IntPoly([1, -2, 1])),
         "iterate index starts at 1"),
        (lambda: IterateFraction(2, IntPoly([2]), IntPoly([1, -2, 1])),
         "iterate 2: wrong degrees"),
        (lambda: IterateFraction(2, iterate_pair(2).h, iterate_pair(2).g),
         "iterate 2: wrong leading coefficients"),
        (lambda: resultant(IntPoly([]), X), "resultant needs nonzero polynomials"),
        (lambda: resultant_modular(X, IntPoly([])),
         "resultant needs nonzero polynomials"),
        (lambda: specialize_numerator(0, 5),
         f"level 0 out of range 1..{polyarith.SPECIALIZE_LEVEL_CAP}"),
        (lambda: specialize_numerator(polyarith.SPECIALIZE_LEVEL_CAP + 1, 5),
         f"level {polyarith.SPECIALIZE_LEVEL_CAP + 1} out of range "
         f"1..{polyarith.SPECIALIZE_LEVEL_CAP}"),
        (lambda: factor_degrees_mod_p(IntPoly([]), 7), "zero polynomial"),
    ])
    def test_refused_with_a_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_a_constant_has_no_factors(self):
        assert factor_degrees_mod_p(IntPoly([5]), 7) == ()


class TestIterates:
    def test_base_case(self):
        it = iterate_pair(1)
        assert it.g.coeffs == (2,)
        assert it.h.coeffs == (1, -2, 1)

    def test_recursion_shape(self):
        for n in range(2, 9):
            it = iterate_pair(n)
            assert it.g.degree() == 1 << n
            assert it.h.degree() == 1 << n
            assert it.g.coeffs[-1] == 2
            assert it.h.coeffs[-1] == 1

    def test_functional_identity(self):
        # g_n/h_n really is the n-fold composite of x -> 2/(x-1)^2,
        # checked by exact evaluation at rational points
        for x0 in (Fraction(3), Fraction(-2), Fraction(7, 5)):
            value = x0
            for n in range(1, 6):
                value = 2 / (value - 1) ** 2
                it = iterate_pair(n)
                assert Fraction(it.g(x0), it.h(x0)) == value

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            iterate_pair(0)
        with pytest.raises(ValueError):
            iterate_pair(9)

    def test_metadata_wronskian(self):
        # frozen signs at the bottom, absolute value 4^n throughout
        assert iterate_metadata(1).wronskian_lc == -4
        assert iterate_metadata(2).wronskian_lc == -16
        assert iterate_metadata(1).wronskian_degree == 1
        assert iterate_metadata(2).wronskian_degree == 5
        for n in range(1, 7):
            meta = iterate_metadata(n)
            assert abs(meta.wronskian_lc) == 4 ** n
            it = iterate_pair(n)
            w = it.h * it.g.derivative() - it.g * it.h.derivative()
            assert w.coeffs[-1] == meta.wronskian_lc
            assert w.degree() == meta.wronskian_degree


class TestResultants:
    def test_frozen_value(self):
        it = iterate_pair(2)
        assert resultant(it.g, it.h) == 4096
        assert resultant_modular(it.g, it.h) == 4096
        assert oracles.sylvester_resultant(it.g.coeffs, it.h.coeffs) == 4096

    def test_three_routes_random(self):
        rng = random.Random(101)
        for _ in range(40):
            f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 6))])
            g = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 6))])
            if f.is_zero or g.is_zero:
                continue
            r = resultant(f, g)
            assert r == resultant_modular(f, g)
            assert r == oracles.sylvester_resultant(f.coeffs, g.coeffs)

    def test_swap_sign_law(self):
        rng = random.Random(7)
        for _ in range(30):
            f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 5))])
            g = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 5))])
            if f.degree() < 1 or g.degree() < 1:
                continue
            sign = (-1) ** (f.degree() * g.degree())
            assert resultant(f, g) == sign * resultant(g, f)

    def test_constant_cases(self):
        f = IntPoly((1, 0, 3))
        assert resultant(f, IntPoly((5,))) == 25
        assert resultant(IntPoly((5,)), f) == 25

    def test_iterate_resultants_power_of_two(self):
        for n in range(2, 5):
            for k in range(2, n + 1):
                r = resultant(iterate_pair(k).g, iterate_pair(n).h)
                v = abs(r)
                assert v & (v - 1) == 0 and v  # a pure power of 2

    def test_iterate_resultant_exponents(self):
        # Res(g_n, h_n) = +2^(4^n - 2^n): the orbit behind the
        # discriminant shapes leaves a power-of-2 content at every level
        for n in range(1, 7):
            fr = iterate_pair(n)
            assert resultant(fr.g, fr.h) == 1 << 4**n - 2**n

    def test_roots_route_on_simple_poly(self):
        num = specialize_numerator(2, Fraction(5))
        d = num.derivative()
        exact = resultant(num, d)
        approx = oracles.resultant_via_roots(list(num.coeffs), list(d.coeffs))
        assert abs(complex(exact) - approx) <= 1e-25 * abs(complex(exact))


class TestCRTResultant:
    """`_crt_resultant` and `_gf_resultant` on moduli that need not be prime."""

    Q1, Q2 = 1009, 1013

    @staticmethod
    def _crt(residues, moduli):
        acc, modulus = 0, 1
        for r, m in zip(residues, moduli):
            acc += modulus * ((r - acc) * pow(modulus, -1, m) % m)
            modulus *= m
        return acc

    @staticmethod
    def _primes(k):
        return list(itertools.islice(filter(_is_probable_prime, _big_moduli()),
                                     k))

    def test_moduli_unchanged(self):
        # the first 44 sieved candidates above 2^62, more than
        # discriminant_shape(5)'s spot checks take; composites among them
        # (such as 2^62 + 13) are fine, the CRT proves nothing prime
        offsets = [13, 15, 25, 69, 85, 93, 97, 103, 127, 133, 135, 153, 159,
                   163, 169, 177, 187, 189, 193, 229, 235, 253, 265, 277, 303,
                   307, 319, 343, 349, 363, 369, 375, 385, 387, 393, 415, 417,
                   427, 433, 435, 439, 445, 453, 457]
        got = list(itertools.islice(_big_moduli(), 44))
        assert [m - (1 << 62) for m in got] == offsets
        assert not _is_probable_prime(got[0])
        assert all(m % q for m in got for q in primes_up_to(1024)[1:])

    def test_composite_modulus_with_unit_pivots(self):
        # each result is the CRT of the reference over the two prime factors
        rng = random.Random(4049)
        m = self.Q1 * self.Q2
        answered = 0
        for _ in range(150):
            a = [rng.randrange(m) for _ in range(rng.randint(0, 8))]
            b = [rng.randrange(m) for _ in range(rng.randint(0, 8))]
            a.append(rng.randrange(1, 50))  # units: both factors exceed 50
            b.append(rng.randrange(1, 50))
            got = _gf_resultant(a, b, m)
            if got is None:
                continue
            answered += 1
            want = [oracles.gf_resultant_reference([c % q for c in a],
                                                   [c % q for c in b], q)
                    for q in (self.Q1, self.Q2)]
            assert got == self._crt(want, (self.Q1, self.Q2)), (a, b)
        assert answered >= 140

    def test_modulus_sharing_a_factor_with_a_pivot_is_skipped(self):
        # x^3 + u x mod x^2 + 1 is (u - 1) x, whose leading coefficient Q1
        # is a zero divisor mod Q1 Q2
        a, b = [0, self.Q1 + 1, 0, 1], [1, 0, 1]
        want = resultant(IntPoly(a), IntPoly(b))
        assert want == self.Q1 ** 2
        m = self.Q1 * self.Q2
        assert _gf_resultant([c % m for c in a], b, m) is None
        bound = _resultant_bound(a, b)
        with pytest.raises(ArithmeticError, match="ran out"):
            _crt_resultant(a, b, bound, [m])
        assert _crt_resultant(a, b, bound, [m, *self._primes(2)]) == want

    def test_modulus_sharing_a_factor_with_a_leading_coefficient_is_skipped(self):
        a, b = [1, 2, 3 * self.Q1], [5, 7]
        want = resultant(IntPoly(a), IntPoly(b))
        bound = _resultant_bound(a, b)
        m = self.Q1 * self.Q2
        with pytest.raises(ArithmeticError, match="ran out"):
            _crt_resultant(a, b, bound, [m, m * 3])
        assert _crt_resultant(a, b, bound, [m, *self._primes(2)]) == want

    def test_modulus_sharing_a_factor_with_the_product_is_skipped(self):
        rng = random.Random(4051)
        f = IntPoly([rng.randint(-99, 99) for _ in range(12)] + [3])
        g = IntPoly([rng.randint(-99, 99) for _ in range(11)] + [5])
        a, b = list(f.coeffs), list(g.coeffs)
        bound = _resultant_bound(a, b)
        p0, p1, *rest = self._primes(bound.bit_length() // 62 + 2)
        assert p0 * p1 <= 2 * bound
        with pytest.raises(ArithmeticError, match="ran out"):
            _crt_resultant(a, b, bound, [p0, p0 * p1])
        assert _crt_resultant(a, b, bound, [p0, p0 * p1, p1, *rest]) == \
            resultant(f, g)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_mahler_bound_between_resultant_and_hadamard(self, n):
        # below degree 8 the Mahler bound can exceed the Hadamard bound even
        # with the exact measure (n = 2, tau = 3: 1.78e10 against 4.79e9),
        # which is why `oracles.disc_direct` takes the smaller of the two
        fr = iterate_pair(n)
        d = 1 << n
        skipped = []
        for tau in range(-3, 10):
            F = fr.g - fr.h.scale(tau)
            if F.degree() < d:
                skipped.append(tau)
                continue
            polys = [F]
            if n >= 3:  # the half-degree P of the guard, of degree >= 4
                polys.append(polyarith._halve_about_one(F))
            for G in polys:
                a, b = list(G.coeffs), list(G.derivative().coeffs)
                bound = oracles.mahler_bound(G)
                assert abs(resultant(G, G.derivative())) <= bound
                assert n < 3 or bound <= _resultant_bound(a, b)
        assert skipped == ([0] if n == 1 else [2])

    def test_mahler_bound_by_hand(self):
        # F = x^2 - 2: G_1 = (y - 2)^2 and G_2 = (z - 4)^2 = z^2 - 8z + 16,
        # S = 321 and ceil(321^(1/4)) = 5, so the bound is 1 * 2^2 * 5;
        # |Res(F, F')| = 8
        F = IntPoly([-2, 0, 1])
        assert oracles.mahler_bound(F) == 20
        assert abs(resultant(F, F.derivative())) == 8

    def test_cold_discriminant_shape_proves_no_prime(self, monkeypatch):
        # the guard's two discriminants at n = 5 come from the subresultant,
        # so no CRT modulus is drawn and no prime is proved
        proofs, pulled = [], []
        real_proof, real_moduli = polyarith._is_probable_prime, _big_moduli

        def counting_proof(n):
            proofs.append(n)
            return real_proof(n)

        def counting_moduli():
            pulled.append(0)
            for m in real_moduli():
                pulled[-1] += 1
                yield m

        monkeypatch.setattr(polyarith, "_is_probable_prime", counting_proof)
        monkeypatch.setattr(polyarith, "_big_moduli", counting_moduli)
        assert str(discriminant_shape(5)) == "+2^1072 * t^24 * (2-t)^22"
        assert proofs == []
        assert pulled == []

    def test_cold_discriminant_shape_resultants_stay_at_half_degree(
            self, monkeypatch):
        # at every level the guard takes exactly two subresultants, one per
        # t, each of the half-degree P and P', and no modular resultant
        calls, real = [], resultant

        def recording(p, q):
            calls.append((p, q))
            return real(p, q)

        def refuse(a, b, m):
            raise AssertionError("modular resultant called")

        monkeypatch.setattr(polyarith, "resultant", recording)
        monkeypatch.setattr(polyarith, "_gf_resultant", refuse)
        for n in range(1, polyarith.DISC_LEVEL_CAP + 1):
            calls.clear()
            discriminant_shape(n)
            assert len(calls) == 2
            for p, q in calls:
                assert p.degree() == 1 << n - 1
                assert q == p.derivative()

    def test_shape_recursion_needs_no_resultant(self, monkeypatch):
        # the recursion computes no resultant by either route; only the
        # guard in `discriminant_shape` does
        def refuse(*args):
            raise AssertionError("resultant called")

        for name in ("resultant", "resultant_modular", "_crt_resultant",
                     "_gf_resultant"):
            monkeypatch.setattr(polyarith, name, refuse)
        shape = next(itertools.islice(polyarith._shape_recursion(), 4, None))
        assert str(shape) == "+2^1072 * t^24 * (2-t)^22"


class TestDiscriminantShapes:
    def test_frozen_shapes(self):
        expected = {
            1: (1, 3, 1, 0),
            2: (-1, 16, 3, 1),
            3: (1, 68, 6, 4),
            4: (1, 272, 12, 10),
            5: (1, 1072, 24, 22),
        }
        for n, (sign, c, a, b) in expected.items():
            s = discriminant_shape(n)
            assert (s.sign, s.c, s.a, s.b) == (sign, c, a, b)

    def test_str_format(self):
        assert str(discriminant_shape(1)) == "+2^3 * t^1 * (2-t)^0"
        assert str(discriminant_shape(2)) == "-2^16 * t^3 * (2-t)^1"

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("tau", [3, 5, 7, 11])
    def test_matches_direct_discriminant(self, n, tau):
        # oracle route: Sylvester discriminant of the specialized numerator
        s = discriminant_shape(n)
        num = specialize_numerator(n, Fraction(tau))
        direct = oracles.discriminant_via_sylvester(num.coeffs)
        assert direct.denominator == 1
        assert direct.numerator == s.sign * 2 ** s.c * tau ** s.a * (2 - tau) ** s.b

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            discriminant_shape(0)
        # above the cap is a resource limit, as for every other level cap
        with pytest.raises(ResourceLimitError, match="DISC_LEVEL_CAP"):
            discriminant_shape(6)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_branch_cycle_passport(self, n):
        # the third route to a and b: the exponents are the defects
        # 2^n - #cycles of a2 and a3, the branch cycles over t = 0 and 2,
        # and with a1's over infinity the defects satisfy Riemann-Hurwitz
        shape = (discriminant_shape(n) if n <= polyarith.DISC_LEVEL_CAP
                 else next(itertools.islice(polyarith._shape_recursion(),
                                            n - 1, None)))
        system = builtin_system_f()
        defect = {a: (1 << n) - len(system.unfold(a, n).cycle_type())
                  for a in ("a1", "a2", "a3")}
        assert shape.n == n
        assert (shape.a, shape.b) == (defect["a2"], defect["a3"])
        assert sum(defect.values()) == (1 << n + 1) - 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_full_interpolation(self, n):
        # the whole delta polynomial, against R(t) interpolated at 2 * 2^n
        # nodes with no Wronskian factor
        assert discriminant_shape(n).reconstruct().coeffs == \
            oracles.discriminant_by_full_interpolation(n)

    @pytest.mark.parametrize("broken", ["g", "h"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_broken_square_identity_is_shape_violation(self, n, broken,
                                                       monkeypatch):
        real = polyarith.iterate_pair

        def patched(k):
            fr = real(k)
            if k != n:
                return fr
            one = IntPoly([1])
            return SimpleNamespace(g=fr.g + one if broken == "g" else fr.g,
                                   h=fr.h + one if broken == "h" else fr.h)

        monkeypatch.setattr(polyarith, "iterate_pair", patched)
        with pytest.raises(ShapeViolationError):
            discriminant_shape(n)

    def test_level_six_beyond_the_cap(self, monkeypatch):
        # the pattern a = 3 * 2^(n-2), b = a - 2 holds through n = 6, with
        # the level-6 shape pinned; `DISC_LEVEL_CAP` itself stays at 5
        monkeypatch.setattr(polyarith, "DISC_LEVEL_CAP", 6)
        s = discriminant_shape(6)
        assert (s.sign, s.c, s.a, s.b) == (1, 4224, 48, 46)
        for n in range(3, 7):
            s = discriminant_shape(n)
            assert s.a == 3 << n - 2 and s.b == s.a - 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_half_degree_route_matches_full_degree(self, n):
        # the identity disc(F) = (-4)^m lc(P) P(0) disc(P)^2 for
        # F(1 + y) = P(y^2), against the CRT route on F itself
        fr = iterate_pair(n)
        for tau in (-3, 3, 5, 7, 11):
            F = fr.g - fr.h.scale(tau)
            P = polyarith._halve_about_one(F)
            assert P.degree() == 1 << n - 1
            assert polyarith._disc_half_degree(F) == oracles.disc_direct(F)

    def test_half_degree_identity_on_random_polynomials(self):
        rng = random.Random(4057)
        shift = IntPoly([1, -2, 1])  # (x - 1)^2
        for _ in range(60):
            m = rng.randint(1, 8)
            P = IntPoly([rng.randint(-9, 9) for _ in range(m)]
                        + [rng.choice([-3, -2, -1, 1, 2, 3])])
            F = IntPoly([0])
            for c in reversed(P.coeffs):  # Horner: F = P((x - 1)^2)
                F = F * shift + IntPoly([c])
            assert polyarith._halve_about_one(F) == P
            want = oracles.discriminant_via_sylvester(F.coeffs)
            assert polyarith._disc_half_degree(F) == want

    def test_polynomial_not_even_about_one_is_shape_violation(self):
        F = IntPoly([1, -2, 1]) * IntPoly([3, 0, 1]) + X  # an odd term in y
        with pytest.raises(ShapeViolationError, match="polynomial in"):
            polyarith._disc_half_degree(F)

    def test_failed_spot_check_is_shape_violation(self, monkeypatch):
        # the half-degree route off by one at the first check
        real = polyarith._disc_half_degree
        monkeypatch.setattr(polyarith, "_disc_half_degree",
                            lambda F: real(F) + 1)
        with pytest.raises(ShapeViolationError,
                           match=r"level 3: half-degree subresultant guard "
                                 r"failed at t=5"):
            discriminant_shape(3)

    @pytest.mark.parametrize("corrupt", ["sign", "c", "swap"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_guard_catches_a_wrong_recursion(self, n, corrupt, monkeypatch):
        # the recursion off at level n: the sign flipped, c one too large,
        # or a and b exchanged; the guard's two discriminants refuse each
        real = polyarith._shape_recursion

        def wrong():
            for s in real():
                if s.n == n:
                    s = dataclasses.replace(s, **{
                        "sign": {"sign": -s.sign},
                        "c": {"c": s.c + 1},
                        "swap": {"a": s.b, "b": s.a}}[corrupt])
                yield s

        monkeypatch.setattr(polyarith, "_shape_recursion", wrong)
        with pytest.raises(ShapeViolationError, match=rf"^level {n}: "):
            discriminant_shape(n)

    def test_closed_forms_through_level_24(self):
        # sign +, a = 3 * 2^(n-2), b = a - 2 and c = 4^n + (n - 2) 2^(n-1)
        # for 3 <= n <= 24, from the uncapped recursion with no guard
        shapes = list(itertools.islice(polyarith._shape_recursion(), 24))
        assert [s.n for s in shapes] == list(range(1, 25))
        assert [(s.sign, s.c, s.a, s.b) for s in shapes[:2]] == \
            [(1, 3, 1, 0), (-1, 16, 3, 1)]
        for s in shapes[2:]:
            n, a = s.n, 3 << s.n - 2
            assert (s.sign, s.c, s.a, s.b) == \
                (1, 4**n + (n - 2 << n - 1), a, a - 2)

    def test_critical_orbit_matches_the_iterates(self):
        # (g_k(0), h_k(0)) and the x^(2^k) coefficients of (g_k, h_k)
        orbit = itertools.islice(polyarith._critical_orbit(), 9)
        assert next(orbit) == ((0, 1), (1, 0))  # (g_0, h_0) = (x, 1)
        for k, (at_zero, at_inf) in enumerate(orbit, 1):
            fr = iterate_pair(k)
            top = [(p.coeffs + (0,) * (1 << k))[1 << k] for p in (fr.g, fr.h)]
            assert at_zero == (fr.g(0), fr.h(0))
            assert at_inf == tuple(top)

    @staticmethod
    def _orbit_with(monkeypatch, k, pair):
        # the critical orbit with its level-k value at 0 replaced by pair
        real = polyarith._critical_orbit

        def patched():
            for j, (at_zero, at_inf) in enumerate(real()):
                yield (pair if j == k else at_zero), at_inf

        monkeypatch.setattr(polyarith, "_critical_orbit", patched)

    def test_wrong_orbit_value_is_shape_violation(self, monkeypatch):
        # F_2(0) read as 3 - t: neither 1, t nor 2 - t up to a power of 2
        self._orbit_with(monkeypatch, 2, (3, 1))
        with pytest.raises(ShapeViolationError,
                           match=r"level 3: orbit form 3 - 1\*t is not"):
            discriminant_shape(3)

    @pytest.mark.parametrize("pair, shown", [((3, 0), "3"), ((0, -6), "6"),
                                             ((12, 6), "6"), ((0, 0), "0")])
    def test_constant_not_a_power_of_two_is_shape_violation(
            self, monkeypatch, pair, shown):
        self._orbit_with(monkeypatch, 3, pair)
        with pytest.raises(ShapeViolationError,
                           match=rf"level 4: constant {shown} is not \+/-2\^k"):
            discriminant_shape(4)


class TestPackedGFResultant:
    """`_gf_resultant` on packed ints against the dense-list reference."""

    # the three smallest primes above 2^62
    PRIMES = [3, 5, 7, 11, (1 << 62) + 135, (1 << 62) + 169, (1 << 62) + 177]

    @staticmethod
    def _poly(rng, p, degree):
        return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]

    @pytest.mark.parametrize("p", PRIMES)
    def test_random_against_reference(self, p):
        rng = random.Random(p % 10007)
        for _ in range(150):
            a = self._poly(rng, p, rng.randint(0, 9))
            b = self._poly(rng, p, rng.randint(0, 9))
            assert _gf_resultant(a, b, p) == \
                oracles.gf_resultant_reference(a, b, p), (a, b)

    @pytest.mark.parametrize("p", PRIMES)
    def test_constant_operands(self, p):
        rng = random.Random(p % 10009)
        c, k = rng.randrange(1, p), rng.randrange(1, p)
        f = self._poly(rng, p, 5)
        assert _gf_resultant([c], [k], p) == 1
        assert _gf_resultant(f, [c], p) == pow(c, 5, p)
        assert _gf_resultant([c], f, p) == pow(c, 5, p)
        for a, b in (([c], [k]), (f, [c]), ([c], f)):
            assert _gf_resultant(a, b, p) == oracles.gf_resultant_reference(a, b, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_swap_sign(self, p):
        # Res(a, b) = (-1)^(deg a deg b) Res(b, a), on the deg a < deg b branch
        rng = random.Random(p % 10037)
        for da, db in ((1, 3), (3, 5), (2, 7), (1, 2)):
            a, b = self._poly(rng, p, da), self._poly(rng, p, db)
            got = _gf_resultant(a, b, p)
            assert got == oracles.gf_resultant_reference(a, b, p)
            assert got == (-1) ** (da * db) * _gf_resultant(b, a, p) % p

    @pytest.mark.parametrize("p", PRIMES)
    def test_common_factor_is_zero(self, p):
        rng = random.Random(p % 10039)
        for dc in (1, 2, 4):
            c = self._poly(rng, p, dc)
            a = [x % p for x in (IntPoly(c) * IntPoly(self._poly(rng, p, 3))).coeffs]
            b = [x % p for x in (IntPoly(c) * IntPoly(self._poly(rng, p, 2))).coeffs]
            assert _gf_resultant(a, b, p) == 0
            assert _gf_resultant(b, a, p) == 0
            assert oracles.gf_resultant_reference(a, b, p) == 0

    def test_iterate_fraction_rejects_common_factor_mod_3(self):
        x1 = IntPoly([1, 1])
        # (x+1) * (x+2) and (x+1)^2: a common factor over Q as well
        with pytest.raises(ValueError, match="not coprime"):
            IterateFraction(1, x1 * IntPoly([2, 1]), x1 * x1)
        # x and x + 3 are coprime over Q but equal mod 3
        with pytest.raises(ValueError, match="not coprime"):
            IterateFraction(1, X, IntPoly([3, 1]))
        # both vanish mod 3
        with pytest.raises(ValueError, match="not coprime"):
            IterateFraction(1, IntPoly([3]), IntPoly([3, 3]))
        assert IterateFraction(1, IntPoly([2]), IntPoly([1, -2, 1])).n == 1


class TestSpecialization:
    def test_level1_example(self):
        assert specialize_numerator(1, Fraction(5)).coeffs == (-3, 10, -5)

    def test_excluded_points(self):
        for bad in (Fraction(0), Fraction(2)):
            with pytest.raises(ExcludedBasePointError):
                specialize_numerator(2, bad)

    def test_rational_point_is_primitive(self):
        num = specialize_numerator(2, Fraction(9, 4))
        assert num.content() == 1
        assert num.degree() == 4
        # root set is unchanged by the rescaling, so the square class
        # of the discriminant is what specialization preserves
        d1 = oracles.discriminant_via_sylvester(num.coeffs)
        assert d1 != 0


class TestFactorDegrees:
    def test_known_splitting(self):
        f = X * X - IntPoly((2,))
        assert factor_degrees_mod_p(f, 7) == (1, 1)   # 2 is a square mod 7
        assert factor_degrees_mod_p(f, 11) == (2,)    # 2 is not a square mod 11

    def test_non_squarefree_returns_none(self):
        f = IntPoly((1, -2, 1))  # (x-1)^2
        assert factor_degrees_mod_p(f, 7) is None

    def test_bad_primes(self):
        f = specialize_numerator(1, Fraction(5))
        # a fine prime that this polynomial cannot use
        with pytest.raises(BadPrimeError):
            factor_degrees_mod_p(f, 5)  # divides the leading coefficient
        # not odd primes at all: plain bad input
        with pytest.raises(ValueError):
            factor_degrees_mod_p(f, 2)
        with pytest.raises(ValueError):
            factor_degrees_mod_p(f, 9)

    def test_degree_lists_against_roots_and_parity(self):
        # number of linear factors equals the root count; the total factor
        # count matches the discriminant's quadratic character
        for level in (3, 4):
            num = specialize_numerator(level, Fraction(5))
            disc = oracles.discriminant_via_sylvester(num.coeffs)
            assert disc.denominator == 1
            for p in primes_up_to(60):
                if p == 2 or num.coeffs[-1] % p == 0:
                    continue
                degs = factor_degrees_mod_p(num, p)
                if degs is None:
                    continue
                assert sum(degs) == num.degree()
                roots = oracles.roots_mod_p(num.coeffs, p)
                assert degs.count(1) == len(roots)
                assert oracles.stickelberger_factor_parity(disc.numerator, p,
                                                           degs)

    @pytest.mark.parametrize("a", ["5", "7/3", "-3", "9/4", "-78/119",
                                   "1/4549"])
    def test_level_4_matches_reference(self, a):
        # the Frobenius-matrix kernel against square-and-multiply splitting
        num = specialize_numerator(4, Fraction(a))
        primes = (oracles.primes_between(3, 300)[:60]
                  + oracles.primes_between(10**4, 10**4 + 300)[:20]
                  + oracles.primes_between(10**6, 10**6 + 300)[:10])
        checked = 0
        for p in primes:
            if num.coeffs[-1] % p == 0:
                continue
            assert factor_degrees_mod_p(num, p) == \
                oracles.ddf_degrees_reference(num.coeffs, p), p
            checked += 1
        assert checked >= 85

    def test_level_5_matches_reference(self):
        num = specialize_numerator(5, Fraction(7, 3))
        for p in oracles.primes_between(10**4, 10**4 + 100)[:4]:
            assert factor_degrees_mod_p(num, p) == \
                oracles.ddf_degrees_reference(num.coeffs, p), p

    @pytest.mark.parametrize("p", [3, 7, 10007, 999983])
    @pytest.mark.parametrize("n", [2, 16, 32])
    def test_packed_product_at_largest_coefficients(self, n, p):
        # all coefficients p - 1 make the unreduced middle coefficient of
        # the product n(p-1)^2, and of its Barrett correction the same, the
        # most the product's slots hold before the slotwise reduction
        f = [p - 1] * n + [1]
        ring = _GFPackedRing(f, p)
        a = [p - 1] * n
        packed = ring.pack(a)
        for times_x, factor in ((False, [1]), (True, [0, 1])):
            want = oracles._gf_mulmod(oracles._gf_mulmod(a, a, f, p),
                                      factor, f, p)
            got = ring.unpack(ring.mul(packed, packed, times_x))
            assert got == want + [0] * (n - len(want))

    @pytest.mark.parametrize("p", [3, 7, 10007, 999983])
    @pytest.mark.parametrize("n", [2, 16, 32])
    def test_slotwise_reduction_at_its_bound(self, n, p):
        # every one of the n + 1 slots just below bound = 2np^2
        ring = _GFPackedRing([1] * (n + 1), p)
        top = 2 * n * p * p - 1
        assert ring.reduce(ring.pack([top] * (n + 1))) == \
            ring.pack([top % p] * (n + 1))

    def test_small_polynomials_match_reference(self):
        # every polynomial of degree 1..4 with coefficients in [-2, 2]: the
        # packed kernel against the reference's dense gcd(f, f') and
        # distinct-degree splitting
        checked = 0
        for degree in range(1, 5):
            for lower in itertools.product(range(-2, 3), repeat=degree):
                for lc in (-2, -1, 1, 2):
                    coeffs = lower + (lc,)
                    poly = IntPoly(coeffs)
                    for p in (3, 5, 7, 11):
                        assert factor_degrees_mod_p(poly, p) == \
                            oracles.ddf_degrees_reference(coeffs, p), (coeffs, p)
                        checked += 1
        assert checked == 4 * 4 * (5 + 5 ** 2 + 5 ** 3 + 5 ** 4)

    @pytest.mark.parametrize("coeffs, p, expected", [
        ((3, 1), 7, (1,)),                  # degree 1
        ((6, 2), 7, (1,)),                  # degree 1, lc 2
        ((1, 0, 1), 7, (2,)),               # x^2 + 1, -1 not a square mod 7
        ((-1, 0, 1), 7, (1, 1)),            # degree 2, split
        ((2, 0, 5), 11, (1, 1)),            # lc 5: x^2 + 7 = (x-2)(x+2) mod 11
        ((1, 0, 0, 0, 1), 3, (2, 2)),       # p = 3 below the degree: x^4 + 1,
                                            # 3 has order 2 mod 8
        ((-2, 0, 0, 0, 0, 0, 0, 1), 7, None),  # x^7 - 2: f' == 0 mod 7
        ((1, 1, 0, 1), 3, (2, 1)),          # x^3 + x + 1: f' = 1 mod 3 drops
                                            # degree, squarefree all the same
        ((1, -1, 1, 0, 0, 1), 3, (3, 2)),   # (x^2 + 1)(x^3 - x + 1): the lcm
                                            # of the degrees, 6, exceeds n = 5
        ((-1, 0, 0, 0, -1, 0, -1, 0, 1), 3, (3, 3, 2)),
                                            # (x^2 + 1)(x^3 - x + 1)(x^3 - x - 1):
                                            # L = 6, and at d = 3 the gcd is
                                            # all that is left
        ((0, -1, 0, 1), 3, (1, 1, 1)),      # x^3 - x at p = 3: x^p = x, so
                                            # L = 1 and nothing is counted
        ((0, -1, 0, 0, 0, 1), 5, (1, 1, 1, 1, 1)),  # x^5 - x at p = 5, too
        ((0, -1, 0, 0, 0, 1), 3, (2, 1, 1, 1)),  # x^5 - x at p = 3: L = 2 and
                                            # 3 roots, all of F_3, from the
                                            # gcd with x^3 - x
        ((-2, 0, -2, 1, 0, 1), 7, (3, 2)),  # (x^2 + 1)(x^3 - 2) at p = 7 > n:
                                            # L = 6 exceeds n = 5
        # level-4 and level-5 numerators at the primes either side of their
        # degrees 16 and 32: x^p mod f starts from x^p itself below the
        # degree and from a square-and-multiply step above it
        (specialize_numerator(4, Fraction(7, 3)).coeffs, 13, (4, 4, 4, 2, 1, 1)),
        (specialize_numerator(4, Fraction(7, 3)).coeffs, 17, (4, 4, 4, 2, 1, 1)),
        (specialize_numerator(4, Fraction(-5)).coeffs, 13,
         (2, 2, 2, 2, 2, 2, 1, 1, 1, 1)),
        (specialize_numerator(4, Fraction(5)).coeffs, 17, (2,) * 8),
        (specialize_numerator(5, Fraction(5)).coeffs, 31, (4,) * 8),
        (specialize_numerator(5, Fraction(5)).coeffs, 37,
         (4, 4, 4, 4, 4, 4, 4, 2, 1, 1)),
        (specialize_numerator(5, Fraction(7, 3)).coeffs, 31, (8, 8, 8, 8)),
    ])
    def test_edge_cases_match_reference(self, coeffs, p, expected):
        assert factor_degrees_mod_p(IntPoly(coeffs), p) == expected
        assert oracles.ddf_degrees_reference(coeffs, p) == expected

    def test_squarefree_decisions_match_the_sylvester_discriminant(self):
        # the kernel's gcd(f, f') mod p against p | disc(f), an integer
        # Sylvester determinant; the ddf reference tests squarefreeness by
        # a gcd too, so it cannot be this test's oracle
        rng = random.Random(2929)
        primes = primes_up_to(60)[1:]
        refused = checked = 0
        for _ in range(150):
            degree = rng.randint(2, 10)
            coeffs = [rng.randint(-9, 9) for _ in range(degree)]
            coeffs.append(rng.choice((-3, -2, -1, 1, 2, 3)))
            disc = oracles.discriminant_via_sylvester(coeffs)
            assert disc.denominator == 1
            for p in primes:
                if coeffs[-1] % p == 0:
                    continue
                bad = factor_degrees_mod_p(IntPoly(coeffs), p) is None
                assert bad == (disc.numerator % p == 0), (coeffs, p)
                refused += bad
                checked += 1
        assert checked > 2000 and refused > 50

    @pytest.mark.parametrize("coeffs, p, expected", [
        ((-2, 0, 0, 0, 0, 0, 0, 1), 7, None),
        ((1, 1, 0, 1), 3, (2, 1)),
        ((1, 1, 0, 0, 0, 0, 1), 3, (3, 2, 1)),
        ((1, -1, -1, 1), 3, None),
    ], ids=["derivative_zero_x7_minus_2_at_7",
            "derivative_drops_degree_x3_x_1_at_3",
            "p_divides_degree_squarefree_x6_x_1_at_3",
            "p_divides_degree_double_root_at_3"])
    def test_squarefree_edge_cases(self, coeffs, p, expected):
        # x^7 - 2 = (x - 2)^7 mod 7; x^3 + x + 1 has f' = 1 mod 3;
        # x^6 + x + 1 has f' = 1 mod 3; (x - 1)^2 (x + 1) has f' = x - 1
        # mod 3, so gcd(f, f') = x - 1
        assert factor_degrees_mod_p(IntPoly(coeffs), p) == expected
        disc = oracles.discriminant_via_sylvester(coeffs)
        assert (expected is None) == (disc.numerator % p == 0)


class TestIsProbablePrime:
    def test_agrees_with_trial_division(self):
        for n in range(-3, 20_000):
            want = n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))
            assert _is_probable_prime(n) == want, n

    @pytest.mark.parametrize("n, want", [
        (999_983, True),        # the largest prime in the table
        (10**6, False),         # TRIAL_DIVISION_LIMIT itself
        (1_000_003, True),      # the first prime past it, by Miller-Rabin
        (1_000_001, False),     # 101 * 9901, past it too
        (3 * 1_000_003, False),  # a multiple of a Miller-Rabin base
    ])
    def test_table_boundary(self, n, want):
        assert polyarith.TRIAL_DIVISION_LIMIT == 10**6
        assert _is_probable_prime(n) is want

    @pytest.mark.parametrize("n", [561, 1105, 2047, 3277, 4033, 1_373_653,
                                   3_215_031_751])
    def test_pseudoprimes_rejected(self, n):
        # Carmichael numbers and strong pseudoprimes to base 2 (1,373,653
        # to bases 2 and 3, 3,215,031,751 to bases 2, 3, 5 and 7)
        assert not _is_probable_prime(n)

    def test_factor_degrees_rejects_a_carmichael_modulus(self):
        with pytest.raises(ValueError, match="561 is not an odd prime"):
            factor_degrees_mod_p(IntPoly([1, 0, 1]), 561)


class TestPrimeTables:
    # n = 0..3, 2^k - 1, 2^k and 2^k + 1 for k <= 19, the default prime
    # bound and the cap: every side of every table's end
    BOUNDS = sorted({0, 1, 2, 3, 10**4, 10**6,
                     *(2**k + d for k in range(20) for d in (-1, 0, 1))})

    def test_primes_up_to_is_a_prefix_of_the_whole_table(self):
        whole = polyarith._sieve_primes(10**6)
        for n in self.BOUNDS:
            want = [p for p in whole if p <= n]
            assert primes_up_to(n) == want, n
            assert _is_probable_prime(n) is (n in want[-1:]), n

    def test_one_table_per_size_from_2_15_to_the_cap(self):
        polyarith._prime_table.cache_clear()
        whole = polyarith._sieve_primes(10**6)
        for bits in range(15, 21):
            assert polyarith._prime_table(bits) == [
                p for p in whole if p < min(1 << bits, 10**6)]
        # the 2^15 table serves every bound up to its end, the default 10^4
        # among them, and the 2^20 table is the whole one
        assert polyarith._primes_covering(0) is polyarith._prime_table(15)
        assert polyarith._primes_covering(10**4) is polyarith._prime_table(15)
        assert polyarith._primes_covering(2**15) is polyarith._prime_table(16)
        assert polyarith._primes_covering(10**6) is polyarith._prime_table(20)
        assert polyarith._prime_table.cache_info().currsize == 6

    def test_square_class_asks_for_the_table_its_cofactor_needs(self):
        # bits = (c.bit_length() + 2) // 3 + 1, so that 2^(bits - 1) >
        # c^(1/3), is the floor 15 up to 42 bits, 16 for 43..45 bits and
        # the cap 20 from 55 bits on
        polyarith._prime_table.cache_clear()
        polyarith.square_class(Fraction(2**45 - 1))
        polyarith.square_class(Fraction(-5, 2**41))
        assert polyarith._prime_table.cache_info().misses == 1
        polyarith.square_class(Fraction(2**42 - 1))
        polyarith.square_class((1 << 4095) + 1)
        assert polyarith._prime_table.cache_info().misses == 3
        for bits in (15, 16, 20):
            polyarith._prime_table(bits)
        assert polyarith._prime_table.cache_info().misses == 3


class TestIntegerHelpers:
    def test_primes_up_to(self):
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert len(primes_up_to(10**4)) == 1229

    def test_prime_table_matches_plain_sieve(self):
        # the table is an odd-only sieve read out by itertools.compress
        table = primes_up_to(polyarith.TRIAL_DIVISION_LIMIT)
        assert polyarith.TRIAL_DIVISION_LIMIT == 10**6
        assert len(table) == 78_498
        assert table == oracles.primes_between(2, 10**6 + 1)

    def test_squarefree_part(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(-5000, 5000)
            if n == 0:
                continue
            assert squarefree_part(n) == oracles.squarefree_part_slow(n)
        assert squarefree_part(Fraction(9, 4)) == 1
        assert squarefree_part(Fraction(-8, 3)) == -6
        assert squarefree_part(Fraction(5, 7)) == 35

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_part(0)

    def test_factoring_limit(self):
        # 10^10+19 and 10^10+33 are prime; their product exceeds the
        # certified-factorization bound and must be refused, not guessed
        n = (10**10 + 19) * (10**10 + 33)
        with pytest.raises(ResourceLimitError):
            squarefree_part(n)

    def test_square_cofactor_above_the_factoring_bound(self):
        # (10^10 + 19)^2 exceeds 10^18 and is left whole by trial
        # division, but a perfect square needs no factoring
        assert squarefree_part(3 * (10**10 + 19)**2) == 3
        assert squarefree_part(Fraction(-(10**10 + 33)**2, 5)) == -5

    def test_refusal_names_the_bit_length_not_the_value(self):
        # a value can be too long to print (4300 digits at most by default)
        n = (10**10 + 19) * (10**10 + 33)
        with pytest.raises(ResourceLimitError,
                           match="refusing to factor a 67-bit cofactor") as err:
            squarefree_part(n)
        assert str(n) not in str(err.value)
