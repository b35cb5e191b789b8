"""Exact integer polynomial arithmetic for the iterates of 2/(x-1)^2.

The n-th iterate of the map is g_n/h_n with

    g_1 = 2,  h_1 = (x-1)^2,
    g_n = 2*h_{n-1}^2,  h_n = (g_{n-1} - h_{n-1})^2,

so both have degree 2**n for n >= 2, with leading coefficients 2 and 1.
Everything here is exact: resultants come from the subresultant remainder
sequence over the integers, independently cross-checkable against a
CRT/modular route, and discriminants in the parameter t follow level by
level from the critical orbit of the map.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, islice
from math import gcd, isqrt
from operator import mul
from typing import Optional

from .errors import (
    BadPrimeError,
    ExcludedBasePointError,
    ResourceLimitError,
    ShapeViolationError,
)

# the end of the largest sieved prime table: the Frobenius stream's primes
# and square_class's trial divisors
TRIAL_DIVISION_LIMIT = 10**6
# discriminant_shape's guard (two CRT discriminants of degree 2**(n-1)), and
# with it `img disc` and `img verify`, go no deeper; the recursion is uncapped
DISC_LEVEL_CAP = 5
# iterate_pair builds the exact (g_n, h_n), of degree 2**n, up to this level
ITERATE_LEVEL_CAP = 8
# numerators of f^n(x) = a, which the level-4 certificate factors mod p
SPECIALIZE_LEVEL_CAP = 5


class IntPoly:
    """Dense integer polynomial; coefficients constant-term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise ValueError(f"coefficients must be int, got {type(c).__name__}")
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product by Kronecker substitution (Harvey, J. Symb. Comp.
        2009): each operand becomes one int, its coefficients in signed
        slots of `size` bytes, and one big-int product is unpacked by one
        `to_bytes`.  No product coefficient exceeds max|a| * max|b| *
        min(len) in absolute value, so a slot holds every one of them."""
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
        size = bound.bit_length() // 8 + 1  # 2^(8 size - 1) > bound
        slots = len(a) + len(b) - 1
        bias = int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")
        pa = _kronecker_pack(a, size, bias)
        pb = pa if b is a else _kronecker_pack(b, size, bias)
        # adding bias makes each slot c + 2^(8 size - 1), with no borrow
        # between slots; xor with bias turns that into c's two's complement
        data = ((pa * pb + bias) ^ bias).to_bytes(size * slots, "little")
        return IntPoly([int.from_bytes(data[i:i + size], "little", signed=True)
                        for i in range(0, len(data), size)])

    def square(self):
        return self * self

    def scale(self, k: int):
        return IntPoly([k * c for c in self.coeffs])

    def derivative(self):
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self):
        """Divide out the (positive) content; the sign of lc is kept."""
        g = self.content()
        return IntPoly([c // g for c in self.coeffs]) if g > 1 else self

    def to_text(self) -> str:
        """Space-separated decimal coefficients, constant term first."""
        return " ".join(str(c) for c in self.coeffs) if self.coeffs else "0"


def _kronecker_pack(coeffs, size: int, bias: int) -> int:
    """sum c_i 2^(8 size i) for |c_i| < 2^(8 size - 1), and bias with
    2^(8 size - 1) in at least len(coeffs) slots: the two's complement
    slots xor bias are c_i + 2^(8 size - 1), so subtracting bias leaves
    the signed sum."""
    raw = int.from_bytes(b"".join(c.to_bytes(size, "little", signed=True)
                                  for c in coeffs), "little")
    return (raw ^ bias) - bias


X = IntPoly([0, 1])


# -- iterates ----------------------------------------------------------------


@dataclass(frozen=True)
class IterateFraction:
    """Numerator and denominator of the n-th iterate, checked coprime."""

    n: int
    g: IntPoly
    h: IntPoly

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("iterate index starts at 1")
        # coprimality certificate: the resultant is +/- a power of 2, so a
        # constant gcd mod 3 already proves gcd = 1 over the rationals
        # (both leading coefficients survive mod 3, no degree drop)
        ring = _GFPacking(3, max(self.g.degree(), self.h.degree(), 1))
        g3 = ring.pack([c % 3 for c in self.g.coeffs])
        h3 = ring.pack([c % 3 for c in self.h.coeffs])
        if not (g3 or h3) or ring.degree(ring.gcd(g3, h3)) != 0:
            raise ValueError(f"iterate {self.n}: g and h are not coprime")
        if self.n >= 2:
            d = 1 << self.n
            if self.g.degree() != d or self.h.degree() != d:
                raise ValueError(f"iterate {self.n}: wrong degrees")
            if self.g.lc != 2 or self.h.lc != 1:
                raise ValueError(f"iterate {self.n}: wrong leading coefficients")


@lru_cache(maxsize=None)
def iterate_pair(n: int) -> IterateFraction:
    if not 1 <= n <= ITERATE_LEVEL_CAP:
        raise ValueError(f"iterate level {n} out of range 1..{ITERATE_LEVEL_CAP}")
    if n == 1:
        return IterateFraction(1, IntPoly([2]), IntPoly([1, -2, 1]))
    prev = iterate_pair(n - 1)
    return IterateFraction(n, prev.h.square().scale(2), (prev.g - prev.h).square())


@dataclass(frozen=True)
class IterateMetadata:
    n: int
    x_degree: int          # degree in x of g - t*h
    g_degree: int
    h_degree: int
    wronskian_degree: int
    wronskian_lc: int      # denoted D_n; |D_n| = 4**n, the sign is recorded


def iterate_metadata(n: int) -> IterateMetadata:
    fr = iterate_pair(n)
    w = fr.h * fr.g.derivative() - fr.g * fr.h.derivative()
    return IterateMetadata(
        n=n,
        x_degree=max(fr.g.degree(), fr.h.degree()),
        g_degree=fr.g.degree(),
        h_degree=fr.h.degree(),
        wronskian_degree=w.degree(),
        wronskian_lc=w.lc,
    )


# -- resultants --------------------------------------------------------------


def _deg(a: list[int]) -> int:
    return len(a) - 1


def _strip(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pseudo_rem(a: list[int], b: list[int], lb: int) -> list[int]:
    """prem(a, b): lb**(deg a - deg b + 1) * a reduced mod b, over Z."""
    db = _deg(b)
    r = list(a)
    steps = _deg(a) - db + 1
    while r and _deg(r) >= db:
        coef = r[-1]
        r = [lb * c for c in r]
        pos = _deg(r) - db
        for i, bc in enumerate(b):
            r[pos + i] -= coef * bc
        r.pop()  # leading term cancels by construction
        _strip(r)
        steps -= 1
    if steps > 0 and r:
        f = lb**steps
        r = [f * c for c in r]
    return r


def _divexact_int(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:  # pragma: no cover - would indicate a broken remainder sequence
        raise ArithmeticError("inexact integer division")
    return q


def resultant(p: IntPoly, q: IntPoly) -> int:
    """Exact resultant via the subresultant pseudo-remainder sequence."""
    if p.is_zero or q.is_zero:
        raise ValueError("resultant needs nonzero polynomials")
    a, b = list(p.coeffs), list(q.coeffs)
    s = 1
    if _deg(a) < _deg(b):
        if _deg(a) & _deg(b) & 1:
            s = -s
        a, b = b, a
    if _deg(b) == 0:
        return s * b[0] ** _deg(a)
    g = h = 1
    while True:
        da, db = _deg(a), _deg(b)
        delta = da - db
        if da & db & 1:
            s = -s
        r = _pseudo_rem(a, b, b[-1])
        a = b
        divisor = g * h**delta
        b = [_divexact_int(c, divisor) for c in r]
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _divexact_int(g**delta, h ** (delta - 1))
        if not b:
            return 0
        if _deg(b) == 0:
            break
    da = _deg(a)
    return s * _divexact_int(b[0] ** da, h ** (da - 1))


def _resultant_bound(a: list[int], b: list[int]) -> int:
    """Hadamard bound on |Res| from the Sylvester row norms."""
    na = sum(c * c for c in a)
    nb = sum(c * c for c in b)
    return isqrt(na ** _deg(b) * nb ** _deg(a)) + 1


def _mahler_bound(F: IntPoly) -> int:
    """A bound on |Res(F, F')| for F of degree d >= 1, by Mahler's
    inequality |disc F| <= d^d M(F)^(2d-2) (Mich. Math. J. 11, 1964) and
    Res(F, F') = +-lc(F) disc(F).  The Mahler measure comes from the second
    Graeffe iterate G_2, whose roots are the fourth powers of F's:
    M(F)^4 = M(G_2) <= ||G_2||_2, so M(F)^(2d-2) <= S^((d-1)/4) for S the
    sum of the squares of G_2's coefficients, rounded up in integers."""
    g = F
    for _ in range(2):  # G(x^2) = +-g(x) g(-x) = +-(e(x^2)^2 - x^2 o(x^2)^2)
        e, o = IntPoly(g.coeffs[0::2]), IntPoly(g.coeffs[1::2])
        g = e.square() - IntPoly((0,) + o.square().coeffs)
    d = F.degree()
    root = sum(c * c for c in g.coeffs) ** (d - 1)
    for _ in range(2):  # ceil(S^(1/4)) by two rounded-up square roots
        r = isqrt(root)
        root = r + (r * r < root)
    return abs(F.lc) * d**d * root


# The CRT moduli are the odd numbers above 2^62 that no odd prime below
# _BIG_SIEVE_LIMIT divides, sieved in windows of _BIG_WINDOW of them.
_BIG_WINDOW = 256
_BIG_SIEVE_LIMIT = 1024


@lru_cache(maxsize=None)
def _big_candidates(k: int) -> tuple[int, ...]:
    """The odd numbers 2^62 + 1 + 2 j, k W <= j < (k + 1) W for W =
    _BIG_WINDOW, that no odd prime below _BIG_SIEVE_LIMIT divides.  Those
    primes come from their own sieve of 0.02 ms: even the smallest shared
    table, `_prime_table(_TABLE_MIN_BITS)`, sieves 32 times as far, in a
    process such as a discriminant computation that needs no other prime."""
    start = (1 << 62) + 1 + 2 * _BIG_WINDOW * k
    sieve = bytearray([1]) * _BIG_WINDOW
    for p in _sieve_primes(_BIG_SIEVE_LIMIT)[1:]:
        # start + 2 j = 0 (mod p) at j = -start / 2, and (p + 1) / 2 is 1/2
        j = -start % p * ((p + 1) >> 1) % p
        sieve[j::p] = bytes(len(range(j, _BIG_WINDOW, p)))
    return tuple(compress(range(start, start + 2 * _BIG_WINDOW, 2), sieve))


def _big_moduli():
    """The sieved candidates above 2^62 in increasing order, endlessly.
    Some are composite; the CRT needs no primality proof (`_crt_resultant`)."""
    for k in count():
        yield from _big_candidates(k)


def resultant_modular(p: IntPoly, q: IntPoly) -> int:
    """The same resultant through reductions mod large moduli and CRT.

    Kept as an independent route: the two algorithms must agree, and the
    discriminant shapes are spot-checked through the same CRT route.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("resultant needs nonzero polynomials")
    a, b = list(p.coeffs), list(q.coeffs)
    if _deg(a) == 0 and _deg(b) == 0:
        return 1
    if _deg(b) == 0:
        return b[0] ** _deg(a)
    if _deg(a) == 0:
        return a[0] ** _deg(b)
    return _crt_resultant(a, b, _resultant_bound(a, b), _big_moduli())


def _crt_resultant(a: list[int], b: list[int], bound: int, moduli) -> int:
    """Res(a, b), given |Res(a, b)| <= bound, from `_gf_resultant` mod each
    of the odd moduli in turn, combined by CRT until their product exceeds
    2 bound.  Euclid's rule holds over any Z/m in which every pivot is a
    unit, so a modulus need not be prime: one that shares a factor with a
    leading coefficient, with a pivot or with the product so far is
    skipped."""
    acc, modulus = 0, 1
    for m in moduli:
        if gcd(a[-1] * b[-1], m) != 1 or gcd(modulus, m) != 1:
            continue
        rm = _gf_resultant([c % m for c in a], [c % m for c in b], m)
        if rm is None:
            continue
        # combine: acc' = acc (mod modulus), = rm (mod m)
        acc += modulus * ((rm - acc) * pow(modulus, -1, m) % m)
        modulus *= m
        if modulus > 2 * bound:
            return acc - modulus if acc > modulus // 2 else acc
    raise ArithmeticError("CRT moduli ran out below the resultant bound")


# -- GF(p) polynomials, Kronecker-packed -------------------------------------


class _GFPacking:
    """Polynomials of degree <= n over Z/p, p an odd modulus (prime, or for
    `_gf_resultant` any odd number whose pivots are units), each one
    Kronecker-packed into one int: coefficient i in bits [i*width,
    (i+1)*width) (Harvey, J. Symb. Comp. 2009).  Every reduction is a
    handful of big-int operations over all slots at once; none needs p to
    be prime, only each leading coefficient that it inverts to be a unit.

    Every value handed to `reduce` has at most n + 1 slots, each below
    bound = 2np^2.  Slotwise Barrett reduction with m = floor(2^k / p),
    2^k > bound, multiplies each slot by m, so width = k + bits(2np) keeps
    those products below 2^width: no slot ever carries into the next.
    Callers keep to the bound; `_factor_degrees_monic` says why they do.
    """

    __slots__ = ("p", "width", "nbits", "low", "ones", "m", "k", "qmask",
                 "c", "bias")

    def __init__(self, p: int, n: int):
        bound = 2 * n * p * p
        self.k = bound.bit_length()
        self.width = self.k + (bound // p).bit_length()
        self.p, self.nbits = p, n * self.width
        self.low = (1 << self.nbits) - 1
        self.ones = (((1 << self.nbits + self.width) - 1)
                     // ((1 << self.width) - 1))  # bit 0 of n + 1 slots
        self.m = (1 << self.k) // p
        self.qmask = self.ones * ((1 << self.width - self.k) - 1)
        self.c = p.bit_length()
        self.bias = self.ones * ((1 << self.c) - p)

    def pack(self, coeffs: list[int]) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v << self.width | c
        return v

    def unpack(self, v: int) -> list[int]:
        """The n coefficients of a reduced element of degree < n."""
        mask = (1 << self.width) - 1
        return [v >> s & mask for s in range(0, self.nbits, self.width)]

    def degree(self, v: int) -> int:
        """Degree of a reduced polynomial, -1 for zero."""
        return (v.bit_length() - 1) // self.width

    def reduce(self, v: int) -> int:
        """Every slot mod p.  A slot a < bound gets q = floor(a*m / 2^k),
        which is floor(a/p) or one less, so a - q*p < 2p; bit c of
        a - q*p + 2^c - p is then set exactly in the slots that need one
        more subtraction of p."""
        p = self.p
        v -= (v * self.m >> self.k & self.qmask) * p
        return v - (v + self.bias >> self.c & self.ones) * p

    def divmod(self, a: int, b: int) -> tuple[int, int]:
        """Quotient and remainder of reduced polynomials, b nonzero.  Each
        step adds at most (p-1)^2 to a slot of a and clears the top one,
        which is then 0 mod p; at most n + 1 steps keep every slot below
        bound until the one reduction at the end."""
        w, p = self.width, self.p
        db = self.degree(b) * w
        inv = pow(b >> db, -1, p)
        q = 0
        for top in range(self.degree(a) * w, db - 1, -w):
            t = (a >> top) * inv % p
            if t:
                q |= t << top - db
                a += (p - t) * b << top - db
            a &= (1 << top) - 1
        return q, self.reduce(a)

    def gcd(self, a: int, b: int) -> int:
        """Monic gcd of reduced polynomials, not both zero."""
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.reduce(a * pow(a >> self.degree(a) * self.width, -1, self.p))


class _GFPackedRing(_GFPacking):
    """F_p[x]/(f) for a monic f of degree n >= 2 over F_p on the packing of
    degree n, with products reduced mod f by polynomial Barrett reduction."""

    __slots__ = ("f", "negf", "mu")

    def __init__(self, f: list[int], p: int):
        n = _deg(f)
        super().__init__(p, n)
        self.f = self.pack(f)
        self.negf = self.pack([-a % p for a in f[:n]])  # x^n mod f
        self.mu = self.divmod(1 << 2 * self.nbits, self.f)[0]

    def mul(self, a: int, b: int, times_x: bool = False) -> int:
        """a*b (times x if asked) mod f for reduced a, b of degree < n, by
        polynomial Barrett reduction: a product P of degree < 2n has
        quotient (P div x^n) * mu div x^n by f (von zur Gathen-Gerhard,
        Modern Computer Algebra, ch. 9)."""
        full = a * b << self.width if times_x else a * b
        hi = self.reduce(full >> self.nbits)
        quo = self.reduce(hi * self.mu >> self.nbits)
        return self.reduce((full & self.low) + (quo * self.negf & self.low))


def _gf_resultant(a: list[int], b: list[int], m: int) -> int | None:
    """Res(a, b) mod an odd modulus m for coefficient lists reduced mod m
    with leading coefficients prime to m, by the Euclidean remainder
    sequence on packed ints: Res(a, b) = (-1)^(deg a deg b)
    lc(b)^(deg a - deg r) Res(b, r) for r = a mod b (von zur Gathen-Gerhard,
    ch. 6).  The rule needs only that each pivot lc(b) is a unit mod m, so
    m need not be prime; None if a pivot shares a factor with m (never for
    a prime m).  Each division stays within `divmod`'s slot bound, as no
    operand exceeds the packing's degree."""
    da, db = _deg(a), _deg(b)
    ring = _GFPacking(m, max(da, db, 1))
    res = 1
    if da < db:
        if da & db & 1:
            res = m - 1
        a, b, da, db = b, a, db, da
    a, b = ring.pack(a), ring.pack(b)
    while db > 0:
        lead = b >> db * ring.width
        if gcd(lead, m) != 1:
            return None
        r = ring.divmod(a, b)[1]
        if not r:
            return 0
        dr = ring.degree(r)
        res = res * pow(lead, da - dr, m) % m
        if da & db & 1:
            res = (m - res) % m
        a, b, da, db = b, r, db, dr
    return res * pow(b, da, m) % m


# -- discriminants in the parameter t -----------------------------------------


@dataclass(frozen=True)
class DiscriminantShape:
    """disc_x(g_n - t*h_n) = sign * 2**c * t**a * (2-t)**b."""

    n: int
    sign: int
    c: int
    a: int
    b: int

    def reconstruct(self) -> IntPoly:
        out = IntPoly([self.sign * (1 << self.c)])
        for _ in range(self.a):
            out = out * X
        two_minus_t = IntPoly([2, -1])
        for _ in range(self.b):
            out = out * two_minus_t
        return out

    def __str__(self):
        s = "+" if self.sign > 0 else "-"
        return f"{s}2^{self.c} * t^{self.a} * (2-t)^{self.b}"


def _disc_direct(F: IntPoly) -> int:
    """disc_x(F) through the modular route, with no subresultant: Res(F, F')
    by `_crt_resultant`, its CRT sized by the smaller of the Hadamard and
    the Mahler bound.  `_disc_half_degree` runs it on the half-degree P;
    on F itself it is the oracle of that route's identity in the tests.
    A linear F gets disc 1."""
    d = F.degree()
    a, b = list(F.coeffs), list(F.derivative().coeffs)
    bound = min(_resultant_bound(a, b), _mahler_bound(F))
    res = _crt_resultant(a, b, bound, _big_moduli())
    sign = -1 if (d * (d - 1) // 2) & 1 else 1
    return sign * _divexact_int(res, F.lc)


def _halve_about_one(F: IntPoly) -> IntPoly:
    """P with F(1 + y) = P(y^2), by an exact Taylor shift of F by 1; a
    ShapeViolationError if F(1 + y) has an odd term."""
    c = list(F.coeffs)
    for i in range(len(c) - 1):  # synthetic division by y = x - 1, repeated
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]
    if any(c[1::2]):
        raise ShapeViolationError(f"{F!r} is not a polynomial in (x - 1)^2")
    return IntPoly(c[0::2])


def _disc_half_degree(F: IntPoly) -> int:
    """disc_x(F) for F(1 + y) = P(y^2), through `_disc_direct` on P of half
    the degree m:

        disc(F) = (-4)^m * lc(P) * P(0) * disc(P)^2.

    disc is invariant under x -> 1 + y; for Q(y) = P(y^2), Q' = 2y P'(y^2),
    Res(Q, y) = P(0) and Res(P(y^2), R(y^2)) = Res(P, R)^2 (multiplicativity,
    von zur Gathen-Gerhard, ch. 6) give Res(Q, Q') = 4^m P(0) Res(P, P')^2,
    and disc(Q) = (-1)^m Res(Q, Q') / lc(P)."""
    P = _halve_about_one(F)
    m = P.degree()
    return (-4) ** m * P.lc * P.coeffs[0] * _disc_direct(P) ** 2


def _critical_orbit():
    """The pairs (g_k(0), h_k(0)) and (G_k, H_k), the x^(2^k) coefficients
    of (g_k, h_k), for k = 0, 1, 2, ...: both advance by (g, h) <- (2h^2,
    (g - h)^2) from (g_0, h_0) = (x, 1), the orbits 0 -> 2 -> 2 and
    oo -> 0 -> 2 of f in projective coordinates."""
    at_zero, at_inf = (0, 1), (1, 0)
    while True:
        yield at_zero, at_inf
        at_zero, at_inf = [(2 * h * h, (g - h) ** 2) for g, h in (at_zero, at_inf)]


def _orbit_form(n: int, u: int, v: int) -> tuple[int, int, int, int]:
    """(sign, k, i, j) with u - t*v = sign * 2^k * t^i * (2 - t)^j for one
    of (i, j) = (0, 0), (1, 0), (0, 1); a ShapeViolationError naming the
    level n otherwise."""
    if v == 0:
        w, i, j = u, 0, 0
    elif u == 0:
        w, i, j = -v, 1, 0
    elif u == 2 * v:
        w, i, j = v, 0, 1
    else:
        raise ShapeViolationError(
            f"level {n}: orbit form {u} - {v}*t is not +/-2^k times 1, t or 2 - t")
    mag = abs(w)
    if not mag or mag & (mag - 1):
        raise ShapeViolationError(f"level {n}: constant {w} is not +/-2^k")
    return (1 if w > 0 else -1), mag.bit_length() - 1, i, j


def _shape_recursion():
    """The shapes of levels 1, 2, 3, ... with no cap and no guard, by the
    recursion that `discriminant_shape` proves."""
    sign, c, a, b = 1, 0, 0, 0  # disc(F_0) = 1
    for n, (at_zero, at_inf) in enumerate(_critical_orbit(), 1):
        m = 1 << n - 1
        s0, k0, i0, j0 = _orbit_form(n, *at_zero)  # lc(P) = F_(n-1)(0)
        s1, k1, i1, j1 = _orbit_form(n, *at_inf)   # lc_x(F_(n-1))
        sign = (-1 if m & 1 else 1) * s0 * s1
        c = 2 * m + k0 + (m + k1) + 2 * (m * (m - 1) + c)  # (-4)^m lc(P) P(0)
        a, b = 2 * a + i0 + i1, 2 * b + j0 + j1
        yield DiscriminantShape(n=n, sign=sign, c=c, a=a, b=b)


def discriminant_shape(n: int) -> DiscriminantShape:
    """disc_x(g_n - t*h_n) = sign * 2^c * t^a * (2-t)^b, by a recursion on
    the level along the critical orbit of f = 2/(x-1)^2.

    Let F_k = g_k - t*h_k, with (g_0, h_0) = (x, 1) so that F_0 = x - t
    has disc 1, and m = 2^(n-1).  All below holds over Q(t), where
    F_(n-1) has x-degree m and F_(n-1)(0) != 0 (the orbit forms check both).

    The identity.  f(1 + y) = 2/y^2, and for k >= 1

        g_k(1 + y) = y^(2^k) g_(k-1)(2/y^2),  h_k(1 + y) = y^(2^k) h_(k-1)(2/y^2):

    both sides are (2, y^2) at k = 1, and g_(k+1) = 2h_k^2, h_(k+1) =
    (g_k - h_k)^2 carry both from k to k + 1.  So F_n(1 + y) = P(y^2) for
    P(z) = z^m F_(n-1)(2/z), with lc(P) = F_(n-1)(0) and P(0) = 2^m
    lc_x(F_(n-1)), and `_disc_half_degree`'s identity gives

        disc(F_n) = (-4)^m * lc(P) * P(0) * disc(P)^2.

    Reversal and scaling.  P(z) = 2^m R(z/2) for the reversal R(z) =
    z^m Q(1/z) of Q = F_(n-1).  R has leading coefficient Q(0) and the
    roots 1/alpha_i of Q, and prod_(i<j) (alpha_i alpha_j)^2 = (Q(0) /
    lc Q)^(2m-2), so disc(R) = disc(Q).  Doubling the roots multiplies
    prod (beta_i - beta_j)^2 by 2^(m(m-1)); the leading coefficient of
    2^m R(z/2) is that of R, so disc(P) = 2^(m(m-1)) disc(F_(n-1)) and

        disc(F_n) = (-4)^m * F_(n-1)(0) * 2^m lc_x(F_(n-1))
                    * (2^(m(m-1)) disc(F_(n-1)))^2.

    The four integers.  F_(n-1)(0) = g_(n-1)(0) - t h_(n-1)(0) and
    lc_x(F_(n-1)) = G - t H for the x^m coefficients G, H of g_(n-1) and
    h_(n-1).  Evaluation at 0 is a ring map, and as deg g_k, deg h_k <=
    2^k, the x^(2^(k+1)) coefficients of 2h_k^2 and (g_k - h_k)^2 are
    2H_k^2 and (G_k - H_k)^2: both pairs advance as (g, h) does
    (`_critical_orbit`).  Each form must be +/-2^k, +/-2^k t or
    +/-2^k (2 - t) (`_orbit_form`); anything else is a ShapeViolationError
    naming the level.

    Two direct discriminants, at t = 5 and 7, guard the result:
    `_disc_half_degree` gets disc_x(F_n) of the iterate pair itself from the
    CRT resultant Res(P, P'), with no subresultant.  It shares the
    half-degree identity, which the tests pin against `_disc_direct` and
    Sylvester; the reversal, the scaling and the orbit it checks afresh.
    """
    if n < 1:
        raise ValueError(f"discriminant level {n} is below 1")
    if n > DISC_LEVEL_CAP:
        raise ResourceLimitError(
            f"discriminant level {n} exceeds DISC_LEVEL_CAP = {DISC_LEVEL_CAP}")
    shape = next(islice(_shape_recursion(), n - 1, None))
    fr = iterate_pair(n)
    for tau in (5, 7):
        want = shape.sign * (1 << shape.c) * tau**shape.a * (2 - tau)**shape.b
        if _disc_half_degree(fr.g - fr.h.scale(tau)) != want:
            raise ShapeViolationError(
                f"level {n}: modular cross-check failed at t={tau}")
    return shape


# -- specialization and factorization mod p ------------------------------------


def specialize_numerator(n: int, a) -> IntPoly:
    """Primitive integer numerator of f^n(x) = a, sign of lc preserved."""
    if not 1 <= n <= SPECIALIZE_LEVEL_CAP:
        raise ValueError(f"level {n} out of range 1..{SPECIALIZE_LEVEL_CAP}")
    a = Fraction(a)
    if a == 0 or a == 2:
        raise ExcludedBasePointError(f"base point {a} is postcritical")
    fr = iterate_pair(n)
    poly = fr.g.scale(a.denominator) - fr.h.scale(a.numerator)
    return poly.primitive()


def factor_degrees_mod_p(poly: IntPoly, prime: int) -> Optional[tuple[int, ...]]:
    """Degrees of the irreducible factors mod an odd prime, or None.

    None means the reduction is not squarefree (a "bad" prime for
    Frobenius sampling).  Counting the factors of each degree is all that
    is needed: the factors themselves are never computed.

    A linear f is squarefree at every p not dividing lc(f).  Otherwise
    only f mod p up to a unit matters, so `_factor_degrees_monic` tests
    the monic reduction for squarefreeness and counts its factors.
    """
    if prime < 3 or not _is_probable_prime(prime):
        raise ValueError(f"{prime} is not an odd prime")
    if poly.is_zero:
        raise ValueError("zero polynomial")
    if poly.lc % prime == 0:
        raise BadPrimeError(f"{prime} divides the leading coefficient")
    if poly.degree() == 0:
        return ()
    if poly.degree() == 1:
        return (1,)
    inv = pow(poly.lc, -1, prime)
    return _factor_degrees_monic([c * inv % prime for c in poly.coeffs], prime)


def _factor_degrees_monic(f: list[int], prime: int) -> Optional[tuple[int, ...]]:
    """Degrees of the irreducible factors of a monic f over F_p, given as
    coefficients reduced mod the odd prime p, constant term first, of
    degree n >= 2, or None if f is not squarefree.

    Over the perfect field F_p, f is squarefree iff f' is nonzero and
    gcd(f, f') = 1 (von zur Gathen-Gerhard, Modern Computer Algebra,
    ch. 14).  When f' = 0, f is a p-th power and gcd(f, f') is f itself,
    so one gcd of positive degree refuses both cases.

    The p-power map is F_p-linear on F_p[x]/(f), n = deg f, so x^p mod f is
    computed once by square-and-multiply, starting from the monomial x^k
    for the longest leading bit string k of p with k < n, and the rows
    x^(ip) mod f, i < n, form the Frobenius (Berlekamp Q) matrix (same
    chapter).  Matrix-vector products give h_d = x^(p^d) mod f until
    h_L = x: f is squarefree, so L is the lcm of the factor degrees and
    every factor degree divides L.

    No factor is split off or divided out; the factors are counted.  For
    each divisor d < L of L in increasing order (every d <= n when L
    exceeds n), c_d = sum of e * n_e over e | d is the number of roots of
    f in F_(p^d), where n_e is the number of factors of degree e, so
    n_d = (c_d - sum of e * n_e over e | d, e < d) / d.  c_d is the degree
    of gcd(h_d - x, f), with f itself.  Once 2d exceeds the degree left
    uncounted, that rest is one irreducible factor; after the last divisor
    of L, it is made of factors of degree L.

    Elements of F_p[x]/(f) are Kronecker-packed into one int each
    (`_GFPackedRing`), and every value that gets reduced has slots below
    2np^2: a product of reduced elements and a matrix-vector sum of n rows
    have coefficients of at most n(p-1)^2, the low half of a product plus
    its Barrett correction at most 2n(p-1)^2, and a division step adds
    (p-1)^2 to a slot at most n + 1 times.  A slot is k + bits(2np) bits
    wide, with 2^k > 2np^2, so that even a slot times the Barrett
    multiplier floor(2^k / p) fits in it and no slot carries into the
    next.  Barrett reduction mod p is then a multiply, shift, mask and
    subtract over all slots at once plus one masked conditional
    subtraction; a product of degree < 2n is reduced mod f by polynomial
    Barrett reduction, two more packed products against mu = x^(2n) div f.
    The squarefree test and the counting gcds run on the same packed ints.
    """
    n = _deg(f)
    ring = _GFPackedRing(f, prime)
    fprime = ring.pack([i * f[i] % prime for i in range(1, n + 1)])
    if ring.degree(ring.gcd(ring.f, fprime)):
        return None
    bits = bin(prime)[2:]
    k, i = 1, 1
    while i < len(bits) and 2 * k + (bits[i] == "1") < n:
        k, i = 2 * k + (bits[i] == "1"), i + 1
    xp = 1 << k * ring.width
    for bit in bits[i:]:
        xp = ring.mul(xp, xp, bit == "1")
    rows = [1, xp]
    while len(rows) < n:
        rows.append(ring.mul(rows[-1], xp))
    w = ring.width
    x = 1 << w
    frob = [None, xp]  # frob[d] = x^(p^d) mod f
    while frob[-1] != x and len(frob) <= n:
        frob.append(ring.reduce(sum(map(mul, ring.unpack(frob[-1]), rows))))
    order = len(frob) - 1 if frob[-1] == x else None
    steps = (range(1, n + 1) if order is None
             else [d for d in range(1, order) if order % d == 0])
    degrees: list[int] = []
    left = n  # the degree not yet counted
    for d in steps:
        if 2 * d > left:
            last = left  # what is left is irreducible
            break
        roots = ring.degree(ring.gcd(ring.reduce(frob[d] + (prime - 1 << w)),
                                     ring.f))
        count = (roots - sum(e for e in degrees if d % e == 0)) // d
        degrees.extend([d] * count)
        left -= d * count
    else:  # only reached with L found, as 2n > left ends the d <= n run
        last = order
    if left:
        degrees.extend([last] * (left // last))
    return tuple(sorted(degrees, reverse=True))


# -- primes and square classes -------------------------------------------------


# Each table is the primes below min(2^bits, TRIAL_DIVISION_LIMIT) for bits
# from _TABLE_MIN_BITS to _TABLE_MAX_BITS, whose table is the whole one.
# The smallest holds the primes up to the default prime bound 10^4 and
# every trial divisor `square_class` needs for a value below 2^42, which
# covers every height up to 10^6, so such a level-4 verdict sieves nothing
# once the prime stream has its table.
_TABLE_MIN_BITS = 15
_TABLE_MAX_BITS = TRIAL_DIVISION_LIMIT.bit_length()


@lru_cache(maxsize=None)
def _prime_table(bits: int) -> list[int]:
    """The primes below min(2^bits, TRIAL_DIVISION_LIMIT), ascending.
    Callers clamp bits to _TABLE_MIN_BITS.._TABLE_MAX_BITS, so at most six
    tables are ever built."""
    return _sieve_primes(min(1 << bits, TRIAL_DIVISION_LIMIT))


def _sieve_primes(limit: int) -> list[int]:
    """The primes up to limit, ascending."""
    # an odd-only sieve: sieve[i] stands for 2 i + 1, and p's odd multiples
    # from p * p on lie p entries apart
    sieve = bytearray([1]) * ((limit + 1) // 2)
    sieve[0] = 0
    for i in range(1, (isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(sieve), p)))
    return [2, *compress(range(1, limit + 1, 2), sieve)]


def _primes_covering(limit: int) -> list[int]:
    """The smallest table holding every prime up to limit; a limit above
    TRIAL_DIVISION_LIMIT is refused before anything is sieved."""
    if limit > TRIAL_DIVISION_LIMIT:
        raise ResourceLimitError(
            f"prime table capped at {TRIAL_DIVISION_LIMIT}, asked for {limit}"
        )
    bits = limit.bit_length()
    return _prime_table(bits if bits > _TABLE_MIN_BITS else _TABLE_MIN_BITS)


def primes_up_to(limit: int) -> list[int]:
    table = _primes_covering(limit)
    return table[:bisect_right(table, limit)]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BELOW = 3_317_044_064_679_887_385_961_981


def _is_probable_prime(n: int) -> bool:
    """Primality of n: exact up to TRIAL_DIVISION_LIMIT by a binary search
    of the smallest sieved table that covers n, beyond it Miller-Rabin at
    the first twelve prime bases, deterministic below
    _MR_DETERMINISTIC_BELOW (about 3.3e24).  Each table is built once per
    process; the prime stream of the Frobenius sampling up to the default
    bound reads the same smallest table through `primes_up_to`."""
    if n <= TRIAL_DIVISION_LIMIT:
        table = _primes_covering(n)
        i = bisect_left(table, n)
        return i < len(table) and table[i] == n
    if any(n % a == 0 for a in _MR_BASES):
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def square_class(a) -> tuple[int, int]:
    """A representative r of a nonzero rational's square class, so that
    a / r is a rational square, and the cofactor that r leaves unfactored:
    1 when r is certified squarefree.

    For n = |numerator * denominator|, trial division by a sieved table
    keeps the primes that occur to an odd power and stops at the first
    prime p with p^3 above the cofactor C.  The table is the smallest that
    holds a prime above n^(1/3), or the whole one, so the division stops
    where it would with every prime below TRIAL_DIVISION_LIMIT.  Every
    prime factor of C is then at least p, so above C^(1/3), and C < p^3 <
    TRIAL_DIVISION_LIMIT**3; when the table runs out first, every one is
    above TRIAL_DIVISION_LIMIT.  Either way a C below
    TRIAL_DIVISION_LIMIT**3 has at most two prime factors: it is 1, q, q r
    or q^2, and its squarefree part is 1 when `isqrt` finds it a square and
    C itself otherwise.  Above that bound C is certified when it is a
    square or a prime by the deterministic Miller-Rabin test; any other C
    stays whole in r and is returned as the cofactor."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("0 has no square class")
    n = a.numerator * a.denominator
    rep, c = (-1 if n < 0 else 1), abs(n)
    # 2^(bits - 1) > c^(1/3), so by Bertrand's postulate the table below
    # 2^bits holds a prime p with p^3 > c unless it is the whole table
    # (conditionals, not min and max: those cost a verdict about 2 us)
    bits = (c.bit_length() + 2) // 3 + 1
    for p in _prime_table(_TABLE_MIN_BITS if bits < _TABLE_MIN_BITS else
                          bits if bits < _TABLE_MAX_BITS else _TABLE_MAX_BITS):
        if p * p * p > c:
            break
        if c % p == 0:
            e = 0
            while c % p == 0:
                c //= p
                e += 1
            if e & 1:
                rep *= p
    if isqrt(c) ** 2 == c:
        return rep, 1
    certified = c < TRIAL_DIVISION_LIMIT**3 or (
        c < _MR_DETERMINISTIC_BELOW and _is_probable_prime(c))
    return rep * c, 1 if certified else c


def squarefree_part(a) -> int:
    """The squarefree integer representing a rational's square class, or a
    ResourceLimitError where `square_class` leaves a cofactor unfactored."""
    rep, cofactor = square_class(a)
    if cofactor != 1:
        raise ResourceLimitError(
            f"refusing to factor a {cofactor.bit_length()}-bit cofactor "
            f"(> {TRIAL_DIVISION_LIMIT**3})"
        )
    return rep
