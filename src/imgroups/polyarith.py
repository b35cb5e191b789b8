"""Exact integer polynomial arithmetic for the iterates of 2/(x-1)^2.

The n-th iterate of the map is g_n/h_n with

    g_1 = 2,  h_1 = (x-1)^2,
    g_n = 2*h_{n-1}^2,  h_n = (g_{n-1} - h_{n-1})^2,

so both have degree 2**n for n >= 2, with leading coefficients 2 and 1.
Everything here is exact: resultants come from the subresultant remainder
sequence over the integers, independently cross-checkable against a
CRT/modular route, and discriminants in the parameter t are recovered by
evaluating at integer nodes and interpolating.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod
from typing import Optional

from .errors import (
    BadPrimeError,
    ExcludedBasePointError,
    ResourceLimitError,
    ShapeViolationError,
)

# squarefree_part: trial division limit, then certified general methods
TRIAL_DIVISION_LIMIT = 10**6
GENERAL_FACTOR_LIMIT = 10**18


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
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

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

    def divexact(self, other: "IntPoly") -> "IntPoly":
        """Exact polynomial division; raises ValueError if inexact."""
        if other.is_zero:
            raise ValueError("division by the zero polynomial")
        rem = list(self.coeffs)
        db = other.degree()
        quo = [0] * max(len(rem) - db, 1)
        while len(rem) - 1 >= db and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < db:
                break
            q, r = divmod(rem[-1], other.lc)
            if r:
                raise ValueError("inexact polynomial division")
            pos = len(rem) - 1 - db
            quo[pos] = q
            for i, c in enumerate(other.coeffs):
                rem[pos + i] -= q * c
        if any(rem):
            raise ValueError("inexact polynomial division")
        return IntPoly(quo)

    def to_text(self) -> str:
        """Space-separated decimal coefficients, constant term first."""
        return " ".join(str(c) for c in self.coeffs) if self.coeffs else "0"

    @classmethod
    def from_text(cls, text: str) -> "IntPoly":
        try:
            return cls([int(tok) for tok in text.split()])
        except ValueError:
            raise ValueError(f"malformed polynomial text {text!r}") from None


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
        g3 = [c % 3 for c in self.g.coeffs]
        h3 = [c % 3 for c in self.h.coeffs]
        if _deg(_gf_gcd(g3, h3, 3)) != 0:
            raise ValueError(f"iterate {self.n}: g and h are not coprime")
        if self.n >= 2:
            d = 1 << self.n
            if self.g.degree() != d or self.h.degree() != d:
                raise ValueError(f"iterate {self.n}: wrong degrees")
            if self.g.lc != 2 or self.h.lc != 1:
                raise ValueError(f"iterate {self.n}: wrong leading coefficients")


@lru_cache(maxsize=None)
def iterate_pair(n: int) -> IterateFraction:
    if not 1 <= n <= 8:
        raise ValueError(f"iterate level {n} out of range 1..8")
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
        raise ArithmeticError("inexact division in subresultant sequence")
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


@lru_cache(maxsize=None)
def _big_prime(i: int) -> int:
    """The i-th prime above 2^62, counting from 0."""
    n = _big_prime(i - 1) + 2 if i else (1 << 62) + 1
    while not _is_probable_prime(n):
        n += 2
    return n


def resultant_modular(p: IntPoly, q: IntPoly) -> int:
    """The same resultant through reductions mod large primes and CRT.

    Kept as an independent route: the two algorithms must agree, and the
    discriminant interpolation is spot-checked against this one.
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
    bound = _resultant_bound(a, b)
    acc, modulus = 0, 1
    idx = 0
    while modulus <= 2 * bound:
        pr = _big_prime(idx)
        idx += 1
        if a[-1] % pr == 0 or b[-1] % pr == 0:
            continue
        rp = _gf_resultant([c % pr for c in a], [c % pr for c in b], pr)
        # combine: acc' = acc (mod modulus), = rp (mod pr)
        t = (rp - acc) * pow(modulus, -1, pr) % pr
        acc += modulus * t
        modulus *= pr
    return acc - modulus if acc > modulus // 2 else acc


# -- GF(p) helpers (dense lists, constant first) ------------------------------


def _gf_rem(a: list[int], b: list[int], p: int) -> list[int]:
    db = _deg(b)
    inv = pow(b[-1], -1, p)
    r = _strip([c % p for c in a])
    while r and _deg(r) >= db:
        coef = r[-1] * inv % p
        pos = _deg(r) - db
        for i, bc in enumerate(b):
            r[pos + i] = (r[pos + i] - coef * bc) % p
        _strip(r)
    return r


def _gf_quo(a: list[int], b: list[int], p: int) -> list[int]:
    db = _deg(b)
    inv = pow(b[-1], -1, p)
    r = _strip([c % p for c in a])
    quo = [0] * max(len(r) - db, 1)
    while r and _deg(r) >= db:
        coef = r[-1] * inv % p
        pos = _deg(r) - db
        quo[pos] = coef
        for i, bc in enumerate(b):
            r[pos + i] = (r[pos + i] - coef * bc) % p
        _strip(r)
    return _strip(quo)


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = _strip([c % p for c in a])
    b = _strip([c % p for c in b])
    while b:
        a, b = b, _gf_rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _gf_pack(coeffs: list[int], width: int) -> int:
    """Kronecker substitution: coefficient i in bytes [i*width, (i+1)*width)."""
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs),
                          "little")


def _gf_unpack(v: int, slots: int, width: int, p: int) -> list[int]:
    raw = v.to_bytes(slots * width, "little")
    return [int.from_bytes(raw[i:i + width], "little") % p
            for i in range(0, slots * width, width)]


def _gf_mulmod_packed(a: int, b: int, fold: list[int], width: int,
                      p: int) -> int:
    """a*b mod f for packed a, b of degree < n = len(fold) + 1; fold[k] is
    x^(n+k) mod f packed.  One big-int multiply, then the high slots are
    reduced mod p and folded back onto the low ones."""
    n = len(fold) + 1
    full = a * b
    acc = full & ((1 << 8 * width * n) - 1)
    for c, row in zip(_gf_unpack(full >> 8 * width * n, n - 1, width, p), fold):
        acc += c * row
    return _gf_pack(_gf_unpack(acc, n, width, p), width)


def _gf_resultant(a: list[int], b: list[int], p: int) -> int:
    res = 1
    da, db = _deg(a), _deg(b)
    if da < db:
        if da & db & 1:
            res = p - 1
        a, b, da, db = b, a, db, da
    while db > 0:
        r = _gf_rem(a, b, p)
        if not r:
            return 0
        dr = _deg(r)
        res = res * pow(b[-1], da - dr, p) % p
        if da & db & 1:
            res = (p - res) % p
        a, b, da, db = b, r, db, dr
    return res * pow(b[0], da, p) % p


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


def _interpolate_int(xs: list[int], ys: list[int]) -> IntPoly:
    """Exact interpolation through integer points; asserts integrality."""
    m = len(xs)
    coef = [Fraction(y) for y in ys]
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [Fraction(0)] * m
    basis = [Fraction(1)]
    for i in range(m):
        for k in range(len(basis)):
            poly[k] += coef[i] * basis[k]
        nxt = [Fraction(0)] * (len(basis) + 1)
        for k, c in enumerate(basis):
            nxt[k] -= xs[i] * c
            nxt[k + 1] += c
        basis = nxt
    out = []
    for c in poly:
        if c.denominator != 1:  # pragma: no cover - nodes are distinct ints
            raise ArithmeticError("interpolation produced a non-integer")
        out.append(c.numerator)
    return IntPoly(out)


def _disc_direct(F: IntPoly) -> int:
    d = F.degree()
    res = resultant_modular(F, F.derivative())
    sign = -1 if (d * (d - 1) // 2) & 1 else 1
    return sign * _divexact_int(res, F.lc)


def discriminant_shape(n: int) -> DiscriminantShape:
    """Factor disc_x(g_n - t*h_n) as sign * 2^c * t^a * (2-t)^b.

    The resultant Res_x(F, dF/dx) is a polynomial of degree < 2*2^n in t;
    it is recovered by evaluating at 2*2^n integer nodes (skipping nodes
    where the leading coefficient in x vanishes, so the Sylvester shape is
    the generic one) and interpolating exactly.  Two extra evaluations
    through the independent modular-resultant route guard the whole
    pipeline.
    """
    if not 1 <= n <= 5:
        raise ValueError(f"discriminant level {n} out of range 1..5")
    fr = iterate_pair(n)
    g, h = fr.g, fr.h
    d = 1 << n
    gd = g.coeffs[d] if g.degree() >= d else 0
    hd = h.coeffs[d] if h.degree() >= d else 0
    lc_t = IntPoly([gd, -hd])  # leading x-coefficient, as a polynomial in t

    def lead(tau: int) -> int:
        return gd - tau * hd

    nodes = []
    tau = 0
    while len(nodes) < 2 * d:
        if lead(tau) != 0:
            nodes.append(tau)
        tau += 1
    values = []
    for tau in nodes:
        F = g - h.scale(tau)
        values.append(resultant(F, F.derivative()))
    big_r = _interpolate_int(nodes, values)
    sign = -1 if (d * (d - 1) // 2) & 1 else 1
    if sign < 0:
        big_r = -big_r
    try:
        delta = big_r.divexact(lc_t)
    except ValueError:
        raise ShapeViolationError(
            f"level {n}: resultant not divisible by the leading coefficient"
        ) from None

    coeffs = list(delta.coeffs)
    a = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        a += 1
    rest = IntPoly(coeffs)
    b = 0
    two_minus_t = IntPoly([2, -1])
    while rest.degree() > 0:
        try:
            rest = rest.divexact(two_minus_t)
        except ValueError:
            break
        b += 1
    if rest.degree() != 0:
        raise ShapeViolationError(f"level {n}: leftover factor {rest!r}")
    const = rest.coeffs[0]
    mag = abs(const)
    if mag & (mag - 1):
        raise ShapeViolationError(f"level {n}: constant {const} is not +/-2^c")
    shape = DiscriminantShape(n=n, sign=1 if const > 0 else -1,
                              c=mag.bit_length() - 1, a=a, b=b)

    if shape.reconstruct() != delta:  # pragma: no cover - factoring was exact
        raise ShapeViolationError(f"level {n}: reconstruction mismatch")
    # independent spot check through the modular resultant
    for tau in (5, 7):
        if lead(tau) == 0:
            continue
        F = g - h.scale(tau)
        if _disc_direct(F) != delta(tau):
            raise AssertionError(
                f"level {n}: modular cross-check failed at t={tau}"
            )
    return shape


# -- specialization and factorization mod p ------------------------------------


def specialize_numerator(n: int, a) -> IntPoly:
    """Primitive integer numerator of f^n(x) = a, sign of lc preserved."""
    if not 1 <= n <= 5:
        raise ValueError(f"level {n} out of range 1..5")
    a = Fraction(a)
    if a == 0 or a == 2:
        raise ExcludedBasePointError(f"base point {a} is postcritical")
    fr = iterate_pair(n)
    poly = fr.g.scale(a.denominator) - fr.h.scale(a.numerator)
    return poly.primitive()


def factor_degrees_mod_p(poly: IntPoly, prime: int) -> Optional[tuple[int, ...]]:
    """Degrees of the irreducible factors mod an odd prime, or None.

    None means the reduction is not squarefree (a "bad" prime for
    Frobenius sampling).  Distinct-degree splitting is all that is needed:
    the factors themselves are never computed.

    The p-power map is F_p-linear on F_p[x]/(f), n = deg f, so x^p mod f is
    computed once by square-and-multiply and the rows x^(ip) mod f, i < n,
    form the Frobenius (Berlekamp Q) matrix; each degree step
    h -> h^p mod f is then the matrix-vector product sum h_i * row_i (von
    zur Gathen-Gerhard, Modern Computer Algebra, ch. 14).  h stays reduced
    mod f: the gcd with the unsplit part reduces it anyway.

    Polynomials are Kronecker-packed into one int each, a byte-aligned slot
    per coefficient (Harvey, J. Symb. Comp. 2009), so a product is one
    big-int multiply.  A slot holds 2n(p-1)^2, so no slot carries into the
    next: an unreduced product coefficient is at most n(p-1)^2, folding the
    high slots back (each reduced mod p, times x^(n+k) mod f) adds at most
    (n-1)(p-1)^2, and a matrix-vector sum of n rows is at most n(p-1)^2.
    """
    if prime < 3 or not _is_probable_prime(prime):
        raise ValueError(f"{prime} is not an odd prime")
    if poly.is_zero:
        raise ValueError("zero polynomial")
    if poly.lc % prime == 0:
        raise BadPrimeError(f"{prime} divides the leading coefficient")
    f = [c % prime for c in poly.coeffs]
    if _deg(f) == 0:
        return ()
    inv = pow(f[-1], -1, prime)
    f = [c * inv % prime for c in f]
    fprime = _strip([i * c % prime for i, c in enumerate(f)][1:])
    if not fprime or _deg(_gf_gcd(f, fprime, prime)) > 0:
        return None
    n = _deg(f)
    if n == 1:
        return (1,)
    width = ((2 * n * (prime - 1) ** 2).bit_length() + 7) // 8
    fold = []
    r = [-c % prime for c in f[:n]]
    for _ in range(n - 1):
        fold.append(_gf_pack(r, width))
        r = [(c - r[-1] * fc) % prime for c, fc in zip([0] + r[:-1], f)]
    x = 1 << 8 * width
    xp = x
    for bit in bin(prime)[3:]:
        xp = _gf_mulmod_packed(xp, xp, fold, width, prime)
        if bit == "1":
            xp = _gf_mulmod_packed(xp, x, fold, width, prime)
    rows = [1, xp]
    while len(rows) < n:
        rows.append(_gf_mulmod_packed(rows[-1], xp, fold, width, prime))
    degrees: list[int] = []
    work = f
    h = [0, 1]
    d = 0
    while _deg(work) > 0:
        d += 1
        if 2 * d > _deg(work):
            degrees.append(_deg(work))
            break
        h = _gf_unpack(sum(c * row for c, row in zip(h, rows)), n, width, prime)
        diff = list(h)
        diff[1] = (diff[1] - 1) % prime
        g = _gf_gcd(_strip(diff), work, prime)
        if _deg(g) > 0:
            degrees.extend([d] * (_deg(g) // d))
            work = _gf_quo(work, g, prime)
    return tuple(sorted(degrees, reverse=True))


# -- integer factorization for square classes ----------------------------------


@lru_cache(maxsize=1)
def _small_primes() -> list[int]:
    limit = TRIAL_DIVISION_LIMIT
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def primes_up_to(limit: int) -> list[int]:
    if limit > TRIAL_DIVISION_LIMIT:
        raise ResourceLimitError(
            f"prime table capped at {TRIAL_DIVISION_LIMIT}, asked for {limit}"
        )
    table = _small_primes()
    return table[:bisect_right(table, limit)]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BELOW = 3_317_044_064_679_887_385_961_981


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
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


def _pollard_brent(n: int, rng: random.Random, budget: int) -> Optional[int]:
    if n % 2 == 0:
        return 2
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g, r, q = 1, 1, 1
    spent = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += m
            spent += m
            if spent > budget:
                return None
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
            spent += 1
            if spent > budget:
                return None
    return g if g != n else None


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n > 0; certified, or a resource-limit error."""
    out: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    if n < TRIAL_DIVISION_LIMIT**2 or (
        n < _MR_DETERMINISTIC_BELOW and _is_probable_prime(n)
    ):
        # below the square of the trial bound a survivor is prime
        out[n] = out.get(n, 0) + 1
        return out
    stack = [n]
    rng = random.Random(0xC0FFEE)
    while stack:
        m = stack.pop()
        if m < _MR_DETERMINISTIC_BELOW and _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        if m > GENERAL_FACTOR_LIMIT:
            raise ResourceLimitError(
                f"refusing to factor {m} (> {GENERAL_FACTOR_LIMIT})"
            )
        d = None
        for _ in range(8):
            d = _pollard_brent(m, rng, budget=1 << 22)
            if d:
                break
        if not d:
            raise ResourceLimitError(f"factoring budget exhausted on {m}")
        stack.extend((d, m // d))
    return out


def square_class_primes(a) -> tuple[int, tuple[int, ...]]:
    """Sign and odd-exponent primes of a nonzero rational, from one
    factorization; together they name its square class."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("0 has no square class")
    n = a.numerator * a.denominator
    primes = tuple(sorted(p for p, e in _factorize(abs(n)).items() if e & 1))
    return (-1 if n < 0 else 1), primes


def squarefree_part(a) -> int:
    """The squarefree integer representing a rational's square class."""
    sign, primes = square_class_primes(a)
    return sign * prod(primes)
