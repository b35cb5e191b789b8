"""Independent reference implementations used to cross-check the library.

Everything in this file recomputes results from first principles with
deliberately different algorithms and data layouts (binary strings for
tree nodes, Fraction matrices for resultants, floating point roots for
discriminants).  Nothing here imports library internals but the CRT
route: only public constructors, the public closure and generating sets
for the model's Schreier orbit walk and, for the full discriminant
interpolation, the public subresultant `resultant`, so agreement between
the two routes is meaningful.  The full-degree `disc_direct` runs the
CRT route (`_crt_resultant` over `_big_moduli()`, with the Hadamard
`_resultant_bound`) under its own Mahler bound: the library takes every
discriminant by the subresultant, so that route is the independent one.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import mpmath

from imgroups import (
    IntPoly,
    LevelGroup,
    ModelConstructionError,
    ResourceLimitError,
    build_model,
    builtin_system_f,
    closure,
    generating_set,
    geometric_group,
    identity,
    iterate_pair,
    pair,
    resultant,
    sigma,
    subgroup_U,
)
from imgroups import polyarith


# -- tree automorphisms as node-string actions ------------------------------

def bfs_nodes(level: int) -> list[str]:
    """Internal nodes as binary strings, breadth first, root first."""
    out = [""] if level else []
    for depth in range(1, level):
        out.extend("".join(bits) for bits in itertools.product("01", repeat=depth))
    return out


def swap_dict(swaps, level: int) -> dict[str, int]:
    nodes = bfs_nodes(level)
    if len(nodes) != len(swaps):
        raise ValueError(f"{len(swaps)} swap bits for {len(nodes)} nodes")
    return dict(zip(nodes, swaps))


def act_on_word(swaps, level: int, word: str) -> str:
    """Image of a node word: each letter is flipped by the bit stored at
    the source prefix above it."""
    return _act(swap_dict(swaps, level), word)


def _act(table: dict[str, int], word: str) -> str:
    out = []
    for i, ch in enumerate(word):
        prefix = word[:i]
        bit = int(ch) ^ table.get(prefix, 0)
        out.append(str(bit))
    return "".join(out)


def leaf_permutation(swaps, level: int) -> list[int]:
    perm = []
    for leaf in range(1 << level):
        word = format(leaf, f"0{level}b")
        perm.append(int(act_on_word(swaps, level, word), 2))
    return perm


def perm_from_swaps_reference(level: int, swaps) -> bytes:
    """Leaf permutation from breadth-first swap bits by walking them depth
    by depth: each vertex's image has two children, swapped when the
    vertex's bit is set."""
    img = [0]
    for depth in range(level):
        width = 1 << depth
        nxt = []
        for k, bit in zip(img, swaps[width - 1 : 2 * width - 1]):
            k <<= 1
            nxt += (k + 1, k) if bit else (k, k + 1)
        img = nxt
    return bytes(img)


def compose_swaps(u, v, level: int) -> tuple[int, ...]:
    """Portrait bits of "u then v", recovered from the composite action."""
    tu, tv = swap_dict(u, level), swap_dict(v, level)

    def act(word: str) -> str:
        return _act(tv, _act(tu, word))

    bits = []
    for node in bfs_nodes(level):
        image_child = act(node + "0")
        bits.append(int(image_child[-1]))
    return tuple(bits)


def invert_swaps(u, level: int) -> tuple[int, ...]:
    table = swap_dict(u, level)
    bits = []
    for node in bfs_nodes(level):
        # the inverse swaps at the image node whatever u swapped at the source
        source = _preimage_of_node(table, node)
        bits.append(table[source])
    return tuple(bits)


def _preimage_of_node(table: dict[str, int], node: str) -> str:
    out = []
    for i, ch in enumerate(node):
        prefix = "".join(out)
        out.append(str(int(ch) ^ table[prefix]))
    return "".join(out)


def closure_of_swaps(generators, level: int, cap: int = 1 << 14) -> set:
    """Plain breadth-first closure over portrait bit tuples."""
    frontier = {tuple(g) for g in generators}
    seen = set(frontier)
    while frontier:
        new = set()
        for u in frontier:
            for g in generators:
                w = compose_swaps(u, tuple(g), level)
                if w not in seen:
                    seen.add(w)
                    new.add(w)
                if len(seen) > cap:
                    raise RuntimeError("oracle closure exceeded cap")
        frontier = new
    return seen


def cycle_type_of_perm(perm) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        size, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


def perm_parity(perm) -> int:
    """+1 even, -1 odd."""
    flips = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                if perm[i] > perm[j])
    return -1 if flips & 1 else 1


def conjugate_by_recursion(u, v) -> bool:
    """Conjugacy of two portraits in the full automorphism group of their
    level, by the pairwise wreath recursion: the root swaps must match;
    below a trivial root the section pairs must be conjugate in one of the
    two orders, and below a swapping root the products of the sections
    must be conjugate.  Pairs are memoized for the length of one call."""
    if u.level != v.level:
        raise ValueError(f"level mismatch: {u.level} vs {v.level}")
    memo = {}

    def conj(u, v) -> bool:
        if u.level == 0 or u == v:
            return True
        u1, u2, root = u.sections()
        v1, v2, v_root = v.sections()
        if root != v_root:
            return False
        key = (u.perm, v.perm) if u.perm < v.perm else (v.perm, u.perm)
        if key not in memo:
            if root == 0:
                memo[key] = ((conj(u1, v1) and conj(u2, v2))
                             or (conj(u1, v2) and conj(u2, v1)))
            else:
                memo[key] = conj(u1 * u2, v1 * v2)
        return memo[key]

    return conj(u, v)


# -- the arithmetic model: candidate filter, orbit walk, affine maps ---------

def normalizes(m, groups) -> bool:
    """True iff conjugating the recorded generators of each group by m,
    as portrait products m^-1 g m, stays in that group."""
    mi = m.inverse()
    return all(mi * g * m in H for H in groups for g in H.generators)


def lift_filter_model(level: int) -> frozenset:
    """Leaf permutations of the level model, testing every lift candidate
    on its own.

    A candidate (x, rho*x)tau, with x in the previous model, rho in the
    previous twist subgroup and tau a root swap, is kept iff conjugating
    the recorded generators of G and U at this level by it stays in G and U.
    """
    groups = geometric_group(level), subgroup_U(level)
    kept = set()
    for x in build_model(level - 1).group:
        for rho in subgroup_U(level - 1):
            for t in (0, 1):
                m = pair(x, rho * x, t)
                if normalizes(m, groups):
                    kept.add(m.perm)
    return frozenset(kept)


@functools.lru_cache(maxsize=None)
def schreier_model(level: int) -> LevelGroup:
    """The level model found by a search: the stabilizer of (G, U) under
    conjugation among the lift candidates (x, rho*x)tau, x in this
    oracle's own model one level down, rho in the twist subgroup U one
    level down and tau a root swap, with its Schreier generators recorded
    in the order found.

    The walk runs over the orbit of (G, U) with a transversal: t*c, for a
    transversal element t and a lift c, lands on the point of u iff the
    Schreier generator t*c*u^-1 normalizes both groups.  The points lie in
    distinct cosets N*u of the normalizer N, so at most one u matches.
    Every u is first scanned for a member of the stabilizer built so far,
    which needs no normalizer test; a hit is the u that the in-order test
    would pick.  The orbit times the stabilizer must count the 2 |M| |U|
    candidates, and the stabilizer must hold G: ModelConstructionError
    otherwise, and at once when the stabilizer outgrows the candidates.
    """
    if level == 1:
        return LevelGroup(1, [identity(1).perm, sigma(1).perm], (sigma(1),))
    prev, twist = schreier_model(level - 1), subgroup_U(level - 1)
    groups = geometric_group(level), subgroup_U(level)
    lifts = ([pair(x, x, 0) for x in generating_set(prev)]
             + [pair(identity(level - 1), r, 0) for r in generating_set(twist)]
             + [sigma(level)])
    candidates = 2 * len(prev) * len(twist)
    transversal = [identity(level)]
    backs = [identity(level)]  # x * backs[i] is x * transversal[i]^-1
    gens = []
    stab = LevelGroup(level, [identity(level).perm])
    for t in transversal:  # grows while it is walked
        for c in lifts:
            tc = t * c
            if any(tc * b in stab for b in backs):
                continue
            s = next((s for s in (tc * b for b in backs)
                      if normalizes(s, groups)), None)
            if s is None:
                transversal.append(tc)
                backs.append(tc.inverse())
                continue
            gens.append(s)
            try:
                stab = closure(gens, max_size=candidates)
            except ResourceLimitError:
                raise ModelConstructionError(
                    f"level {level}: stabilizer times orbit "
                    f"{len(transversal)} exceeds {candidates}") from None
    if len(stab) * len(transversal) != candidates:
        raise ModelConstructionError(f"level {level}: stabilizer times orbit "
                                     f"{len(transversal)} is not {candidates}")
    if not groups[0].elements <= stab.elements:
        raise ModelConstructionError(
            f"level {level}: geometric elements dropped")
    return LevelGroup(level, stab.elements, gens)


def affine_model(level: int) -> frozenset:
    """Leaf permutations of the maps x -> u x + tau and x -> u conj(x) + tau
    of Z[i]/(1+i)^n, u a unit, in the coordinate that puts the residue of
    s + ti at the leaf gamma1^s gamma2^t(0).

    The residues are s + ti with 0 <= s < 2^ceil(n/2), 0 <= t < 2^floor(n/2),
    and the units those with s + t odd; the products are taken in Z[i] and
    read back through the powers of gamma1 and gamma2, whose orders divide
    2^n.  Duplicate maps (n <= 2, where conj is trivial) collapse in the set.
    """
    sysf = builtin_system_f()
    g1, g2 = (sysf.unfold(w, level).leaf_permutation()
              for w in ("gamma1", "gamma2"))
    size = 1 << level
    leaf_at = [[0] * size for _ in range(size)]  # leaf_at[s][t]
    for s in range(size):
        if s:
            leaf_at[s][0] = g1[leaf_at[s - 1][0]]
        for t in range(1, size):
            leaf_at[s][t] = g2[leaf_at[s][t - 1]]
    reps = [(s, t) for s in range(1 << (level + 1) // 2)
            for t in range(1 << level // 2)]
    coord = {leaf_at[s][t]: (s, t) for s, t in reps}
    if len(coord) != size:
        raise RuntimeError(f"level {level}: residues do not cover the leaves")
    leaves = [coord[x] for x in range(size)]
    maps = set()
    for ua, ub in reps:
        if (ua + ub) % 2 == 0:
            continue
        for ta, tb in reps:
            for sign in (1, -1):
                maps.add(bytes(
                    leaf_at[(ua * s - ub * sign * t + ta) % size]
                           [(ua * sign * t + ub * s + tb) % size]
                    for s, t in leaves))
    return frozenset(maps)


# -- integer polynomials -------------------------------------------------------

def poly_mul(a, b) -> tuple[int, ...]:
    """Schoolbook product of coefficient sequences, constant term first,
    with trailing zeros dropped; the zero polynomial is ()."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# -- resultants and discriminants over Q -------------------------------------

def sylvester_resultant(f, g) -> Fraction:
    """Determinant of the Sylvester matrix, Fraction Gaussian elimination.

    f and g are coefficient sequences, constant term first.
    """
    fc = [Fraction(c) for c in f]
    gc = [Fraction(c) for c in g]
    while fc and fc[-1] == 0:
        fc.pop()
    while gc and gc[-1] == 0:
        gc.pop()
    m, n = len(fc) - 1, len(gc) - 1
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        return fc[0] ** n
    if n == 0:
        return gc[0] ** m
    size = m + n
    rows = []
    frev, grev = fc[::-1], gc[::-1]
    for i in range(n):
        rows.append([Fraction(0)] * i + frev + [Fraction(0)] * (n - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + grev + [Fraction(0)] * (m - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def discriminant_via_sylvester(f) -> Fraction:
    fc = [Fraction(c) for c in f]
    while fc and fc[-1] == 0:
        fc.pop()
    d = len(fc) - 1
    deriv = [i * fc[i] for i in range(1, d + 1)]
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * sylvester_resultant(fc, deriv) / fc[-1]


def mahler_bound(F: IntPoly) -> int:
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
        r = math.isqrt(root)
        root = r + (r * r < root)
    return abs(F.lc) * d**d * root


def disc_direct(F: IntPoly) -> int:
    """disc_x(F) at full degree through the library's CRT route, with no
    subresultant: Res(F, F') by `_crt_resultant` over the sieved moduli
    above 2^62, its CRT sized by the smaller of the Hadamard and the
    Mahler bound.  `discriminant_shape`'s guard takes disc of the
    half-degree P by the subresultant, so this is a third opinion on its
    identity.  A linear F gets disc 1."""
    d = F.degree()
    a, b = list(F.coeffs), list(F.derivative().coeffs)
    bound = min(polyarith._resultant_bound(a, b), mahler_bound(F))
    res = polyarith._crt_resultant(a, b, bound, polyarith._big_moduli())
    sign = -1 if (d * (d - 1) // 2) & 1 else 1
    quo, rem = divmod(res, F.lc)
    if rem:
        raise ArithmeticError("Res(F, F') is not divisible by lc(F)")
    return sign * quo


def resultant_via_roots(f, g, dps: int = 60) -> complex:
    """lc(f)^deg(g) * prod g(roots of f), numerically."""
    with mpmath.workdps(dps):
        fr = [mpmath.mpf(c) for c in reversed(f)]
        roots = mpmath.polyroots(fr, maxsteps=200, extraprec=200)
        acc = mpmath.mpf(f[-1]) ** (len(g) - 1)
        for r in roots:
            acc *= mpmath.polyval([mpmath.mpf(c) for c in reversed(g)], r)
        return complex(acc)


def discriminant_by_full_interpolation(n: int) -> tuple[int, ...]:
    """disc_x(g_n - t*h_n) as integer coefficients in t, constant first.

    R(t) = Res_x(F, F') for F = g_n - t*h_n has degree < 2d in t, d = 2^n.
    It is evaluated with the library's subresultant `resultant` at the
    first 2d integer nodes t >= 0 where the leading x-coefficient
    lc_t = g_d - t*h_d does not vanish, interpolated by Lagrange's formula
    over one common integer denominator, divided by lc_t and signed by
    (-1)^(d(d-1)/2).  No factorization of F or of R is used.
    """
    fr = iterate_pair(n)
    g, h = fr.g, fr.h
    d = 1 << n
    gd = g.coeffs[d] if len(g.coeffs) > d else 0
    hd = h.coeffs[d]
    nodes = [t for t in range(4 * d + 1) if gd - t * hd][:2 * d]
    values = []
    for t in nodes:
        F = g - h.scale(t)
        values.append(resultant(F, F.derivative()))
    big_r = _lagrange_int(nodes, values)
    quo = _divide_exact(big_r, [gd, -hd])
    sign = -1 if (d * (d - 1) // 2) & 1 else 1
    return tuple(sign * c for c in quo)


def _lagrange_int(xs: list[int], ys: list[int]) -> list[int]:
    """The integer polynomial through the points, constant first."""
    master = [1]  # prod (t - x_i)
    for x in xs:
        master = [0] + master
        for k in range(len(master) - 1):
            master[k] -= x * master[k + 1]
    dens = [math.prod(xi - xj for xj in xs if xj != xi) for xi in xs]
    common = math.lcm(*dens)
    acc = [0] * len(xs)
    for xi, yi, den in zip(xs, ys, dens):
        # master / (t - xi) by synthetic division, top coefficient first
        basis, carry = [], 0
        for c in reversed(master[1:]):
            carry = c + xi * carry
            basis.append(carry)
        weight = yi * (common // den)
        for k, c in enumerate(reversed(basis)):
            acc[k] += weight * c
    if any(c % common for c in acc):
        raise ArithmeticError("non-integer interpolant")
    out = [c // common for c in acc]
    while out and out[-1] == 0:
        out.pop()
    return out


def _divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials, constant first."""
    rem = [Fraction(c) for c in num]
    quo = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(quo) - 1, -1, -1):
        quo[k] = rem[k + len(den) - 1] / den[-1]
        for i, c in enumerate(den):
            rem[k + i] -= quo[k] * c
    if any(rem) or any(q.denominator != 1 for q in quo):
        raise ArithmeticError("inexact")
    return [int(q) for q in quo]


def gf_resultant_reference(a, b, p: int) -> int:
    """Res(a, b) mod p for coefficient lists reduced mod p with nonzero
    leading coefficients, by the Euclidean remainder sequence on dense
    lists: Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r)
    for r = a mod b."""
    res = 1
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        if da & db & 1:
            res = p - 1
        a, b, da, db = b, a, db, da
    while db > 0:
        r = _gf_rem(a, b, p)
        if not r:
            return 0
        dr = len(r) - 1
        res = res * pow(b[-1], da - dr, p) % p
        if da & db & 1:
            res = (p - res) % p
        a, b, da, db = b, r, db, dr
    return res * pow(b[0], da, p) % p


# -- elementary number theory -------------------------------------------------

def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def squarefree_part_slow(n: int) -> int:
    """Trial division only; fine for the small values tests feed it."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e & 1:
            out *= d
        d += 1
    return sign * out * n


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p < hi, by a plain sieve of Eratosthenes."""
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\x00\x00"
    for d in range(2, math.isqrt(hi - 1) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, hi, d)))
    return [p for p in range(max(lo, 2), hi) if sieve[p]]


# below this the first twelve prime bases decide Miller-Rabin (Sorenson and
# Webster, 2017): the only cofactors square_class certifies as prime
MR_TWELVE_BASES_BELOW = 3_317_044_064_679_887_385_961_981


def square_class_by_trial_division(a, primes) -> tuple[int, int]:
    """`square_class` by plain trial division: every prime of primes (all
    those below 10^6) up to the square root of what is left is divided out
    in full.  What is left, C, is then 1, a prime, or free of prime factors
    below 10^6, so below 10^18 it is 1, q, q^2 or q r and its square class
    is certified; above, it is certified when a square or a prime (mpmath's
    own strong-pseudoprime test at odd bases 3..47) below
    MR_TWELVE_BASES_BELOW, and otherwise returned as the cofactor."""
    a = Fraction(a)
    n = a.numerator * a.denominator
    rep, c = (-1 if n < 0 else 1), abs(n)
    for p in primes:
        if p * p > c:
            break
        e = 0
        while c % p == 0:
            c //= p
            e += 1
        rep *= p ** (e & 1)
    if math.isqrt(c) ** 2 == c:
        return rep, 1
    certified = c < 10**18 or (c < MR_TWELVE_BASES_BELOW
                               and mpmath.libmp.isprime(c))
    return rep * c, 1 if certified else c


def sqrt_mod_p(a: int, p: int) -> int:
    """A square root of a nonzero quadratic residue a mod an odd prime p
    (Tonelli-Shanks)."""
    a %= p
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def preimage_split_counts(a: int, max_level: int, primes) -> list[int]:
    """For k = 1..max_level, how many of the primes split f^k(x) = a
    completely into 2^k distinct roots mod p, f(x) = 2/(x-1)^2.

    The preimage tree is walked directly in F_p: a value c has two
    distinct finite preimages x = 1 +- sqrt(2/c) exactly when 2c is a
    nonzero square, and distinct values have disjoint preimages.  At a
    prime unramified in the splitting field, complete splitting at
    level k means trivial Frobenius in the level-k arboreal group
    G_k(a), so by Chebotarev the share of such primes tends to
    1/|G_k(a)|.  No group is built here.
    """
    counts = [0] * (max_level + 1)
    for p in primes:
        layer = [a % p]
        for k in range(1, max_level + 1):
            nxt = []
            for c in layer:
                if c == 0 or legendre(2 * c, p) != 1:
                    break
                s = sqrt_mod_p(2 * pow(c, p - 2, p), p)
                nxt.append((1 + s) % p)
                nxt.append((1 - s) % p)
            else:
                counts[k] += 1
                layer = nxt
                continue
            break
    return counts[1:]


def roots_mod_p(coeffs, p: int) -> list[int]:
    """All residues where the polynomial vanishes mod p, by evaluation."""
    out = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            out.append(x)
    return out


def stickelberger_factor_parity(disc: int, p: int, degrees) -> bool:
    """Number-of-factors parity against the discriminant's quadratic character.

    For squarefree f mod p of degree d with r irreducible factors,
    (disc(f) | p) == (-1)^(d - r).  disc is the integer discriminant of f,
    e.g. from `discriminant_via_sylvester`, computed once per polynomial.
    """
    chi = legendre(disc % p, p)
    d, r = sum(degrees), len(degrees)
    return chi == (-1) ** (d - r)


# -- distinct-degree splitting by square-and-multiply -------------------------
#
# A second route for factor_degrees_mod_p: every degree step raises h to the
# p-th power modulo the unsplit part by schoolbook square-and-multiply, with
# no Frobenius matrix and no packed products.  Dense lists, constant first.

def _gf_strip(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_rem(a, b, p):
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    r = _gf_strip([c % p for c in a])
    while r and len(r) - 1 >= db:
        coef = r[-1] * inv % p
        pos = len(r) - 1 - db
        for i, bc in enumerate(b):
            r[pos + i] = (r[pos + i] - coef * bc) % p
        _gf_strip(r)
    return r


def _gf_quo(a, b, p):
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    r = _gf_strip([c % p for c in a])
    quo = [0] * max(len(r) - db, 1)
    while r and len(r) - 1 >= db:
        coef = r[-1] * inv % p
        pos = len(r) - 1 - db
        quo[pos] = coef
        for i, bc in enumerate(b):
            r[pos + i] = (r[pos + i] - coef * bc) % p
        _gf_strip(r)
    return _gf_strip(quo)


def _gf_gcd(a, b, p):
    a = _gf_strip([c % p for c in a])
    b = _gf_strip([c % p for c in b])
    while b:
        a, b = b, _gf_rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _gf_mulmod(a, b, f, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _gf_rem(out, f, p)


def _gf_powmod(base, e, f, p):
    result = [1]
    b = _gf_rem(base, f, p)
    while e:
        if e & 1:
            result = _gf_mulmod(result, b, f, p)
        b = _gf_mulmod(b, b, f, p)
        e >>= 1
    return result


def ddf_degrees_reference(coeffs, p: int):
    """Factor degrees of an integer polynomial mod an odd prime p, sorted
    descending, or None when the reduction is not squarefree.

    coeffs are constant term first; the leading one must be a unit mod p.
    """
    if coeffs[-1] % p == 0:
        raise ValueError(f"{p} divides the leading coefficient")
    f = [c % p for c in coeffs]
    if len(f) == 1:
        return ()
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    fprime = _gf_strip([i * c % p for i, c in enumerate(f)][1:])
    if not fprime or len(_gf_gcd(f, fprime, p)) > 1:
        return None
    degrees = []
    work = f
    h = [0, 1]
    d = 0
    while len(work) > 1:
        d += 1
        if 2 * d > len(work) - 1:
            degrees.append(len(work) - 1)
            break
        h = _gf_powmod(h, p, work, p)
        diff = list(h)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _gf_gcd(_gf_strip(diff), work, p)
        if len(g) > 1:
            degrees.extend([d] * ((len(g) - 1) // d))
            work = _gf_quo(work, g, p)
            h = _gf_rem(h, work, p) if len(work) > 1 else h
    return tuple(sorted(degrees, reverse=True))


# -- misc ---------------------------------------------------------------------

def preimages_of(value, branch_plus=True, dps: int = 40):
    """The two solutions of 2/(x-1)^2 = value, via plain arithmetic."""
    with mpmath.workdps(dps):
        root = mpmath.sqrt(mpmath.mpc(2) / value)
        return (1 + root) if branch_plus else (1 - root)


def forward_map(x, dps: int = 40):
    with mpmath.workdps(dps):
        return mpmath.mpc(2) / (mpmath.mpc(x) - 1) ** 2
