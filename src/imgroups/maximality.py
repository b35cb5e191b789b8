"""Level-4 maximality certificates for arboreal Galois groups.

For a rational base point a outside the postcritical set {0, 2}, the
Galois group of the fourth iterated preimage tower embeds (up to
conjugacy) in the level-4 arithmetic model M_4, and it equals the model
as soon as it is contained in no maximal subgroup.  A `maximal` verdict
rules out each of the fifteen maximal subgroups by two independent
routes:

* Frobenius route: at a good prime p the cycle type of Frob_p on the
  sixteen level-4 preimages of a is that of an actual group element.  For
  a = u/v the good primes are the odd p not dividing u v (u - 2v): there
  t = a mod p is not 0, 2 or infinity, so the critical orbit
  1 -> inf -> 0 -> 2 -> 2 of 2/(x-1)^2 misses the level-4 preimage tree
  of t over F_p, which has sixteen distinct leaves.  The cycle type is a
  function of the fibre (p, t) alone, and base points congruent mod p
  share one memoized count.  `_fibre_cycle_type` walks the tree one
  Frobenius orbit at a time, with square tests and square roots in towers
  of quadratic extensions of F_p, and builds no polynomial.

  The leaves are the roots of the specialized level-4 numerator
  (v g_4 - u h_4) / c, whose content c is a power of 2 because
  Res(g_4, h_4) = +-2^k.  Its leading coefficient is (2v - u) / c, and
  homogenizing the shape disc_x(g_4 - t h_4) = +2^272 t^12 (2 - t)^10 of
  `discriminant_shape(4)`, pinned by `tests/test_polyarith.py`, gives its
  discriminant as 2^272 u^12 v^8 (2v - u)^10 / c^30.  So the same primes
  are exactly those where its reduction has full degree and is
  squarefree, and `recheck_certificate` recounts each witness by a second
  algorithm: the factor degrees of that numerator mod p.

  The observation also says which coset of the geometric group G_4 the
  Frobenius lies in.  The level-4 constant field K_4 contains Q(i,
  sqrt(2)) = Q(zeta_8) and has degree |M_4 / G_4| = 4, so K_4 = Q(zeta_8)
  (this rests on the model being the arithmetic monodromy group, with
  G_4 the geometric one).  Frob_p therefore lies in the coset of G_4 that
  p mod 8 names: G_4 itself for p = 1 mod 8, and for the residues 3, 5
  and 7 the cosets that `residue_cosets` pins from observed cycle types.
  The quotient M_4 / G_4 is abelian and every maximal subgroup H is
  normal, so the coset and H meet in a union of conjugacy classes and
  conjugacy ambiguity is harmless: a cycle type missing from H in that
  coset rules H out.

* Square-class route: the level-4 splitting field contains
  Q(i, sqrt(2), sqrt(a), sqrt(2-a)), and the intersection of the
  corresponding four index-2 kernels is exactly the Frattini subgroup of
  the model.  If the four square classes are independent, the group
  surjects onto the rank-4 Frattini quotient, so no maximal subgroup
  (each an index-2 character kernel) can contain it.

Five of the fifteen maximal subgroups realize every cycle type the full
model does, so the plain cycle-type table cannot rule them out; the
residue coset can, and every maximal subgroup gets a prime witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt, prod
from typing import Iterator, Optional

from .arithmodel import ArithLevelModel, build_model, maximal_subgroups
from .errors import (
    ExcludedBasePointError,
    InsufficientDataError,
    ModelInconsistencyError,
    ResourceLimitError,
)
from .polyarith import (
    _is_probable_prime,
    factor_degrees_mod_p,
    primes_up_to,
    specialize_numerator,
    square_class,
)
from .selfsim import quotient
from .treeauto import _cycle_types

DEFAULT_PRIME_BOUND = 10**4
MIN_USABLE_PRIMES = 5
# Largest bit length of a base point's numerator and denominator.  At this
# height the square classes of a random point take about 0.4 s, all of it
# trial division over the prime table, and every square-class part stays
# below Python's 4300-digit limit for printing an int.
BASE_POINT_BITS_CAP = 4096

SQUARE_CLASS_LABELS = ("-1", "2", "a", "2-a")
# `square_class` of -1 and of 2, and the 15 nonempty subsets of the four
# classes as (bit mask, labels), smallest first so that the witness is stable
_CONSTANT_CLASSES = ((-1, 1), (2, 1))
_SUBSETS = tuple((sum(1 << i for i in combo),
                  tuple(SQUARE_CLASS_LABELS[i] for i in combo))
                 for size in range(1, 5)
                 for combo in combinations(range(4), size))


@dataclass(frozen=True)
class BasePoint:
    a: Fraction

    def __post_init__(self):
        if not isinstance(self.a, Fraction):
            object.__setattr__(self, "a", Fraction(self.a))
        if self.a == 0 or self.a == 2:
            raise ExcludedBasePointError(
                f"base point {self.a} is postcritical (0 and 2 are excluded)"
            )
        bits = max(self.a.numerator.bit_length(), self.a.denominator.bit_length())
        if bits > BASE_POINT_BITS_CAP:
            raise ResourceLimitError(f"base point height of {bits} bits exceeds "
                                     f"cap {BASE_POINT_BITS_CAP}")

    @classmethod
    def parse(cls, text: str) -> "BasePoint":
        # Fraction builds 10**exp before any check, so refuse an exponent
        # that leaves more than the cap's bits once its digits are counted
        _, e, exp = text.lower().rpartition("e")
        try:
            huge = bool(e) and abs(int(exp)) > BASE_POINT_BITS_CAP + len(text)
        except ValueError:
            huge = False  # Fraction names the malformed text
        if huge:
            raise ResourceLimitError(
                f"base point height exceeds cap {BASE_POINT_BITS_CAP}: "
                f"exponent too large")
        try:
            value = Fraction(text.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in base point {text!r}") from None
        except ValueError:
            raise ValueError(f"malformed base point {text!r}") from None
        return cls(value)

    def text(self) -> str:
        if self.a.denominator == 1:
            return str(self.a.numerator)
        return f"{self.a.numerator}/{self.a.denominator}"


@dataclass(frozen=True)
class SquareClassReport:
    point: BasePoint
    labels: tuple[str, ...]
    parts: tuple[int, ...]       # class representatives of -1, 2, a, 2-a
    rank: int
    passed: bool
    dependent_subset: Optional[tuple[str, ...]]
    derivation: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "parts": {lab: part for lab, part in zip(self.labels, self.parts)},
            "rank": self.rank,
            "passed": self.passed,
            "dependent_subset": (
                list(self.dependent_subset) if self.dependent_subset else None
            ),
            "derivation": list(self.derivation),
        }


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def square_class_test(point: BasePoint) -> SquareClassReport:
    """Pass iff -1, 2, a, 2-a are independent modulo rational squares.

    A subset is dependent iff the product of its class representatives is
    a square, whether or not `square_class` certified them squarefree, so
    no input is refused.  The dependent subsets with the empty one form
    the kernel of F_2^4 -> Q^x / Q^x2, of order 2^(4 - rank)."""
    a = point.a
    classes = (*_CONSTANT_CLASSES, square_class(a), square_class(2 - a))
    parts = tuple(rep for rep, _ in classes)
    products = [1]  # products[mask]: the product of the parts in the mask
    for part in parts:
        products += [x * part for x in products]
    dependent = [labels for mask, labels in _SUBSETS
                 if _is_square(products[mask])]
    rank = 5 - (1 + len(dependent)).bit_length()
    passed = rank == 4
    heading = ("squarefree parts" if all(c == 1 for _, c in classes) else
               "square-class representatives (a cofactor above 10^18 is "
               "not factored)")
    derivation = (
        "the level-4 splitting field of the iterated preimages of a "
        "contains Q(i, sqrt(2), sqrt(a), sqrt(2-a))",
        "the four corresponding index-2 kernels of the level-4 model "
        "intersect in its Frattini subgroup, so maximality forces the "
        "composite field to have degree 16",
        f"{heading}: " + ", ".join(
            f"{lab} ~ {part}" for lab, part in zip(SQUARE_CLASS_LABELS, parts)
        ),
        (f"classes independent (rank 4): degree 16 attained" if passed else
         f"product over {{{', '.join(dependent[0])}}} is a square: "
         f"the composite collapses below degree 16"),
    )
    return SquareClassReport(
        point=point,
        labels=SQUARE_CLASS_LABELS,
        parts=parts,
        rank=rank,
        passed=passed,
        dependent_subset=dependent[0] if dependent else None,
        derivation=derivation,
    )


@dataclass(frozen=True)
class FrobeniusObservation:
    prime: int
    cycle_type: tuple[int, ...]


def _primes_to(prime_bound: int) -> list[int]:
    """The primes up to the bound, which is checked before any work on a
    point."""
    if prime_bound < 3:
        raise ValueError(f"prime bound {prime_bound} < 3")
    return primes_up_to(prime_bound)


@lru_cache(maxsize=None)
def _shared(cycle_type: tuple[int, ...]) -> tuple[int, ...]:
    """The first equal tuple seen, so that the fibre memo holds one object
    per cycle type; the level-4 model realizes 7."""
    return cycle_type


# -- towers of quadratic extensions of F_p -------------------------------------
#
# An element of F_p(s_1, ..., s_j), where s_i^2 = beta_i and each beta_i is
# a non-square one step down, is an int mod p when j = 0 and otherwise a
# pair (a, b) standing for a + b s_j, with a and b one step down.  `tower`
# is (beta_1, ..., beta_j); the functions take the depth j of their
# arguments and work on plain pairs of ints at depth 1.  Square tests and
# square roots in F_p come from `_roots(p)`.

# Primes below this read square roots and Legendre symbols from a table of
# 2p bytes; every witness prime of the benchmark pool lies below 400.  A
# table costs about p/2 Python steps to build, more than the few fibres of
# a larger prime save, so a higher cutoff makes a cold scan to 10^4 slower.
_ROOT_TABLE_CUTOFF = 1 << 10


@lru_cache(maxsize=None)
def _root_table(p: int) -> memoryview:
    """Entry x is a square root of x mod the odd prime p when x is a
    nonzero square, and 0 otherwise: unsigned 16-bit entries over a
    bytearray, built from the (p - 1) / 2 squares."""
    roots = memoryview(bytearray(2 * p)).cast("H")
    for x in range(1, (p >> 1) + 1):
        roots[x * x % p] = x
    return roots


@lru_cache(maxsize=1 << 15)
def _non_residue(p: int) -> int:
    """The least quadratic non-residue mod the odd prime p."""
    return next(z for z in range(2, p) if pow(z, p >> 1, p) == p - 1)


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the nonzero square a mod the odd prime p: one
    power when p = 3 mod 4, otherwise Tonelli-Shanks with p - 1 = q 2^e,
    q odd.  The walk takes its roots from here at primes from
    _ROOT_TABLE_CUTOFF on, which a full scan to 10^4 reaches, and from
    `_root_table` below."""
    if p & 3 == 3:
        return pow(a, (p + 1) >> 2, p)
    e = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> e
    z = pow(_non_residue(p), q, p)   # of order 2^e
    x, b = pow(a, (q + 1) >> 1, p), pow(a, q, p)  # x^2 = a b, b of order 2^m
    while b != 1:
        m, c = 0, b
        while c != 1:
            c, m = c * c % p, m + 1
        w = pow(z, 1 << (e - m - 1), p)
        z, e = w * w % p, m
        x, b = x * w % p, b * z % p
    return x


def _roots(p: int):
    """(is_square, sqrt) for the odd prime p: a value that is true exactly
    when the nonzero x mod p is a square, and a square root of the nonzero
    square x.  Below _ROOT_TABLE_CUTOFF both read the prime's root table;
    at or above it, Euler's criterion and `_sqrt_mod`."""
    if p < _ROOT_TABLE_CUTOFF:
        lookup = _root_table(p).__getitem__
        return lookup, lookup
    half = p >> 1
    return (lambda x: pow(x, half, p) == 1), (lambda x: _sqrt_mod(x, p))


def _t_add(x, y, j: int, p: int):
    if not j:
        return (x + y) % p
    if j == 1:
        return (x[0] + y[0]) % p, (x[1] + y[1]) % p
    return _t_add(x[0], y[0], j - 1, p), _t_add(x[1], y[1], j - 1, p)


def _t_scale(x, c: int, j: int, p: int):
    if not j:
        return x * c % p
    if j == 1:
        return x[0] * c % p, x[1] * c % p
    return _t_scale(x[0], c, j - 1, p), _t_scale(x[1], c, j - 1, p)


def _t_embed(c: int, j: int):
    """The element c of F_p at depth j."""
    if j < 2:
        return (c, 0) if j else c
    return _t_embed(c, j - 1), _t_embed(0, j - 1)


def _t_mul(x, y, tower: tuple, j: int, p: int):
    if not j:
        return x * y % p
    (a, b), (c, d) = x, y
    if j == 1:  # most products, in plain ints
        return (a * c + tower[0] * b * d) % p, (a * d + b * c) % p
    j -= 1
    bd = _t_mul(tower[j], _t_mul(b, d, tower, j, p), tower, j, p)
    return (_t_add(_t_mul(a, c, tower, j, p), bd, j, p),
            _t_add(_t_mul(a, d, tower, j, p), _t_mul(b, c, tower, j, p), j, p))


def _t_rel_norm(x, tower: tuple, j: int, p: int):
    """a^2 - beta_j b^2, the norm of x = a + b s_j one step down."""
    a, b = x
    if j == 1:
        return (a * a - tower[0] * b * b) % p
    j -= 1
    b2 = _t_mul(tower[j], _t_mul(b, b, tower, j, p), tower, j, p)
    return _t_add(_t_mul(a, a, tower, j, p), _t_scale(b2, p - 1, j, p), j, p)


def _t_norm(x, tower: tuple, j: int, p: int) -> int:
    """The norm of x to F_p."""
    if j == 1:
        a, b = x
        return (a * a - tower[0] * b * b) % p
    while j:
        x, j = _t_rel_norm(x, tower, j, p), j - 1
    return x


def _t_is_square(x, tower: tuple, j: int, p: int, is_square) -> bool:
    """Whether the nonzero x is a square: exactly when its norm to F_p is,
    as N(x)^((p-1)/2) = x^((p^(2^j)-1)/2)."""
    return bool(is_square(_t_norm(x, tower, j, p)))


def _t_inv(x, tower: tuple, j: int, p: int):
    if not j:
        return pow(x, -1, p)
    a, b = x
    if j == 1:
        n = pow((a * a - tower[0] * b * b) % p, -1, p)
        return a * n % p, -b * n % p
    n = _t_inv(_t_rel_norm(x, tower, j, p), tower, j - 1, p)
    return (_t_mul(a, n, tower, j - 1, p),
            _t_scale(_t_mul(b, n, tower, j - 1, p), p - 1, j - 1, p))


def _t_sqrt(x, tower: tuple, j: int, p: int, roots):
    """A square root of the nonzero square x, with `roots` = `_roots(p)`.
    For x = a + b s over K = F_p(s_1, ..., s_(j-1)): with b = 0 it is
    sqrt(a) in K, or sqrt(a / beta) s when a is not a square in K;
    otherwise it is c + d s with c^2 = (a +- r) / 2, r = sqrt(a^2 - beta
    b^2), taking the sign that gives a square in K (their product
    beta b^2 / 4 is not one), and d = b / 2c."""
    is_square, sqrt = roots
    if not j:
        return sqrt(x)
    a, b = x
    if j == 1 and b:  # most roots, in plain ints
        r = sqrt((a * a - tower[0] * b * b) % p)
        half = (p + 1) >> 1
        c2 = (a + r) * half % p
        if not is_square(c2):
            c2 = (a - r) * half % p
        c = sqrt(c2)
        return c, b * pow(2 * c, -1, p) % p
    j -= 1
    if b == _t_embed(0, j):
        if _t_is_square(a, tower, j, p, is_square):
            return _t_sqrt(a, tower, j, p, roots), b
        beta_inv = _t_inv(tower[j], tower, j, p)
        return b, _t_sqrt(_t_mul(a, beta_inv, tower, j, p), tower, j, p, roots)
    r = _t_sqrt(_t_rel_norm(x, tower, j + 1, p), tower, j, p, roots)
    half = (p + 1) >> 1
    c2 = _t_scale(_t_add(a, r, j, p), half, j, p)
    if not _t_is_square(c2, tower, j, p, is_square):
        c2 = _t_add(c2, _t_scale(r, p - 1, j, p), j, p)
    c = _t_sqrt(c2, tower, j, p, roots)
    return c, _t_mul(b, _t_inv(_t_scale(c, 2, j, p), tower, j, p), tower, j, p)


def _preimage_cycle_type(p: int, t: int, n: int) -> tuple[int, ...]:
    """Frobenius orbit sizes on the level-n preimages of t under
    2/(x-1)^2 over F_p, sorted descending, by a walk down the preimage
    tree that keeps one representative y per orbit.

    An orbit of size 2^j is (y, tower) with y generating F_p(s_1, ...,
    s_j) = F_(p^(2^j)).  The children of y are 1 +- s with s^2 = 2/y.  If
    2/y is a square there, they lie in the same field and in two orbits of
    the same size; otherwise they lie in one orbit of twice the size,
    represented by 1 + s_(j+1) with beta_(j+1) = 2/y.  2/y is a square
    exactly when its norm 2^(2^j)/N(y) to F_p is, which is the quadratic
    character of 2 N(y) at j = 0 and of N(y) beyond.  At the last level
    only the sizes are recorded.

    The critical orbit of 2/(x-1)^2 is 1 -> inf -> 0 -> 2 -> 2, so for t
    not 0, 2 or inf mod the odd prime p no vertex of the tree is 0, 1 or
    inf: every y and beta is nonzero, and the two children 1 +- s differ,
    as s != 0 and p is odd.  Orbits of size 1, most of the tree, are
    stepped in plain ints; larger ones through the tower functions."""
    roots = _roots(p)
    is_square, sqrt = roots
    orbits, sizes = [(t % p, ())], []
    for level in range(n):
        last = level == n - 1
        children = []
        for y, tower in orbits:
            j = len(tower)
            if not j:  # 2/y is a square exactly when 2y is
                if last:
                    sizes += (1, 1) if is_square(2 * y % p) else (2,)
                    continue
                beta = 2 * pow(y, -1, p) % p
                if is_square(beta):
                    s = sqrt(beta)
                    children += ((1 + s) % p, tower), ((1 - s) % p, tower)
                else:
                    children.append(((1, 1), (beta,)))
                continue
            split = is_square(_t_norm(y, tower, j, p))
            if last:
                sizes += (1 << j, 1 << j) if split else (2 << j,)
                continue
            beta = _t_scale(_t_inv(y, tower, j, p), 2, j, p)
            one = _t_embed(1, j)
            if split:
                s = _t_sqrt(beta, tower, j, p, roots)
                children.append((_t_add(one, s, j, p), tower))
                children.append(
                    (_t_add(one, _t_scale(s, p - 1, j, p), j, p), tower))
            else:
                children.append(((one, one), tower + (beta,)))
        orbits = children
    return tuple(sorted(sizes, reverse=True))


@lru_cache(maxsize=1 << 15)
def _fibre_cycle_type(p: int, t: int) -> tuple[int, ...]:
    """The Frobenius cycle type over the fibre t mod the odd prime p, for
    t != 0, 2 mod p: the orbit sizes on the level-4 preimages of t, which
    are the roots of g_4 - t h_4 mod p, counted by
    `_preimage_cycle_type` without building or factoring a polynomial.

    An entry takes about 160 B with its cycle type shared (tracemalloc), so
    the 2^15 entries hold at most about 5 MiB; a 192-verdict survey batch
    fills about 930 of them.  The walk's root tables, one per prime below
    _ROOT_TABLE_CUTOFF that it meets, take 2p bytes and about 230 KB for
    all 171 (tracemalloc); such a batch builds about 60, some 40 KB."""
    if p < 3 or not _is_probable_prime(p) or t % p in (0, 2):
        raise ValueError(f"fibre t = {t} mod {p} is not a good fibre: the "
                         f"prime must be odd and t not 0 or 2 mod it")
    return _shared(_preimage_cycle_type(p, t, 4))


def _frobenius_stream(point: BasePoint, primes: list[int]
                      ) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(p, cycle type) at each good prime of the increasing list, counted
    once per fibre (p, a mod p).  For a = u/v the good primes are those not
    dividing 2 u v (u - 2v): 2, the primes of the leading coefficient, the
    fibre over infinity (p | v) and the ramified fibres t = 0 and t = 2
    are skipped."""
    u, v = point.a.numerator, point.a.denominator
    bad = 2 * u * v * (u - 2 * v)
    for p in primes:
        if bad % p == 0:
            continue
        yield p, _fibre_cycle_type(p, u * pow(v, -1, p) % p)


def _require_usable(usable: int, prime_bound: int) -> None:
    if usable < MIN_USABLE_PRIMES:
        raise InsufficientDataError(
            f"only {usable} usable primes below {prime_bound} "
            f"(need {MIN_USABLE_PRIMES})"
        )


def sample_frobenius(point: BasePoint, prime_bound: int
                     ) -> tuple[FrobeniusObservation, ...]:
    """Factorization degree patterns mod the good odd primes up to bound."""
    out = tuple(FrobeniusObservation(p, t) for p, t in
                _frobenius_stream(point, _primes_to(prime_bound)))
    _require_usable(len(out), prime_bound)
    return out


@lru_cache(maxsize=1)
def _level4_data():
    """(coset types, tables) over the cosets of G_4 in M_4, numbered as
    `selfsim.quotient(M4, G4)` numbers them, so that coset 0 is G_4: the
    cycle types realized in each coset c, and for each maximal subgroup H
    those realized in H and c."""
    model = build_model(4)
    reps, index_of, _ = quotient(model.group, model.geometric)
    maxes = maximal_subgroups(model)
    coset_types = [set() for _ in reps]
    tables = {ms.name: [set() for _ in reps] for ms in maxes}
    types = _cycle_types(model.group.elements)
    for x in model.group.elements:
        c, t = index_of[x], types[x]
        coset_types[c].add(t)
        for ms in maxes:
            if x in ms.group.elements:
                tables[ms.name][c].add(t)
    return (tuple(map(frozenset, coset_types)),
            {name: tuple(map(frozenset, sets)) for name, sets in tables.items()})


def cycle_blind_subgroups() -> tuple[str, ...]:
    """Maximal subgroups realizing every cycle type of the model.

    They are blind only to the plain cycle-type table: within the coset of
    G_4 that p mod 8 names, each of them misses some cycle type, so the
    residue coset still gives each a Frobenius witness."""
    coset_types, tables = _level4_data()
    model_types = frozenset().union(*coset_types)
    return tuple(name for name, sets in sorted(tables.items())
                 if frozenset().union(*sets) == model_types)


@dataclass(frozen=True)
class ResidueLabelling:
    """The coset of G_4 in M_4 that holds Frob_p, as a function of p mod 8.

    `cosets[r]` is the coset index for an odd residue r and None for an
    even one; `witnesses` are the observations over base point 5 that
    pinned the residues 5 and 7."""
    cosets: tuple[Optional[int], ...]
    witnesses: tuple[FrobeniusObservation, ...]

    def coset(self, prime: int) -> int:
        c = self.cosets[prime % 8]
        if c is None:
            raise ValueError(f"{prime} is not an odd prime: no residue coset")
        return c


@lru_cache(maxsize=1)
def residue_cosets() -> ResidueLabelling:
    """Label the cosets of G_4 by residues mod 8, assuming K_4 = Q(zeta_8)
    (see the module docstring).

    A prime p = 1 mod 8 splits completely in Q(zeta_8), so its Frobenius
    lies in G_4, coset 0.  Residues and cosets correspond one to one, as
    Gal(Q(zeta_8)/Q) and M_4 / G_4 do, so each of the residues 5 and 7
    lies in one of the other three cosets; it is pinned by intersecting the
    cosets that realize the cycle types observed at primes of that residue
    over the one fibre of base point 5.  Residue 3 takes the remaining
    coset.  The first call counts about 25 fibres."""
    coset_types, _ = _level4_data()
    others = set(range(1, len(coset_types)))
    fits = {5: others, 7: others}
    witnesses = []
    for p, t in _frobenius_stream(BasePoint(Fraction(5)),
                                  primes_up_to(DEFAULT_PRIME_BOUND)):
        fit = fits.get(p % 8)
        if fit is None or len(fit) == 1:
            continue
        narrowed = {c for c in fit if t in coset_types[c]}
        if narrowed != fit:
            fits[p % 8] = narrowed
            witnesses.append(FrobeniusObservation(p, t))
        if all(len(f) == 1 for f in fits.values()):
            break
    rest = others - fits[5] - fits[7]
    if not len(fits[5]) == len(fits[7]) == len(rest) == 1:
        raise ModelInconsistencyError(
            f"residues mod 8 do not label the {len(coset_types)} cosets of "
            f"G_4 one to one (residue 5 fits {sorted(fits[5])}, residue 7 "
            f"fits {sorted(fits[7])}); K_4 = Q(zeta_8) is violated")
    cosets: list[Optional[int]] = [None] * 8
    cosets[1] = 0
    (cosets[3],), (cosets[5],), (cosets[7],) = rest, fits[5], fits[7]
    return ResidueLabelling(tuple(cosets), tuple(witnesses))


@dataclass(frozen=True)
class EliminationReport:
    eliminated: tuple[tuple[str, FrobeniusObservation], ...]  # by name
    surviving: tuple[str, ...]
    observation_count: int


@lru_cache(maxsize=1)
def _elimination_table() -> dict:
    """(p mod 8, cycle type) -> the sorted names of the maximal subgroups
    that miss the type in the coset of G_4 that the residue names, for
    each odd residue and each type its coset realizes.  Built on the first
    elimination, not by `_level4_data`: 18 keys of at most 8 names."""
    coset_types, tables = _level4_data()
    labelling = residue_cosets()
    return {(r, t): tuple(sorted(name for name, sets in tables.items()
                                 if t not in sets[c]))
            for r in (1, 3, 5, 7)
            for c in (labelling.cosets[r],)
            for t in coset_types[c]}


def _eliminate(prime: int, cycle_type: tuple[int, ...], pending: set,
               eliminated: dict) -> None:
    """Move every pending subgroup that misses the observed cycle type in
    the coset of G_4 that p mod 8 names from pending to eliminated, by one
    lookup in `_elimination_table`; an observation is built only when it
    rules a pending subgroup out."""
    names = _elimination_table().get((prime % 8, cycle_type))
    if names is None:
        c = residue_cosets().coset(prime)
        raise ModelInconsistencyError(
            f"cycle type {cycle_type} at prime {prime} is not "
            f"realized by coset {c} of G_4, which p = {prime % 8} mod 8 "
            f"names; the containment assumption or K_4 = Q(zeta_8) is "
            f"violated"
        )
    if pending.isdisjoint(names):
        return
    obs = FrobeniusObservation(prime, cycle_type)
    for name in names:
        if name in pending:
            eliminated[name] = obs
            pending.discard(name)


def eliminate_maximal_subgroups(observations, model: ArithLevelModel
                                ) -> EliminationReport:
    """Frobenius elimination alone (a cycle type realized in the coset of
    G_4 that p mod 8 names but missing from a maximal subgroup's part of
    it); surfaces any observation that coset cannot realize instead of
    discarding it."""
    if model.level != 4:
        raise ValueError(f"elimination is defined at level 4, got {model.level}")
    _, tables = _level4_data()
    pending = set(tables)
    eliminated: dict[str, FrobeniusObservation] = {}
    ordered = sorted(observations, key=lambda o: o.prime)
    for obs in ordered:
        _eliminate(obs.prime, obs.cycle_type, pending, eliminated)
    return EliminationReport(
        eliminated=tuple(sorted(eliminated.items())),
        surviving=tuple(sorted(pending)),
        observation_count=len(ordered),
    )


@dataclass(frozen=True)
class MaximalityVerdict:
    status: str  # "maximal" | "not_maximal" | "inconclusive"
    point: BasePoint
    square_class: SquareClassReport
    frobenius_eliminations: tuple[tuple[str, FrobeniusObservation], ...]
    square_class_eliminations: tuple[str, ...]
    surviving: tuple[str, ...]
    surviving_tables: Optional[dict]  # name -> {residue mod 8: types}
    primes_tried: int
    reason: Optional[str]

    def to_json_dict(self) -> dict:
        eliminations = [
            {
                "subgroup": name,
                "via": "frobenius",
                "prime": obs.prime,
                "cycle_type": list(obs.cycle_type),
            }
            for name, obs in self.frobenius_eliminations
        ] + [
            {
                "subgroup": name,
                "via": "square_class",
                "classes": {
                    lab: part
                    for lab, part in zip(self.square_class.labels,
                                         self.square_class.parts)
                },
            }
            for name in self.square_class_eliminations
        ]
        eliminations.sort(key=lambda e: e["subgroup"])
        out = {
            "a": self.point.text(),
            "verdict": self.status,
            "square_class": self.square_class.to_json_dict(),
            "eliminations": eliminations,
            "surviving": list(self.surviving),
            "primes_tried": self.primes_tried,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        if self.surviving_tables is not None:
            out["surviving_tables"] = {
                name: {str(r): [list(t) for t in sorted(types)]
                       for r, types in by_residue.items()}
                for name, by_residue in self.surviving_tables.items()
            }
        return out


def maximality_verdict(point: BasePoint,
                       prime_bound: int = DEFAULT_PRIME_BOUND
                       ) -> MaximalityVerdict:
    """Streamed verdict: square-class gate, then Frobenius elimination.

    Primes are consumed in increasing order and sampling stops as soon as
    every maximal subgroup has a witness (never before the minimum
    usable-prime floor), so raising the bound can only extend the scan:
    verdicts are monotone in the bound.  A `maximal` verdict needs both
    routes: square classes of rank 4, which rule out every maximal
    subgroup at once, and a Frobenius witness for each of them.
    """
    primes = _primes_to(prime_bound)
    sq = square_class_test(point)
    if not sq.passed:
        return MaximalityVerdict(
            status="not_maximal",
            point=point,
            square_class=sq,
            frobenius_eliminations=(),
            square_class_eliminations=(),
            surviving=(),
            surviving_tables=None,
            primes_tried=0,
            reason="; ".join(sq.derivation),
        )
    _, tables = _level4_data()
    pending = set(tables)
    eliminated: dict[str, FrobeniusObservation] = {}
    usable = 0
    for p, t in _frobenius_stream(point, primes):
        usable += 1
        _eliminate(p, t, pending, eliminated)
        if not pending and usable >= MIN_USABLE_PRIMES:
            break
    _require_usable(usable, prime_bound)
    surviving = tuple(sorted(pending))
    return MaximalityVerdict(
        status="inconclusive" if surviving else "maximal",
        point=point,
        square_class=sq,
        frobenius_eliminations=tuple(sorted(eliminated.items())),
        square_class_eliminations=tuple(sorted(tables)),
        surviving=surviving,
        # a prime of residue r whose type is missing from the survivor's
        # table at r would rule it out
        surviving_tables=({name: {r: tables[name][residue_cosets().coset(r)]
                                  for r in (1, 3, 5, 7)}
                           for name in surviving} if surviving else None),
        primes_tried=usable,
        reason=None,
    )


def recheck_certificate(verdict: MaximalityVerdict) -> bool:
    """True iff the stored witnesses actually support the stored verdict.

    The square classes are recomputed, and so is every Frobenius witness:
    its prime must be an odd prime not dividing the leading coefficient,
    its cycle type must lie in the coset of G_4 that the prime's residue
    mod 8 names and be missing from the subgroup's part of that coset, and
    the factor degrees of the specialized numerator at that prime must
    reproduce it.  They are counted afresh by `factor_degrees_mod_p`, not
    read from the fibre memo, and by a second algorithm: the verdict read
    the cycle type off the preimage tree of a mod p, the recount factors
    the integer numerator's reduction after its own squarefree test.  Each
    distinct prime is counted once, as witnesses share primes.  A bad
    witness gives False, never an exception."""
    coset_types, tables = _level4_data()
    sq = square_class_test(verdict.point)
    if sq.passed != verdict.square_class.passed or sq.parts != verdict.square_class.parts:
        return False
    if verdict.status == "not_maximal":
        subset = verdict.square_class.dependent_subset
        if sq.passed or not subset or not set(subset) <= set(sq.labels):
            return False
        return _is_square(prod(part for lab, part in zip(sq.labels, sq.parts)
                               if lab in subset))
    if verdict.status not in ("maximal", "inconclusive"):
        return False
    if sq.rank != 4 or set(verdict.square_class_eliminations) != set(tables):
        return False
    labelling = residue_cosets()
    poly = specialize_numerator(4, verdict.point.a)
    recounts: dict[int, Optional[tuple[int, ...]]] = {}
    for name, obs in verdict.frobenius_eliminations:
        if name not in tables:
            return False
        try:
            c = labelling.coset(obs.prime)
            if (obs.cycle_type not in coset_types[c]
                    or obs.cycle_type in tables[name][c]):
                return False
            if obs.prime not in recounts:
                recounts[obs.prime] = factor_degrees_mod_p(poly, obs.prime)
        except ValueError:  # not an odd prime, or it divides the lc
            return False
        if recounts[obs.prime] != obs.cycle_type:
            return False
    claimed = {n for n, _ in verdict.frobenius_eliminations}
    if verdict.status == "maximal":
        return claimed == set(tables) and not verdict.surviving
    return (set(verdict.surviving) == set(tables) - claimed
            and bool(verdict.surviving))
