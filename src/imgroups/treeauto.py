"""Automorphisms of finite rooted binary trees, stored as leaf permutations.

Conventions, fixed package-wide and exercised by the property tests:

* Vertices of the depth-n tree are words over {1, 2}.  Each internal
  vertex carries one swap bit; bits are listed breadth-first, root first,
  child 1 before child 2, so a level-n portrait has 2**n - 1 bits.
* Products act left to right: ``u * v`` applies u first.  Under this order
  the wreath rule ``(x1,x2)s * (y1,y2)t = (x1*y_s(1), x2*y_s(2)) st`` is
  exactly composition of the induced leaf permutations.
* Section subscripts refer to the input symbol at the root, so
  ``u.section(v + w) == u.section(v).section(w)``.

Leaves at depth n are numbered 0 .. 2**n - 1 by reading the path word as
binary digits (symbol 1 -> bit 0), first symbol most significant.

Stored form: a portrait keeps only its leaf permutation ``perm``, a
``bytes`` object of length 2**n with ``perm[j]`` the image of leaf j.  The
tree automorphism group acts faithfully on the leaves, so ``perm``
determines the element.  A byte holds the leaf images up to level 8
(``LEVEL_MAX``); portraits exist for levels 0..8 only.  Every operation on
the stored form is a C loop: a product is one ``bytes.translate`` through
the right factor's permutation padded to a 256-byte table, an inverse one
``bytes.maketrans``, and sections, restrictions and pairs one translate
through a per-level mask, shift or offset table.  The swap bits are
derived, never stored: the bit at the j-th vertex of depth d is bit n-d-1
of ``perm[j << (n-d)]``, the image of the first leaf below the vertex's
child 1.  ``code`` packs the derived bits into one int, root bit most
significant; it is cached, and it orders portraits of one level exactly
as their swap tuples would.

Construction from swap bits is a C loop too.  The bit at a depth-d vertex
flips bit n-d-1 of the image of every leaf below that vertex, and those
leaves are the images whose top d bits name it, bits that only the
shallower depths change.  So the leaf permutation is the identity passed
through one translate table per chunk of at most four vertices of one
depth, deepest depth first.  A chunk's 16 tables (one per value of its
bits) depend only on the depth's distance to the leaves and on the chunk's
first vertex, so all levels share them; they are built on first use and
cached, about 0.3 MiB for every table through level 8.  A level-5
portrait takes 9 translates, and `iter_all` composes the deepest depth's
permutations with one table per setting of the bits above it, one
translate per element.

Whole element sets are coded and typed by two passes instead of one call
per portrait.  `_codes` joins up to 512 permutations into one bytes object
and fills one row of ASCII digits per permutation with one strided copy
per vertex, then parses each row with ``int(row, 2)``; `_in_code_order`
sorts by those codes, which is how a group's elements are listed.
`_cycle_types` reads each cycle type off the type of the element's square
and its number of fixed points, in passes over the whole batch: every
element is squared at once, the set of distinct squares is typed first by
the same routine (a group's squares are few: 144 for M_6's 4,096
elements), the fixed points are counted by one strided column per leaf
over up to 512 joined permutations, added as ints with one byte per
permutation, and the (fixed points, square type) memo is keyed on the
identity of the one tuple kept per type.  `_cycle_type_counts` counts those
pairs and types only the distinct ones.  `_code_of` and `_cycle_type_of`
remain the routes for a single portrait.

Wire format: ``"<level>:<HEX>"`` where HEX is ``code`` in hex, left-padded
with zero bits to a whole number of hex digits.  Level 0 encodes as
``"0:"``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from itertools import product, repeat, tee
from math import lcm
from operator import add

from .errors import ResourceLimitError

# One byte per leaf image: 2**8 leaves at most.
LEVEL_MAX = 8

# Full enumeration of a level stops here: 2**15 = 32768 automorphisms.
ENUMERATION_LEVEL_CAP = 4


class Portrait:
    """An automorphism of the depth-``level`` rooted binary tree.

    ``Portrait(level, swaps)`` builds it from breadth-first swap bits.
    """

    __slots__ = ("level", "perm", "_code")

    def __init__(self, level: int, swaps):
        swaps = tuple(swaps)
        _check_level(level)
        nbits = (1 << level) - 1
        if len(swaps) != nbits:
            raise ValueError(
                f"level {level} needs {nbits} swap bits, got {len(swaps)}"
            )
        # count compares like ``in (0, 1)``, so True and 1.0 pass too
        if swaps.count(0) + swaps.count(1) != nbits:
            bad = next(bit for bit in swaps if bit not in (0, 1))
            raise ValueError(f"swap bits must be 0 or 1, got {bad!r}")
        code = int(bytes(map(int, swaps)).translate(_bit_digits(0)), 2) if nbits else 0
        self.level = level
        self.perm = _perm_of_code(level, code)
        self._code = None

    # -- identity, equality, ordering ------------------------------------

    def __eq__(self, other):
        # a leaf permutation of length 2**n fixes the level as well
        return isinstance(other, Portrait) and self.perm == other.perm

    def __hash__(self):
        # bytes hashes are salted by PYTHONHASHSEED, so set order is not
        # stable across runs: sort wherever order reaches an output
        return hash(self.perm)

    def __lt__(self, other):
        # canonical order used wherever determinism matters
        return (self.level, self.code) < (other.level, other.code)

    def __repr__(self):
        return f"Portrait({self.encode()!r})"

    @property
    def swaps(self) -> tuple[int, ...]:
        """Breadth-first swap bits, recomputed from ``perm``."""
        nbits = (1 << self.level) - 1
        return tuple(self.code >> (nbits - 1 - i) & 1 for i in range(nbits))

    @property
    def code(self) -> int:
        """The swap bits as one int, root bit most significant."""
        code = self._code
        if code is None:
            code = self._code = _code_of(self.perm, self.level)
        return code

    # -- composition ------------------------------------------------------

    def __mul__(self, other: "Portrait") -> "Portrait":
        """Return ``self * other``: apply self first, then other."""
        if not isinstance(other, Portrait):
            return NotImplemented
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} vs {other.level}")
        return _from_perm(self.level, self.perm.translate(_table(other.perm)))

    def inverse(self) -> "Portrait":
        """The inverse automorphism."""
        return _from_perm(self.level, _inverse(self.perm))

    # -- action on vertices and leaves ------------------------------------

    def apply(self, word: str) -> str:
        """Image of a vertex, given and returned as a word over '1','2'."""
        index = _word_index(word, self.level)
        below = self.level - len(word)
        return _WORDS[len(word)][self.perm[index << below] >> below]

    def leaf_permutation(self) -> list[int]:
        """perm[j] = image of leaf j under this automorphism."""
        return list(self.perm)

    # -- sections and truncation ------------------------------------------

    def section(self, word: str) -> "Portrait":
        """The automorphism of the subtree hanging below an input vertex."""
        below = self.level - len(word)
        first = _word_index(word, self.level) << below
        block = self.perm[first : first + (1 << below)]
        return _from_perm(below, block.translate(_low_bits(below)))

    def sections(self) -> tuple["Portrait", "Portrait", int]:
        """Split into (section at 1, section at 2, root swap bit)."""
        n = self.level
        if n < 1:
            raise ValueError("level-0 portrait has no sections")
        left, right = _sections(self.perm, n)
        return (_from_perm(n - 1, left), _from_perm(n - 1, right),
                self.perm[0] >> (n - 1))

    def restrict(self, m: int) -> "Portrait":
        """Truncate to the depth-m tree; a group homomorphism level n -> m."""
        if not 0 <= m <= self.level:
            raise ValueError(f"cannot restrict level {self.level} to {m}")
        below = self.level - m
        return _from_perm(m, self.perm[:: 1 << below].translate(_high_bits(below)))

    # -- invariants ---------------------------------------------------------

    def cycle_type(self) -> tuple[int, ...]:
        """Multiset of leaf-orbit sizes, sorted descending."""
        return _cycle_type_of(self.perm)

    def order(self) -> int:
        return lcm(*self.cycle_type())

    def sign(self, m: int) -> int:
        """Sign of the permutation induced on level m, 1 <= m <= level.

        The block swap at a depth-d vertex moves 2**(m-1-d) disjoint leaf
        pairs, which is odd exactly when d = m-1, so the sign is the parity
        of the swap bits at depth m-1.
        """
        if not 1 <= m <= self.level:
            raise ValueError(f"sign level {m} out of range 1..{self.level}")
        # the 2**(m-1) bits of depth m-1 are the code's bits from
        # 2**n - 2**m up
        depth = self.code >> ((1 << self.level) - (1 << m))
        ones = (depth & ((1 << (1 << (m - 1))) - 1)).bit_count()
        return -1 if ones & 1 else 1

    def is_level_odometer(self) -> bool:
        """True iff the leaf action is one full 2**level cycle.

        Computed both from the cycle structure and from the criterion
        "sign(u, m) = -1 for every m"; the two must agree.
        """
        if self.level < 1:
            raise ValueError("odometer test needs level >= 1")
        return _odometer(self, self.cycle_type())

    # -- wire format ----------------------------------------------------------

    def encode(self) -> str:
        ndigits = ((1 << self.level) + 2) // 4
        return f"{self.level}:{self.code:0{ndigits}X}" if ndigits else f"{self.level}:"

    @classmethod
    def decode(cls, text: str) -> "Portrait":
        head, sep, hexpart = text.partition(":")
        if not sep:
            raise ValueError(f"malformed portrait {text!r}: missing ':'")
        try:
            level = int(head)
        except ValueError:
            raise ValueError(f"malformed portrait {text!r}: bad level") from None
        if not 0 <= level <= LEVEL_MAX:
            raise ValueError(
                f"malformed portrait {text!r}: level outside 0..{LEVEL_MAX}"
            )
        nbits = (1 << level) - 1
        ndigits = (nbits + 3) // 4
        if len(hexpart) != ndigits:
            raise ValueError(
                f"malformed portrait {text!r}: expected {ndigits} hex digits"
            )
        try:
            value = int(hexpart, 16) if hexpart else 0
        except ValueError:
            raise ValueError(f"malformed portrait {text!r}: bad hex digit") from None
        if value >> nbits:
            raise ValueError(f"malformed portrait {text!r}: padding bits set")
        u = _from_perm(level, _perm_of_code(level, value))
        u._code = value
        # int() also takes signs, spaces, leading zeros, lower case and
        # non-ASCII digits; the wire form is what `encode` prints
        if u.encode() != text:
            raise ValueError(f"malformed portrait {text!r}: not in canonical form")
        return u


def _odometer(u: Portrait, cycle_type: tuple[int, ...]) -> bool:
    """`Portrait.is_level_odometer` given u's cycle type: the cycle route
    and the sign route, which must agree."""
    by_cycle = cycle_type == (1 << u.level,)
    by_sign = all(u.sign(m) == -1 for m in range(1, u.level + 1))
    if by_cycle != by_sign:  # pragma: no cover - would be an internal bug
        raise AssertionError(f"odometer criteria disagree on {u!r}")
    return by_cycle


def _from_perm(level: int, perm: bytes) -> Portrait:
    """Wrap the leaf permutation of a tree automorphism without checks."""
    u = object.__new__(Portrait)
    u.level = level
    u.perm = perm
    u._code = None
    return u


def _check_level(level: int) -> None:
    if not 0 <= level <= LEVEL_MAX:
        raise ValueError(f"level must be in 0..{LEVEL_MAX}, got {level}")


def _table(perm: bytes) -> bytes:
    """The leaf permutation as a ``bytes.translate`` table: ``x.translate(
    _table(p))`` applies x first, then p.  Bytes past the leaves are never
    looked up."""
    return perm.ljust(256, b"\0")


@lru_cache(maxsize=None)
def _ident(level: int) -> bytes:
    """The identity leaf permutation."""
    return bytes(range(1 << level))


def _inverse(perm: bytes) -> bytes:
    """The inverse leaf permutation: the argsort of ``perm``."""
    ident = _ident(len(perm).bit_length() - 1)
    return bytes.maketrans(perm, ident)[: len(ident)]


def _sections(perm: bytes, level: int) -> tuple[bytes, bytes]:
    """The leaf permutations of the sections at children 1 and 2."""
    half = 1 << (level - 1)
    low = _low_bits(level - 1)
    return perm[:half].translate(low), perm[half:].translate(low)


@lru_cache(maxsize=None)
def _low_bits(k: int) -> bytes:
    """Translate table keeping the low k bits: the leaf within a subtree
    of depth k."""
    return bytes(b & ((1 << k) - 1) for b in range(256))


@lru_cache(maxsize=None)
def _high_bits(k: int) -> bytes:
    """Translate table dropping the low k bits: the vertex k levels up."""
    return bytes(b >> k for b in range(256))


@lru_cache(maxsize=None)
def _offset(k: int) -> bytes:
    """Translate table adding 2**k: a leaf of child 1's subtree of depth k
    moved to child 2's.  Only images below 2**k are looked up."""
    return bytes((b + (1 << k)) & 0xFF for b in range(256))


# A depth's swap bits go into chunks of at most this many vertices, with
# one translate table per value of a chunk's bits.
_CHUNK = 4


@lru_cache(maxsize=None)
def _layer_tables(below: int, first: int, width: int) -> tuple[bytes, ...]:
    """Translate tables for the swap bits of the ``width`` vertices from
    ``first`` on at the depth ``below`` levels above the leaves.  Table v
    flips bit below-1 of every image under a vertex whose bit is set in v,
    vertex ``first`` in v's top bit; other images pass unchanged."""
    half = 1 << (below - 1)

    def table(v: int) -> bytes:
        out = bytearray(range(256))
        for i in range(width):
            if v >> (width - 1 - i) & 1:
                for x in range((first + i) << below, (first + i + 1) << below):
                    out[x] ^= half
        return bytes(out)

    return tuple(map(table, range(1 << width)))


@lru_cache(maxsize=None)
def _code_steps(level: int) -> tuple[tuple[int, int, tuple[bytes, ...]], ...]:
    """(shift, mask, tables) per chunk of a level's swap bits, deepest
    depth first: a depth's tables read the images' bits above it, which
    only the shallower depths still to come change."""
    nbits = (1 << level) - 1
    steps = []
    for depth in range(level - 1, -1, -1):
        width = min(1 << depth, _CHUNK)
        for first in range(0, 1 << depth, width):
            shift = nbits - ((1 << depth) - 1 + first + width)
            steps.append((shift, (1 << width) - 1,
                          _layer_tables(level - depth, first, width)))
    return tuple(steps)


def _perm_of_code(level: int, code: int) -> bytes:
    """The leaf permutation whose swap bits ``code`` holds: one translate
    per chunk of at most `_CHUNK` swap bits of one depth."""
    perm = _ident(level)
    for shift, mask, tables in _code_steps(level):
        perm = perm.translate(tables[code >> shift & mask])
    return perm


@lru_cache(maxsize=None)
def _bit_digits(k: int) -> bytes:
    """Translate table mapping an image to the ASCII digit of its bit k."""
    return bytes(48 + (b >> k & 1) for b in range(256))


def _code_of(perm: bytes, level: int) -> int:
    """The swap bits of a leaf permutation as one int, root bit first: the
    bits of one depth are read off every image that carries one at once."""
    if not level:
        return 0
    return int(b"".join([perm[:: 2 << below].translate(_bit_digits(below))
                         for below in range(level - 1, -1, -1)]), 2)


# `_codes` joins this many permutations per bytes buffer, which bounds its
# memory on the large groups.
_BULK = 512


def _codes(perms: list[bytes], level: int) -> list[int]:
    """`_code_of` of each level-`level` leaf permutation, in order.

    Per chunk of `_BULK` perms, joined into one bytes object, each perm
    gets a row of 2**level bytes: its swap bits as ASCII digits in
    breadth-first order, then a space.  Column i of the rows is filled by
    one strided copy, the image of the first leaf below child 1 of vertex i
    in every perm at once, translated to the digit of its swap bit."""
    if not level:
        return [0] * len(perms)
    size = 1 << level
    columns = [((1 << depth) - 1 + j, j << (level - depth),
                _bit_digits(level - depth - 1))
               for depth in range(level) for j in range(1 << depth)]
    out = []
    for start in range(0, len(perms), _BULK):
        allp = b"".join(perms[start : start + _BULK])
        buf = bytearray(b" ") * len(allp)
        for pos, first, digits in columns:
            buf[pos::size] = allp[first::size].translate(digits)
        out.extend(map(int, buf.split(), repeat(2)))
    return out


def _in_code_order(perms, level: int) -> list[Portrait]:
    """Portraits of the given level-`level` leaf permutations in code
    order, the order of `Portrait`s within one level, each with its code
    set."""
    perms = list(perms)
    by_code = dict(zip(_codes(perms, level), perms))
    out = []
    for code in sorted(by_code):
        u = _from_perm(level, by_code[code])
        u._code = code
        out.append(u)
    return out


def _cycle_types(perms) -> dict[bytes, tuple[int, ...]]:
    """`_cycle_type_of` for a collection of leaf permutations of one level:
    a dict from each of them, and each square met on the way, to its type.
    ValueError on a permutation whose chain of squares outruns the level,
    which no tree automorphism has."""
    perms = list(perms)
    keys, types, memo = _type_keys(perms)
    types.update(zip(perms, map(memo.__getitem__, keys)))
    return types


def _cycle_type_counts(perms) -> dict[tuple[int, ...], int]:
    """How many of the leaf permutations of one level have each cycle type:
    the (fix(x), type of x**2) keys are counted, and only each distinct key
    is turned into its type."""
    keys, _, memo = _type_keys(list(perms))
    counts = Counter()
    for key, count in Counter(keys).items():
        counts[memo[key]] += count
    return dict(counts)


def _type_keys(perms: list[bytes]):
    """(keys, types, memo) for a list of leaf permutations of one level:
    an iterator over the key (fix(x), id of the type of x**2) of each
    permutation x, in order, the type of each square met, and a
    `_TypeMemo` that maps each key to x's type.

    A cycle of length L of x is one L-cycle of x**2 when L = 1 and two
    L/2-cycles when L is even, and every cycle of a tree automorphism has
    a power-of-2 length.  So the fixed points of x and the type of x**2
    give the type of x: fix(x) fixed points, (fix(x**2) - fix(x)) / 2
    2-cycles, and one 2L-cycle per pair of equal L-cycles of x**2, L >= 2.
    The whole batch is squared at once, each square kept as the one object
    of its value, and the set of distinct squares not yet typed is typed
    first by the same routine, down to x**(2**level) = 1; in a group the
    squares are members, and M_6's 4,096 squares are 144 distinct ones.
    ValueError, naming the level and an input, when the chain of squares
    of an input outruns the level."""
    if not perms:
        return iter(()), {}, {}
    level = len(perms[0]).bit_length() - 1
    ident = _ident(level)
    memo = _TypeMemo(len(ident))
    types = {ident: memo.ones}

    def keys_of(batch: list[bytes], power: int):
        # batch holds 2**power-th powers of inputs; x * x is x translated
        # through itself padded to a table, as `_table` pads it, and
        # `distinct` hands back one object per square value, so the list
        # holds references to the few distinct squares
        distinct: dict[bytes, bytes] = {}
        squares = list(map(distinct.setdefault, *tee(map(
            bytes.translate, batch,
            map(bytes.ljust, batch, repeat(256), repeat(b"\0"))))))
        new = [x for x in distinct if x not in types]
        if new:
            if power + 1 == level:
                bad = next(x for x in perms if _power_of_two(x, level) != ident)
                raise ValueError(f"not a level-{level} tree automorphism: "
                                 f"{bad!r:.40}")
            types.update(zip(new, map(memo.__getitem__,
                                      keys_of(new, power + 1))))
        return zip(_fixed_points(batch, level),
                   map(id, map(types.__getitem__, squares)))

    return keys_of(perms, 0), types, memo


class _TypeMemo(dict):
    """(fix(x), id of the type of x**2) -> the type of x, computed on first
    use.  It makes one tuple per type and keeps each, so a key can hold the
    identity of the square's type rather than the tuple, which would be
    hashed in full."""

    def __init__(self, size: int):
        super().__init__()
        self.ones = (1,) * size  # the identity's type
        self._by_id = {id(self.ones): self.ones}

    def __missing__(self, key: tuple[int, int]) -> tuple[int, ...]:
        fix, square_id = key
        t = self[key] = _type_from_square(fix, self._by_id[square_id])
        self._by_id[id(t)] = t
        return t


def _power_of_two(perm: bytes, k: int) -> bytes:
    """perm ** (2**k), by k squarings."""
    for _ in range(k):
        perm = perm.translate(_table(perm))
    return perm


# bytes 255 - i up to 511 - i are a translate table mapping byte i to 1 and
# every other byte to 0
_MARKS = bytes(255) + b"\1" + bytes(255)


def _fixed_points(perms: list[bytes], level: int) -> list[int]:
    """fix(x) for each level-`level` leaf permutation x, in order.

    Per chunk of `_BULK` perms, joined into one bytes object, column i (the
    image of leaf i in every perm) is one strided slice, translated to 1
    where the image is i and 0 elsewhere, and the columns are added as ints
    with one byte per perm.  A byte counts to 255, so the 256 leaves of
    level 8, all fixed by the identity, are added in two runs."""
    size = 1 << level
    marks = [_MARKS[255 - i : 511 - i] for i in range(size)]
    out: list[int] = []
    for start in range(0, len(perms), _BULK):
        joined = b"".join(perms[start : start + _BULK])
        runs = [sum(int.from_bytes(joined[i::size].translate(marks[i]), "big")
                    for i in range(first, min(first + 255, size))
                    ).to_bytes(len(joined) >> level, "big")
                for first in range(0, size, 255)]
        out.extend(map(add, *runs) if len(runs) > 1 else runs[0])
    return out


def _type_from_square(fix: int, square: tuple[int, ...]) -> tuple[int, ...]:
    """The cycle type of x from fix(x) and the cycle type of x**2."""
    moved = len(square) - square.count(1)  # the parts >= 2 come first
    return (tuple(2 * length for length in square[:moved:2])
            + (2,) * ((len(square) - moved - fix) // 2) + (1,) * fix)


def _cycle_type_of(perm: bytes) -> tuple[int, ...]:
    """Leaf-orbit sizes of a leaf permutation, sorted descending."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


# every vertex word through depth LEVEL_MAX, listed by depth in index order:
# symbol 1 -> bit 0, the first symbol the high bit
_WORDS = [tuple(map("".join, product("12", repeat=depth)))
          for depth in range(LEVEL_MAX + 1)]
_WORD_INDEX = {word: i for words in _WORDS for i, word in enumerate(words)}


def _word_index(word: str, level: int) -> int:
    """Index of a vertex of the depth-`level` tree within its depth.  Raises
    ValueError unless the word is a vertex of that tree."""
    if len(word) > level:
        raise ValueError(f"word {word!r} longer than level {level}")
    index = _WORD_INDEX.get(word)
    if index is None:
        bad = word.lstrip("12")[0]
        raise ValueError(f"word {word!r} has symbol {bad!r}, want '1'/'2'")
    return index


# -- basic elements and constructions ------------------------------------


def identity(level: int) -> Portrait:
    _check_level(level)
    return _from_perm(level, _ident(level))


def sigma(level: int) -> Portrait:
    """The root swap: (id, id) with the top bit set."""
    if level < 1:
        raise ValueError("sigma needs level >= 1")
    return pair(identity(level - 1), identity(level - 1), 1)


def pair(left: Portrait, right: Portrait, swap: int = 0) -> Portrait:
    """Assemble (left, right)sigma^swap one level up from its sections."""
    if left.level != right.level:
        raise ValueError(f"section levels differ: {left.level} vs {right.level}")
    if swap not in (0, 1):
        raise ValueError(f"swap bit must be 0 or 1, got {swap}")
    _check_level(left.level + 1)
    # leaves below child 1 come first; a root swap moves them to the back
    shift = _offset(left.level)
    if swap:
        perm = left.perm.translate(shift) + right.perm
    else:
        perm = left.perm + right.perm.translate(shift)
    return _from_perm(left.level + 1, perm)


def adding_machine(level: int) -> Portrait:
    """The odometer w = (id, w)sigma, a single 2**level cycle on leaves."""
    if level < 1:
        raise ValueError("adding machine needs level >= 1")
    if level == 1:
        return sigma(1)
    return pair(identity(level - 1), adding_machine(level - 1), 1)


def iter_all(level: int):
    """Yield every automorphism at the given level, in canonical order.

    There are 2**(2**level - 1) of them; enumeration is refused above
    `ENUMERATION_LEVEL_CAP`.
    """
    yield from map(partial(_from_perm, level), _all_perms(level))


def _all_perms(level: int):
    """The leaf permutations of `iter_all`, in the same order."""
    _check_level(level)
    if level > ENUMERATION_LEVEL_CAP:
        raise ResourceLimitError(
            f"full enumeration at level {level} exceeds cap {ENUMERATION_LEVEL_CAP}"
        )
    if not level:
        yield _ident(0)
        return
    # the deepest depth's bits are the low bits of ``code``, so they run
    # innermost; `_perm_of_code` applies them first, so the permutation is
    # the deepest depth's alone composed with that of the bits above it
    width = 1 << (level - 1)
    deepest = [_perm_of_code(level, v) for v in range(1 << width)]
    for top in range(1 << (width - 1)):
        rest = _table(_perm_of_code(level, top << width))
        for perm in deepest:
            yield perm.translate(rest)


# -- conjugacy ------------------------------------------------------------


def conjugacy_class(u: Portrait) -> tuple:
    """The conjugacy class of u in the full automorphism group of its
    level, as a canonical key: its orbit tree, in which a 1-tuple is one
    orbit through both children and a pair one orbit per child.

    The key is () at level 0, the 1-tuple (class of u1*u2,) below a root
    swap, and the sorted pair of the classes of the sections u1 and u2
    otherwise.  Equal keys mean conjugate elements: (g1, g2) conjugates
    each section and the root swap exchanges them, and (u1, u2)s is
    conjugate by (1, u2) to (u1*u2, 1)s, which (g, g) conjugates to
    (g^-1*u1*u2*g, 1)s.  A key costs at most 2**n - 1 section splits.
    """
    return _class_key(u.perm, u.level)


def _class_key(perm: bytes, level: int) -> tuple:
    if not level:
        return ()
    left, right = _sections(perm, level)
    if perm[0] >> (level - 1):  # root swap
        return (_class_key(left.translate(_table(right)), level - 1),)
    a, b = _class_key(left, level - 1), _class_key(right, level - 1)
    return (a, b) if a <= b else (b, a)


def are_conjugate(u: Portrait, v: Portrait) -> bool:
    """Conjugacy in the full automorphism group of the depth-n tree: the
    two `conjugacy_class` keys are equal."""
    if u.level != v.level:
        raise ValueError(f"level mismatch: {u.level} vs {v.level}")
    return conjugacy_class(u) == conjugacy_class(v)
