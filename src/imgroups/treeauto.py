"""Automorphisms of finite rooted binary trees, stored as swap-bit portraits.

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

Wire format: ``"<level>:<HEX>"`` where HEX encodes the breadth-first bit
string, root bit most significant, left-padded with zero bits to a whole
number of hex digits.  Level 0 encodes as ``"0:"``.
"""

from __future__ import annotations

from math import lcm

from .errors import ResourceLimitError

# The recursive conjugacy test memoizes pairs of portraits; above this level
# the table can blow up, so calls refuse to run unless the caller raises it.
CONJUGACY_LEVEL_CAP = 6


class Portrait:
    """An automorphism of the depth-``level`` rooted binary tree."""

    __slots__ = ("level", "swaps", "_hash")

    def __init__(self, level: int, swaps):
        swaps = tuple(swaps)
        if level < 0:
            raise ValueError(f"level must be nonnegative, got {level}")
        if len(swaps) != (1 << level) - 1:
            raise ValueError(
                f"level {level} needs {(1 << level) - 1} swap bits, got {len(swaps)}"
            )
        self.level = level
        self.swaps = swaps
        self._hash = hash((level, swaps))

    # -- identity, equality, ordering ------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Portrait)
            and self.level == other.level
            and self.swaps == other.swaps
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        # canonical order used wherever determinism matters
        return (self.level, self.swaps) < (other.level, other.swaps)

    def __repr__(self):
        return f"Portrait({self.encode()!r})"

    # -- composition ------------------------------------------------------

    def __mul__(self, other: "Portrait") -> "Portrait":
        """Return ``self * other``: apply self first, then other."""
        if not isinstance(other, Portrait):
            return NotImplemented
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} vs {other.level}")
        n = self.level
        a = self.swaps
        b = other.swaps
        out = [0] * len(a)
        # img[j] = position, within its depth, of the image under self of
        # the j-th input vertex at that depth
        img = [0]
        base = 0
        for depth in range(n):
            width = 1 << depth
            grow = depth + 1 < n
            nxt = [0] * (width << 1) if grow else None
            for j in range(width):
                bu = a[base + j]
                out[base + j] = bu ^ b[base + img[j]]
                if grow:
                    k = img[j] << 1
                    jj = j << 1
                    nxt[jj] = k + bu
                    nxt[jj + 1] = k + 1 - bu
            img = nxt
            base += width
        return Portrait(n, out)

    def inverse(self) -> "Portrait":
        """The inverse automorphism: bit at u(v) equals the bit of u at v."""
        n = self.level
        a = self.swaps
        out = [0] * len(a)
        img = [0]
        base = 0
        for depth in range(n):
            width = 1 << depth
            grow = depth + 1 < n
            nxt = [0] * (width << 1) if grow else None
            for j in range(width):
                bu = a[base + j]
                out[base + img[j]] = bu
                if grow:
                    k = img[j] << 1
                    jj = j << 1
                    nxt[jj] = k + bu
                    nxt[jj + 1] = k + 1 - bu
            img = nxt
            base += width
        return Portrait(n, out)

    # -- action on vertices and leaves ------------------------------------

    def apply(self, word: str) -> str:
        """Image of a vertex, given and returned as a word over '1','2'."""
        _check_word(word, self.level)
        a = self.swaps
        pos = 0  # index, within its depth, of the current input vertex
        out = []
        base = 0
        for depth, ch in enumerate(word):
            bit = ord(ch) - ord("1")
            swap = a[base + pos]
            out.append("12"[bit ^ swap])
            base += 1 << depth
            pos = (pos << 1) + bit
        return "".join(out)

    def leaf_permutation(self) -> list[int]:
        """perm[j] = image of leaf j under this automorphism."""
        n = self.level
        a = self.swaps
        img = [0]
        base = 0
        for depth in range(n):
            width = 1 << depth
            nxt = [0] * (width << 1)
            for j in range(width):
                bu = a[base + j]
                k = img[j] << 1
                jj = j << 1
                nxt[jj] = k + bu
                nxt[jj + 1] = k + 1 - bu
            img = nxt
            base += width
        return img

    # -- sections and truncation ------------------------------------------

    def section(self, word: str) -> "Portrait":
        """The automorphism of the subtree hanging below an input vertex."""
        _check_word(word, self.level)
        cur = self
        for ch in word:
            left, right, _ = cur.sections()
            cur = left if ch == "1" else right
        return cur

    def sections(self) -> tuple["Portrait", "Portrait", int]:
        """Split into (section at 1, section at 2, root swap bit)."""
        n = self.level
        if n < 1:
            raise ValueError("level-0 portrait has no sections")
        left: list[int] = []
        right: list[int] = []
        base = 1
        for depth in range(1, n):
            width = 1 << depth
            half = width >> 1
            seg = self.swaps[base : base + width]
            left.extend(seg[:half])
            right.extend(seg[half:])
            base += width
        return Portrait(n - 1, left), Portrait(n - 1, right), self.swaps[0]

    def restrict(self, m: int) -> "Portrait":
        """Truncate to the depth-m tree; a group homomorphism level n -> m."""
        if not 0 <= m <= self.level:
            raise ValueError(f"cannot restrict level {self.level} to {m}")
        return Portrait(m, self.swaps[: (1 << m) - 1])

    # -- invariants ---------------------------------------------------------

    def cycle_type(self) -> tuple[int, ...]:
        """Multiset of leaf-orbit sizes, sorted descending."""
        perm = self.leaf_permutation()
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
        parts.sort(reverse=True)
        return tuple(parts)

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
        lo = (1 << (m - 1)) - 1
        hi = (1 << m) - 1
        ones = sum(self.swaps[lo:hi])
        return -1 if ones & 1 else 1

    def is_level_odometer(self) -> bool:
        """True iff the leaf action is one full 2**level cycle.

        Computed both from the cycle structure and from the criterion
        "sign(u, m) = -1 for every m"; the two must agree.
        """
        if self.level < 1:
            raise ValueError("odometer test needs level >= 1")
        by_cycle = self.cycle_type() == (1 << self.level,)
        by_sign = all(self.sign(m) == -1 for m in range(1, self.level + 1))
        if by_cycle != by_sign:  # pragma: no cover - would be an internal bug
            raise AssertionError(f"odometer criteria disagree on {self!r}")
        return by_cycle

    # -- wire format ----------------------------------------------------------

    def encode(self) -> str:
        nbits = len(self.swaps)
        value = 0
        for bit in self.swaps:
            value = (value << 1) | bit
        ndigits = (nbits + 3) // 4
        return f"{self.level}:{value:0{ndigits}X}" if ndigits else f"{self.level}:"

    @classmethod
    def decode(cls, text: str) -> "Portrait":
        head, sep, hexpart = text.partition(":")
        if not sep:
            raise ValueError(f"malformed portrait {text!r}: missing ':'")
        try:
            level = int(head)
        except ValueError:
            raise ValueError(f"malformed portrait {text!r}: bad level") from None
        if level < 0:
            raise ValueError(f"malformed portrait {text!r}: negative level")
        nbits = (1 << level) - 1
        ndigits = (nbits + 3) // 4
        if len(hexpart) != ndigits:
            raise ValueError(
                f"malformed portrait {text!r}: expected {ndigits} hex digits"
            )
        value = int(hexpart, 16) if hexpart else 0
        if value >> nbits:
            raise ValueError(f"malformed portrait {text!r}: padding bits set")
        swaps = [(value >> (nbits - 1 - i)) & 1 for i in range(nbits)]
        return cls(level, swaps)


def _check_word(word: str, level: int) -> None:
    if len(word) > level:
        raise ValueError(f"word {word!r} longer than level {level}")
    for ch in word:
        if ch not in "12":
            raise ValueError(f"word {word!r} has symbol {ch!r}, want '1'/'2'")


# -- basic elements and constructions ------------------------------------


def identity(level: int) -> Portrait:
    return Portrait(level, (0,) * ((1 << level) - 1))


def sigma(level: int) -> Portrait:
    """The root swap: (id, id) with the top bit set."""
    if level < 1:
        raise ValueError("sigma needs level >= 1")
    return Portrait(level, (1,) + (0,) * ((1 << level) - 2))


def pair(left: Portrait, right: Portrait, swap: int = 0) -> Portrait:
    """Assemble (left, right)sigma^swap one level up from its sections."""
    if left.level != right.level:
        raise ValueError(f"section levels differ: {left.level} vs {right.level}")
    if swap not in (0, 1):
        raise ValueError(f"swap bit must be 0 or 1, got {swap}")
    bits = [swap]
    base = 0
    for depth in range(left.level):
        width = 1 << depth
        bits.extend(left.swaps[base : base + width])
        bits.extend(right.swaps[base : base + width])
        base += width
    return Portrait(left.level + 1, bits)


def adding_machine(level: int) -> Portrait:
    """The odometer w = (id, w)sigma, a single 2**level cycle on leaves."""
    if level < 1:
        raise ValueError("adding machine needs level >= 1")
    if level == 1:
        return sigma(1)
    return pair(identity(level - 1), adding_machine(level - 1), 1)


def iter_all(level: int, cap: int = 4):
    """Yield every automorphism at the given level, in canonical order.

    There are 2**(2**level - 1) of them; enumeration is refused above the
    cap (default 4, i.e. 32768 elements).
    """
    if level > cap:
        raise ResourceLimitError(
            f"full enumeration at level {level} exceeds cap {cap}"
        )
    nbits = (1 << level) - 1
    for value in range(1 << nbits):
        yield Portrait(level, [(value >> (nbits - 1 - i)) & 1 for i in range(nbits)])


# -- conjugacy ------------------------------------------------------------

_CONJ_MEMO: dict[tuple[int, tuple[int, ...], tuple[int, ...]], bool] = {}


def are_conjugate(u: Portrait, v: Portrait, cap: int = CONJUGACY_LEVEL_CAP) -> bool:
    """Conjugacy in the full automorphism group of the depth-n tree.

    Recursive criterion: root symbols must match; below a trivial root the
    section pairs must be conjugate in one of the two orders, and below a
    swapping root the products of the sections must be conjugate.
    """
    if u.level != v.level:
        raise ValueError(f"level mismatch: {u.level} vs {v.level}")
    if u.level > cap:
        raise ResourceLimitError(
            f"conjugacy at level {u.level} exceeds cap {cap}"
        )
    return _conj(u, v)


def _conj(u: Portrait, v: Portrait) -> bool:
    if u.level == 0:
        return True
    if u.swaps == v.swaps:
        return True
    if u.swaps[0] != v.swaps[0]:
        return False
    key = (u.level, *sorted((u.swaps, v.swaps)))
    hit = _CONJ_MEMO.get(key)
    if hit is not None:
        return hit
    u1, u2, root = u.sections()
    v1, v2, _ = v.sections()
    if root == 0:
        res = (_conj(u1, v1) and _conj(u2, v2)) or (_conj(u1, v2) and _conj(u2, v1))
    else:
        res = _conj(u1 * u2, v1 * v2)
    _CONJ_MEMO[key] = res
    return res
