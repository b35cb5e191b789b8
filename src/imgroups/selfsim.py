"""Wreath-recursion generators and finite-level subgroup computations.

The built-in recursion system has three generators acting on the binary
tree:

    a1 = sigma           (swap the two subtrees)
    a2 = (a3^-1, a2^-1) sigma
    a3 = (a2, a3)

so a1*a2*a3 = id, a1 has order 2 and a2, a3 have order 4.  Unfolding a
symbol to level n substitutes the level-(n-1) unfoldings into its rule;
level 0 is always the identity.  Everything downstream (normal closures,
centralizers, the arithmetic model) works with fully enumerated groups of
portraits at one level, which stay small: the group generated by a1, a3
has order 2**(n+2) at level n >= 3.
"""

from __future__ import annotations

import os
from functools import lru_cache

from .errors import ResourceLimitError
from .treeauto import (
    Portrait,
    _all_perms,
    _ident,
    _in_code_order,
    _inverse,
    _table,
    are_conjugate,
    conjugacy_class,
    identity,
    pair,
    sigma,
)

# Refuse closures that would outgrow the full level-4 tree group.
CLOSURE_MAX_SIZE = 1 << 15
# Unfolding and cached group construction are not meant beyond this depth.
GROUP_LEVEL_CAP = 7
# The composable-triple search is exhaustive over the full level group.
TRIPLE_LEVEL_CAP = 3

# A word is a sequence of (symbol, +1|-1) letters, composed left to right.
Word = tuple[tuple[str, int], ...]


class RecursionSystem:
    """Wreath recursion rules plus named derived words."""

    def __init__(self, rules: dict[str, tuple[Word, Word, int]],
                 words: dict[str, Word] | None = None):
        self.rules = dict(rules)
        self.words = dict(words or {})
        for name, (left, right, swap) in self.rules.items():
            if swap not in (0, 1):
                raise ValueError(f"rule {name}: swap bit must be 0 or 1")
            for word in (left, right):
                self._check_word(name, word)
        for name, word in self.words.items():
            if name in self.rules:
                raise ValueError(f"name {name} is both a rule and a word")
            self._check_word(name, word)
        # per-instance, so the cache goes with the system that fills it
        self._unfold_rule = lru_cache(maxsize=None)(self._unfold_rule)

    def _check_word(self, owner: str, word: Word) -> None:
        for sym, exp in word:
            if sym not in self.rules:
                raise ValueError(f"{owner}: unknown symbol {sym!r}")
            if exp not in (1, -1):
                raise ValueError(f"{owner}: exponent must be +1 or -1")

    def unfold(self, name: str, level: int) -> Portrait:
        """The portrait of a generator or derived word at the given level."""
        if level < 0:
            raise ValueError(f"level {level} must be nonnegative")
        if level > GROUP_LEVEL_CAP:
            raise ResourceLimitError(
                f"unfolding at level {level} exceeds cap {GROUP_LEVEL_CAP}"
            )
        if name in self.words:
            return self.unfold_word(self.words[name], level)
        if name not in self.rules:
            raise ValueError(f"unknown name {name!r}")
        return self._unfold_rule(name, level)

    def _unfold_rule(self, name: str, level: int) -> Portrait:
        if level == 0:
            return identity(0)
        left, right, swap = self.rules[name]
        return pair(self.unfold_word(left, level - 1),
                    self.unfold_word(right, level - 1), swap)

    def unfold_word(self, word: Word, level: int) -> Portrait:
        result = identity(level)
        for sym, exp in word:
            p = self.unfold(sym, level)
            result = result * (p if exp == 1 else p.inverse())
        return result


@lru_cache(maxsize=1)
def builtin_system_f() -> RecursionSystem:
    """The recursion system of the degree-2 map with generators a1, a2, a3.

    Derived words: gamma1 = a2*a3^-1 and gamma2 = a3^-1*a2 generate the
    normal closure of gamma1; beta1 = a1*a3*a1*a3^-1 = (gamma1^-1, gamma1)
    and beta2 = a3^-1*a1*a3*a1 = (gamma2^-1, gamma2) generate the
    commutator subgroup together with their conjugates.
    """
    rules = {
        "a1": ((), (), 1),
        "a2": ((("a3", -1),), (("a2", -1),), 1),
        "a3": ((("a2", 1),), (("a3", 1),), 0),
    }
    words = {
        "gamma1": (("a2", 1), ("a3", -1)),
        "gamma2": (("a3", -1), ("a2", 1)),
        "beta1": (("a1", 1), ("a3", 1), ("a1", 1), ("a3", -1)),
        "beta2": (("a3", -1), ("a1", 1), ("a3", 1), ("a1", 1)),
    }
    return RecursionSystem(rules, words)


class LevelGroup:
    """A fully enumerated subgroup of the level-n tree automorphisms, stored
    as the frozenset `elements` of its members' leaf permutations."""

    __slots__ = ("level", "elements", "generators", "_sorted")

    def __init__(self, level: int, perms, generators=()):
        elements = frozenset(perms)
        size = 1 << level
        if not (set(map(type, elements)) <= {bytes}
                and set(map(len, elements)) <= {size}):
            bad = next(p for p in elements if type(p) is not bytes or len(p) != size)
            raise ValueError(f"not a level-{level} leaf permutation: {bad!r:.40}")
        if _ident(level) not in elements:
            raise ValueError("identity missing from element set")
        if len(elements) & (len(elements) - 1):
            raise ValueError(f"order {len(elements)} is not a power of 2")
        self.level = level
        self.elements = elements
        self.generators = tuple(generators)
        self._sorted: tuple[Portrait, ...] | None = None

    def __len__(self):
        return len(self.elements)

    def __contains__(self, item):
        return isinstance(item, Portrait) and item.perm in self.elements

    def __iter__(self):
        return iter(self.sorted_elements())

    def __eq__(self, other):
        return (isinstance(other, LevelGroup)
                and self.level == other.level
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.level, self.elements))

    def __repr__(self):
        return f"<LevelGroup level={self.level} order={len(self)}>"

    def sorted_elements(self) -> tuple[Portrait, ...]:
        """The elements in `Portrait` order, which within one level is the
        order of their codes."""
        if self._sorted is None:
            self._sorted = tuple(_in_code_order(self.elements, self.level))
        return self._sorted


def _extend(els, steps, new, max_size: int) -> set[bytes] | None:
    """One Dimino step: the group generated by a closed set and one more perm.

    `els` is a subgroup H of leaf permutations, `new` a permutation outside
    it and `steps` the translate tables (`treeauto._table`) of generators
    of H plus that of `new`.  The result is a union of right cosets H*r: a
    coset rep times a generator either lands in a coset already present or
    starts a new one, which is added whole.  A set that every rep times every
    generator stays in is closed under right multiplication by the
    generators, hence a group.  None as soon as the size would exceed
    max_size.
    """
    H = list(els)
    if len(H) * 2 > max_size:
        return None
    out = set(els)
    table = _table(new)
    out.update(h.translate(table) for h in H)
    reps = [new]  # the identity's products lie in H or in H*new
    for r in reps:  # grows while it is walked
        for step in steps:
            y = r.translate(step)
            if y not in out:
                if len(out) + len(H) > max_size:
                    return None
                table = _table(y)
                out.update(h.translate(table) for h in H)
                reps.append(y)
    return out


def _mulclose(generators, max_size: int) -> set[bytes] | None:
    """The group generated by the portraits, as a set of leaf permutations.

    Starts from the identity and takes one Dimino step (`_extend`) for each
    generator not yet in the closure, so each element is made once, as a
    member of a whole coset.  None as soon as the closure would exceed
    max_size.
    """
    els = {_ident(generators[0].level)}
    steps = []
    for p in (g.perm for g in generators):
        if p not in els:
            steps.append(_table(p))
            els = _extend(els, steps, p, max_size)
            if els is None:
                return None
    return els


def closure(generators, max_size: int = CLOSURE_MAX_SIZE) -> LevelGroup:
    """The subgroup generated by the given portraits (all at one level).

    The generators are taken in sorted order and each one that is not yet
    in the group extends it by a Dimino step; generators already inside
    cost one membership test.  ResourceLimitError when the group would
    exceed max_size.
    """
    gens = sorted(set(generators))
    if not gens:
        raise ValueError("closure needs at least one generator")
    level = gens[0].level
    for g in gens:
        if g.level != level:
            raise ValueError("generators must share one level")
    els = _mulclose(gens, max_size)
    if els is None:
        raise ResourceLimitError(f"closure exceeded cap {max_size}")
    return LevelGroup(level, els, gens)


def generating_set(group: LevelGroup) -> list[Portrait]:
    """The recorded generators, or a greedy small generating set.

    The greedy set takes each element, in sorted order, that the group
    generated so far misses, and extends that group by one Dimino step.
    ValueError if the generated group outgrows the element set, which is
    then not closed; once every element is in, the two sets are equal.
    """
    if group.generators:
        return list(group.generators)
    level = group.level
    gens: list[Portrait] = []
    steps = []
    have = {_ident(level)}
    for u in _in_code_order(group.elements, level):
        p = u.perm
        if p not in have:
            gens.append(u)
            steps.append(_table(p))
            have = _extend(have, steps, p, len(group))
            if have is None:  # the closure outgrew the set
                raise ValueError("element set is not closed")
    return gens


def normal_closure(group: LevelGroup, seeds) -> LevelGroup:
    """Smallest normal subgroup of `group` containing the seeds."""
    seeds = sorted(set(seeds))
    if not seeds:
        raise ValueError("normal closure needs at least one seed")
    for s in seeds:
        if s not in group:
            raise ValueError(f"seed {s!r} lies outside the group")
    gens = generating_set(group)
    orbit = set(seeds)
    queue = list(seeds)
    while queue:
        x = queue.pop()
        for h in gens:
            y = h.inverse() * x * h
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return closure(sorted(orbit), max_size=len(group))


def commutator(a: Portrait, b: Portrait) -> Portrait:
    return a.inverse() * b.inverse() * a * b


def commutator_subgroup(group: LevelGroup) -> LevelGroup:
    """The subgroup generated by all commutators.

    Built as the normal closure of the commutators of a generating set,
    then certified by checking that the quotient's multiplication table is
    abelian.
    """
    return _abelianization(group)[0]


def _abelianization(group: LevelGroup):
    """The commutator subgroup and the Cayley table of the quotient by it,
    certified abelian."""
    level = group.level
    gens = generating_set(group)
    seeds = {commutator(a, b) for a in gens for b in gens}
    seeds.discard(identity(level))
    derived = (normal_closure(group, seeds) if seeds
               else LevelGroup(level, {_ident(level)}, (identity(level),)))
    table = quotient(group, derived)[2]
    if any(row[j] != table[j][i] for i, row in enumerate(table)
           for j in range(i)):  # pragma: no cover
        raise AssertionError("quotient by commutators is not abelian")
    return derived, table


def centralizer(group: LevelGroup, x: Portrait) -> LevelGroup:
    if x not in group:
        raise ValueError("element lies outside the group")
    xp, xt = x.perm, _table(x.perm)
    return LevelGroup(group.level, {w for w in group.elements
                                    if w.translate(xt) == xp.translate(_table(w))})


def center(group: LevelGroup) -> LevelGroup:
    els = group.elements
    for x in generating_set(group):
        els = els & centralizer(group, x).elements
    return LevelGroup(group.level, els)


def subgroup_index(group: LevelGroup, sub: LevelGroup) -> int:
    if group.level != sub.level:
        raise ValueError("level mismatch")
    if not sub.elements <= group.elements:
        raise ValueError("second argument is not a subgroup of the first")
    return len(group) // len(sub)


def _normalizer_conditions(*groups: LevelGroup):
    """(generator tables, element set) per group, for `_normalizes`."""
    return tuple((tuple(_table(g.perm) for g in generating_set(H)), H.elements)
                 for H in groups)


def _normalizes(m: bytes, conditions) -> bool:
    """True iff m^-1 g m lies in the target for every (gens, target) pair.

    m is a leaf permutation, and the conjugates are composed as leaf
    permutations; no portrait is built for them.
    """
    mt, mi = _table(m), _inverse(m)
    return all(mi.translate(g).translate(mt) in target
               for gens, target in conditions for g in gens)


def quotient(group: LevelGroup, normal: LevelGroup):
    """The quotient group by a normal subgroup, as a table of cosets.

    Returns (reps, index_of, table): the left-coset reps in sorted order,
    so reps[0] is the identity and coset 0 the subgroup itself; each
    member's coset index keyed by its leaf permutation; and the Cayley
    table, table[i][j] the index of the coset of reps[i] * reps[j].
    ValueError unless `normal` is a subgroup of `group` that the
    generators of `group` conjugate into it, checked on the generators of
    both, which is enough for a closed element set.
    """
    if group.level != normal.level or not normal.elements <= group.elements:
        raise ValueError("not a subgroup")
    conditions = _normalizer_conditions(normal)
    for g in generating_set(group):
        if not _normalizes(g.perm, conditions):
            raise ValueError(f"subgroup is not normal: {g!r} conjugates "
                             f"a generator out of it")
    reps: list[Portrait] = []
    index_of: dict[bytes, int] = {}
    members = [_table(s) for s in normal.elements]
    for g in group.sorted_elements():
        if g.perm not in index_of:
            index_of.update((g.perm.translate(s), len(reps)) for s in members)
            reps.append(g)
    right = [_table(b.perm) for b in reps]
    table = tuple(tuple(index_of[a.perm.translate(t)] for t in right)
                  for a in reps)
    return reps, index_of, table


def abelian_invariants(group: LevelGroup) -> tuple[int, ...]:
    """Invariant factors of the abelianization, ascending (e.g. (2, 4)).

    The quotient is an abelian 2-group, so counting solutions of
    x**(2**k) = id for each k determines the factor multiset.
    """
    table = _abelianization(group)[1]
    if len(table) == 1:
        return ()
    orders = []
    for i in range(len(table)):
        o, x = 1, i
        while x:
            x = table[x][i]
            o += 1
        orders.append(o)
    # s_k = log2 #{x : x^(2^k) = id}; the conjugate partition of the
    # successive differences is the multiset of factor exponents.
    s = []
    k = 0
    while True:
        count = sum(1 for o in orders if o <= (1 << k))
        s.append(count.bit_length() - 1)
        if count == len(table):
            break
        k += 1
    r_k = [s[i] - s[i - 1] for i in range(1, len(s))]
    factors = []
    j = 1
    while True:
        e = sum(1 for r in r_k if r >= j)
        if e == 0:
            break
        factors.append(1 << e)
        j += 1
    return tuple(sorted(factors))


# -- the groups of the built-in system, cached per level -------------------


@lru_cache(maxsize=None)
def omega_group(level: int) -> LevelGroup:
    """The full automorphism group of the depth-n tree, n <= 4.

    Its generators are the swaps at the vertices 1^d, d < n.  By induction
    on n, those below the root generate Aut(T_(n-1)) acting below vertex
    1; the root swap conjugates it to the action below vertex 2, and the
    two actions with the root swap make up the wreath product Aut(T_n).
    """
    nbits = (1 << level) - 1
    swaps = [Portrait(level, [int(i == (1 << d) - 1) for i in range(nbits)])
             for d in range(level)]
    return LevelGroup(level, _all_perms(level), swaps)


@lru_cache(maxsize=None)
def geometric_group(n: int) -> LevelGroup:
    """G at level n, generated by the unfoldings of a1 and a3."""
    sysf = builtin_system_f()
    return closure([sysf.unfold("a1", n), sysf.unfold("a3", n)])


@lru_cache(maxsize=None)
def subgroup_H(i: int, n: int) -> LevelGroup:
    """H_i at level n: the normal closure in G of a single generator a_i."""
    if i not in (1, 2, 3):
        raise ValueError("subgroup index must be 1, 2 or 3")
    sysf = builtin_system_f()
    return normal_closure(geometric_group(n), [sysf.unfold(f"a{i}", n)])


@lru_cache(maxsize=None)
def subgroup_U(n: int) -> LevelGroup:
    """U at level n: the normal closure in G of gamma1 = a2*a3^-1."""
    sysf = builtin_system_f()
    return normal_closure(geometric_group(n), [sysf.unfold("gamma1", n)])


# -- consistency checks against the defining relations ---------------------


def verify_geometric_presentation(level: int) -> dict[str, bool]:
    """Finite-level checks of the defining data of a1, a2, a3."""
    sysf = builtin_system_f()
    a1 = sysf.unfold("a1", level)
    a2 = sysf.unfold("a2", level)
    a3 = sysf.unfold("a3", level)
    checks: dict[str, bool] = {}
    checks["a1_is_sigma"] = a1 == sigma(level)
    if level >= 1:
        model2 = pair(sysf.unfold("a1", level - 1), identity(level - 1), 1)
        checks["a2_conjugate_to_pair_a1_id"] = are_conjugate(a2, model2)
        rebuilt3 = pair(sysf.unfold("a2", level - 1),
                        sysf.unfold("a3", level - 1), 0)
        checks["a3_rebuilds_from_sections"] = a3 == rebuilt3
    checks["product_is_identity"] = a1 * a2 * a3 == identity(level)
    # conjugating the whole triple must preserve membership in the set of
    # composable conjugate triples
    import random

    rng = random.Random(7)
    nbits = (1 << level) - 1
    ok = True
    for _ in range(8):
        w = Portrait(level, [rng.randint(0, 1) for _ in range(nbits)])
        winv = w.inverse()
        b = [winv * x * w for x in (a1, a2, a3)]
        ok = ok and b[0] * b[1] * b[2] == identity(level)
        ok = ok and all(are_conjugate(b[i], (a1, a2, a3)[i]) for i in range(3))
    checks["conjugate_triples_stay_composable"] = ok
    return checks


def verify_triple_theorem(level: int) -> dict:
    """Exhaustive witness search for the composable-triple classification.

    For every triple (b1, b2, b3) with b_i conjugate to a_i and
    b1*b2*b3 = id, find beta and g_i in G with
    b_i = beta * g_i * a_i * g_i^-1 * beta^-1.  Also confirms that the
    wreath-style description of such triples (via conditions on sections)
    carves out the same set.  Exhaustive, hence capped at `TRIPLE_LEVEL_CAP`.
    """
    if not 1 <= level <= TRIPLE_LEVEL_CAP:
        raise ValueError(
            f"exhaustive triple search is capped at level {TRIPLE_LEVEL_CAP}")
    sysf = builtin_system_f()
    a = [sysf.unfold(f"a{i}", level) for i in (1, 2, 3)]
    omega = omega_group(level).sorted_elements()
    classes = [frozenset(w.inverse() * ai * w for w in omega) for ai in a]
    G = geometric_group(level)
    g_orbit = [{g * ai * g.inverse() for g in G.sorted_elements()} for ai in a]

    triples = []
    for b1 in sorted(classes[0]):
        for b2 in sorted(classes[1]):
            b3 = (b1 * b2).inverse()
            if b3 in classes[2]:
                triples.append((b1, b2, b3))

    unwitnessed = []
    for triple in triples:
        found = False
        for beta in omega:
            binv = beta.inverse()
            if all(binv * b * beta in g_orbit[i] for i, b in enumerate(triple)):
                found = True
                break
        if not found:  # pragma: no cover - the classification is a theorem
            unwitnessed.append(triple)

    # wreath-style description, with sections read one level down
    wreath_set = set()
    key = {w: conjugacy_class(w) for w in omega}
    for b1 in sorted(classes[0]):
        model2 = conjugacy_class(
            pair(b1.restrict(level - 1), identity(level - 1), 1))
        for b2 in omega:
            if key[b2] != model2:
                continue
            b3 = (b1 * b2).inverse()
            model3 = pair(b2.restrict(level - 1), b3.restrict(level - 1), 0)
            if key[b3] == conjugacy_class(model3):
                wreath_set.add((b1, b2, b3))
    return {
        "level": level,
        "triples": len(triples),
        "all_witnessed": not unwitnessed,
        "unwitnessed": unwitnessed,
        "wreath_description_agrees": wreath_set == set(triples),
    }


# -- cache files ------------------------------------------------------------


def save_level_group(directory: str, system: str, name: str,
                     group: LevelGroup) -> str:
    """Write "<name> <level> <order>" plus one sorted wire string per line."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{system}_{name}_L{group.level}.grp")
    lines = [f"{name} {group.level} {len(group)}"]
    lines.extend(u.encode() for u in group)  # code order is wire order
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def load_level_group(directory: str, system: str, name: str,
                     level: int) -> LevelGroup | None:
    """Re-read a cached group; any mismatch invalidates the cache (None)."""
    path = os.path.join(directory, f"{system}_{name}_L{level}.grp")
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    if not lines:
        return None
    head = lines[0].split()
    if len(head) != 3 or head[0] != name:
        return None
    try:
        got_level, order = int(head[1]), int(head[2])
    except ValueError:
        return None
    body = lines[1:]
    if got_level != level or order != len(body) or body != sorted(body):
        return None
    try:
        els = [Portrait.decode(s) for s in body]
    except ValueError:
        return None
    if any(u.level != level for u in els) or len(set(els)) != order:
        return None
    try:
        return LevelGroup(level, (u.perm for u in els))
    except ValueError:
        return None
