"""Finite-level models of the arithmetic tree action.

The geometric group describes the monodromy visible over an algebraically
closed constant field.  Over the rationals there is extra room: at each
level the candidates are the automorphisms (x, rho*x)tau with x taken from
the previous model, rho from the previous abelian twist subgroup, and an
arbitrary root swap; the model is the stabilizer, among them, of the
geometric group and the twist subgroup at its own level under conjugation.
Schreier generators generate it and the orbit-stabilizer count certifies
it; a brute-force sweep over the full automorphism group at small levels
and an element-by-element filter in the test oracles are second opinions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ModelConstructionError, ResourceLimitError
from .selfsim import (
    GROUP_LEVEL_CAP,
    LevelGroup,
    _extend,
    _mulclose,
    generating_set,
    geometric_group,
    quotient,
    subgroup_U,
)
from .treeauto import (
    ENUMERATION_LEVEL_CAP,
    Portrait,
    _all_perms,
    _cycle_type_counts,
    _cycle_types,
    _from_perm,
    _ident,
    _in_code_order,
    _inverse,
    _odometer,
    _sections,
    _table,
    identity,
    pair,
    sigma,
)


@dataclass(frozen=True)
class ArithLevelModel:
    level: int
    group: LevelGroup
    geometric: LevelGroup
    twist: LevelGroup  # abelian subgroup supplying the lifts to the next level

    @property
    def order(self) -> int:
        return len(self.group)


def _normalizer_conditions(*groups: LevelGroup):
    """(generator tables, element set) per group, for `_normalizes`."""
    return tuple((tuple(_table(g.perm) for g in generating_set(H)), H.elements)
                 for H in groups)


def _normalizes(m: bytes, conditions) -> bool:
    """True iff m^-1 g m lies in the target for every (gens, target) pair.

    m is a leaf permutation, and the conjugates are composed as leaf
    permutations; no portrait is built for them.
    """
    mt = _table(m)
    mi = _inverse(m)
    for gens, target in conditions:
        for g in gens:
            if mi.translate(g).translate(mt) not in target:
                return False
    return True


def build_model(level: int, *, allow_deep: bool = False) -> ArithLevelModel:
    """Construct and certify the level model; results are cached.

    M_n is built from G_n and U_n, so it stops at their cap,
    `selfsim.GROUP_LEVEL_CAP`.  `allow_deep` is accepted and ignored
    because the benchmark scripts pass it; it goes with the next change
    to the benchmark.
    """
    if level < 1:
        raise ValueError(f"level {level} out of range")
    if level > GROUP_LEVEL_CAP:
        raise ResourceLimitError(f"model level capped at {GROUP_LEVEL_CAP}")
    return _model(level)


@lru_cache(maxsize=None)
def _model(level: int) -> ArithLevelModel:
    """The certified level model, lifted from the one below it."""
    G = geometric_group(level)
    U = subgroup_U(level)
    if level == 1:
        grp = LevelGroup(1, {_ident(1), sigma(1).perm}, (sigma(1),))
        return ArithLevelModel(1, grp, G, U)

    prev = _model(level - 1)
    conditions = _normalizer_conditions(G, U)
    lifts = ([pair(x, x, 0) for x in generating_set(prev.group)]
             + [pair(identity(level - 1), r, 0) for r in generating_set(prev.twist)]
             + [sigma(level)])
    candidates = 2 * len(prev.group) * len(prev.twist)
    # walk the orbit of (G, U) under conjugation with a transversal of leaf
    # permutations: t*c lands on the point of u iff the Schreier generator
    # t*c*u^-1 fixes it, that is lies in the normalizer N.  The points lie
    # in distinct cosets N*u, so at most one u matches.  The stabilizer
    # built so far is a group of verified normalizers, so every u is first
    # scanned for a member, one translate and one lookup each; a hit is the
    # u that the in-order `_normalizes` scan would pick, which runs only
    # when nothing hits.
    ident = _ident(level)
    lift_steps = [_table(c.perm) for c in lifts]
    transversal = [ident]
    backs = [_table(ident)]  # x.translate(backs[i]) is x * transversal[i]^-1
    gens: list[Portrait] = []
    steps = []
    stab = {ident}
    for t in transversal:  # grows while it is walked
        for step in lift_steps:
            tc = t.translate(step)
            if not stab.isdisjoint(map(tc.translate, backs)):
                continue
            s = next((s for s in map(tc.translate, backs)
                      if _normalizes(s, conditions)), None)
            if s is None:
                transversal.append(tc)
                backs.append(_table(_inverse(tc)))
            else:
                gens.append(_from_perm(level, s))
                steps.append(_table(s))
                stab = _extend(stab, steps, s, candidates)
                if stab is None:  # the stabilizer outgrew the candidates
                    raise ModelConstructionError(
                        f"level {level}: stabilizer times orbit "
                        f"{len(transversal)} exceeds {candidates}")
    if len(stab) * len(transversal) != candidates:
        raise ModelConstructionError(f"level {level}: stabilizer times orbit "
                                     f"{len(transversal)} is not {candidates}")
    missing = G.elements - stab
    if missing:
        raise ModelConstructionError(
            f"level {level}: {len(missing)} geometric elements dropped, "
            f"first {min(_from_perm(level, p) for p in missing).encode()}"
        )
    grp = LevelGroup(level, stab, gens)
    return ArithLevelModel(level, grp, G, U)


def brute_model_cross_check(level: int) -> tuple[bool, int, int]:
    """Recompute the model by sweeping every level automorphism.

    Same membership conditions, entirely different enumeration: instead of
    assembling candidates from below, every automorphism of the level is
    decomposed and tested.  Returns (agrees, brute order, model order).
    """
    if level > ENUMERATION_LEVEL_CAP:
        raise ResourceLimitError(
            f"brute sweep capped at level {ENUMERATION_LEVEL_CAP}")
    model = build_model(level)
    if level == 1:
        return (True, 2, model.order)
    prev = build_model(level - 1)
    conditions = _normalizer_conditions(model.geometric, model.twist)
    group, twist = prev.group.elements, prev.twist.elements
    brute: set[bytes] = set()
    for m in _all_perms(level):
        left, right = _sections(m, level)
        if left not in group:
            continue
        if right.translate(_table(_inverse(left))) not in twist:
            continue
        if _normalizes(m, conditions):
            brute.add(m)
    return (brute == model.group.elements, len(brute), model.order)


def odometer_elements(model: ArithLevelModel) -> tuple[Portrait, ...]:
    """All model elements acting as a single full cycle on the leaves, by
    their cycle types and, as a second route, their sign characters."""
    els = model.group.elements
    types = _cycle_types(els)
    return tuple(x for x in _in_code_order(els, model.level)
                 if _odometer(x, types[x.perm]))


def cycle_type_table(group: LevelGroup) -> dict[tuple[int, ...], int]:
    """How many elements realize each leaf cycle type."""
    return dict(sorted(_cycle_type_counts(group.elements).items()))


@lru_cache(maxsize=None)
def frattini_subgroup(model: ArithLevelModel) -> LevelGroup:
    """The group of squares, certified to be the Frattini subgroup.

    For a finite 2-group the Frattini subgroup is generated by the squares,
    as a^-1 b^-1 a b = a^-2 (a b^-1)^2 b^2.  The closure of the squares lies
    in every maximal subgroup, and `_certify_frattini` shows on the model's
    generators that the quotient by it is elementary abelian, so it is Phi.
    The distinct squares are put in `Portrait` order by one bulk coding
    pass, `treeauto._in_code_order`, and recorded as the generators.
    """
    grp = model.group
    squares = _in_code_order({x.translate(_table(x)) for x in grp.elements},
                             model.level)
    els = _mulclose(squares, len(grp))
    if els is None:  # pragma: no cover - squares of members are members
        raise ModelConstructionError(
            f"level {model.level}: the squares generate more than the "
            f"{len(grp)} elements of the model")
    phi = LevelGroup(model.level, els, squares)
    _certify_frattini(grp, phi)
    return phi


def _certify_frattini(group: LevelGroup, phi: LevelGroup) -> None:
    """Raise ModelConstructionError unless phi is normal in the group with
    an elementary abelian quotient, checked on generators: each generator
    of the group conjugates each generator of phi into phi, and the
    generators' squares and pairwise commutators lie in phi.  A phi that
    also lies in every maximal subgroup, as the squares do, is then the
    Frattini subgroup (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005)."""
    level, inside = group.level, phi.elements
    gens = [g.perm for g in generating_set(group)]
    inverses = [_inverse(g) for g in gens]
    steps = [_table(g) for g in gens]  # x.translate(step) is x * g
    backs = [_table(g) for g in inverses]  # and x * g^-1
    for s in (_table(h.perm) for h in generating_set(phi)):
        for gi, step in zip(inverses, steps):
            if gi.translate(s).translate(step) not in inside:
                raise ModelConstructionError(
                    f"level {level}: the subgroup of order {len(phi)} is "
                    "not normal")
    for i, g in enumerate(gens):
        if g.translate(steps[i]) not in inside:
            raise ModelConstructionError(
                f"level {level}: a generator's square lies outside the "
                f"subgroup of order {len(phi)}")
        for j in range(i):  # g^-1 h^-1 g h for h = gens[j]
            if inverses[i].translate(backs[j]).translate(steps[i]).translate(
                    steps[j]) not in inside:
                raise ModelConstructionError(
                    f"level {level}: two generators do not commute modulo "
                    f"the subgroup of order {len(phi)}")


def _index2_kernels(model: ArithLevelModel, phi: LevelGroup) -> list[LevelGroup]:
    """The kernels of the nontrivial characters of M / Phi, each the union
    of its Phi cosets and made of the model's own leaf permutations."""
    reps, index_of, table = quotient(model.group, phi)
    vecs = {0: 0}  # coset index -> character vector over the sorted basis
    rank = 0
    for i in range(len(reps)):
        if i in vecs:
            continue
        bit = 1 << rank
        rank += 1
        for i0, v0 in list(vecs.items()):
            vecs[table[i0][i]] = v0 | bit
    if len(vecs) != len(reps):  # pragma: no cover - quotient is elementary
        raise ModelConstructionError("quotient by Frattini is not elementary")
    cosets: list[list[bytes]] = [[] for _ in reps]
    for x in model.group.elements:
        cosets[index_of[x]].append(x)
    # each kernel is the union of the cosets whose character vector has
    # even parity under the mask; Phi is normal, so that union is closed
    # iff its coset indices are closed under the quotient's table
    out = []
    for mask in range(1, 1 << rank):
        inside = [i for i in range(len(reps))
                  if (vecs[i] & mask).bit_count() % 2 == 0]
        if any(table[i][j] not in inside for i in inside for j in inside):
            raise ModelConstructionError(
                f"level {model.level}: the kernel of character mask {mask} "
                "is not closed")
        out.append(LevelGroup(model.level, (
            x for i in inside for x in cosets[i])))
    return out


@dataclass(frozen=True)
class MaximalSubgroup:
    name: str
    group: LevelGroup

    @property
    def index(self) -> int:
        return 2


@lru_cache(maxsize=None)
def maximal_subgroups(model: ArithLevelModel) -> tuple[MaximalSubgroup, ...]:
    """The index-2 subgroups, deterministically named Mmax-01, Mmax-02, ...

    In a 2-group every maximal subgroup has index 2 and contains the
    Frattini subgroup, so they are exactly the kernels of the nontrivial
    characters of the elementary quotient.  Order (and therefore naming)
    follows the character masks over the sorted coset basis.  Each kernel
    is certified a subgroup on the Cayley table of M / Phi: Phi is normal,
    so a union of Phi cosets is closed iff its coset indices are closed
    under the table; ModelConstructionError names the level and the
    character mask of a kernel that is not.  Their intersection must be
    the Frattini subgroup again.
    """
    phi = frattini_subgroup(model)
    kernels = _index2_kernels(model, phi)
    meet = model.group.elements
    for k in kernels:
        meet = meet & k.elements
    if meet != phi.elements:  # pragma: no cover - phi is certified
        raise ModelConstructionError(
            f"level {model.level}: Frattini routes disagree "
            f"({len(phi)} vs {len(meet)})"
        )
    out = []
    for i, k in enumerate(kernels, start=1):
        if 2 * len(k) != len(model.group):  # pragma: no cover
            raise ModelConstructionError(f"kernel {i} has wrong index")
        out.append(MaximalSubgroup(name=f"Mmax-{i:02d}", group=k))
    return tuple(out)


@dataclass(frozen=True)
class GrowthReport:
    levels: tuple[int, ...]
    model_orders: tuple[int, ...]
    geometric_orders: tuple[int, ...]
    growth_factors: tuple[int, ...]  # model order ratios, level n vs n-1
    odometer_counts: tuple[int, ...]


def order_growth_report(max_level: int = GROUP_LEVEL_CAP) -> GrowthReport:
    levels = tuple(range(1, max_level + 1))
    models = [build_model(n) for n in levels]
    orders = tuple(m.order for m in models)
    factors = tuple(orders[i] // orders[i - 1] for i in range(1, len(orders)))
    return GrowthReport(
        levels=levels,
        model_orders=orders,
        geometric_orders=tuple(len(m.geometric) for m in models),
        growth_factors=factors,
        odometer_counts=tuple(len(odometer_elements(m)) for m in models),
    )


def constant_field_quotient() -> dict:
    """Q_5 = M_5 / G_5, the Galois group of the level-5 constant field.

    Read off the coset table: its order, a pair of coset reps that do not
    commute modulo G_5 (None if there is none), and its involutions.  Order
    8, non-abelian and five involutions make it dihedral; the quaternion
    group of order 8 has a single involution.
    """
    model = build_model(5)
    reps, _, table = quotient(model.group, model.geometric)
    witness = next(((reps[i], reps[j]) for i, row in enumerate(table)
                    for j in range(i) if row[j] != table[j][i]), None)
    involutions = sum(1 for i in range(1, len(table)) if table[i][i] == 0)
    return {
        "group": "M5/G5",
        "order": len(reps),
        "nonabelian": witness is not None,
        "noncommuting_pair": witness,
        "involutions": involutions,
        "dihedral": len(reps) == 8 and witness is not None and involutions == 5,
    }
