"""Finite quotients of the self-similar group and their subgroup ledger.

The group orders at level 3 are recomputed with the oracle's own closure
over raw bit tuples, so the 2^(n+2) profile is not self-certifying.
"""

import random
import re
from operator import attrgetter

import pytest

import oracles
from imgroups import treeauto
from imgroups import arithmodel
from imgroups.arithmodel import build_model, frattini_subgroup, maximal_subgroups
from imgroups.errors import ResourceLimitError
from imgroups.selfsim import (
    CLOSURE_MAX_SIZE,
    LevelGroup,
    RecursionSystem,
    _extend,
    _mulclose,
    _normalizer_conditions,
    _normalizes,
    abelian_invariants,
    builtin_system_f,
    center,
    centralizer,
    closure,
    commutator_subgroup,
    generating_set,
    geometric_group,
    load_level_group,
    normal_closure,
    omega_group,
    quotient,
    save_level_group,
    subgroup_H,
    subgroup_U,
    subgroup_index,
    verify_geometric_presentation,
    verify_triple_theorem,
)
from imgroups.treeauto import Portrait, _table, identity, iter_all, pair, sigma


# quotients whose tables are checked against products of their reps
QUOTIENTS = {
    "G4/U4": lambda: (geometric_group(4), subgroup_U(4)),
    "M5/G5": lambda: (build_model(5).group, geometric_group(5)),
}


@pytest.fixture(scope="module")
def sysf():
    return builtin_system_f()


class TestRecursionSystem:
    def test_generator_unfoldings(self, sysf):
        assert sysf.unfold("a1", 3) == sigma(3)
        assert sysf.unfold("a3", 1) == identity(1)
        # a2 = (a3^-1, a2^-1) sigma: root swap present at every level
        for n in (1, 2, 3, 4):
            a2 = sysf.unfold("a2", n)
            assert a2.swaps[0] == 1
        a2 = sysf.unfold("a2", 4)
        left, right, root = a2.sections()
        assert root == 1
        assert left == sysf.unfold("a3", 3).inverse()
        assert right == sysf.unfold("a2", 3).inverse()

    def test_derived_words(self, sysf):
        g1 = sysf.unfold("gamma1", 4)
        assert g1 == sysf.unfold("a2", 4) * sysf.unfold("a3", 4).inverse()
        g2 = sysf.unfold("gamma2", 4)
        assert g2 == sysf.unfold("a3", 4).inverse() * sysf.unfold("a2", 4)

    def test_level_cap(self, sysf):
        with pytest.raises(ResourceLimitError):
            sysf.unfold("a1", 8)
        with pytest.raises(ValueError):
            sysf.unfold("a1", -1)
        with pytest.raises(ValueError):
            sysf.unfold("nope", 3)

    def test_presentation(self):
        for n in (3, 4):
            checks = verify_geometric_presentation(n)
            assert all(checks.values()), checks

    @pytest.mark.parametrize("rules, words, message", [
        ({"a": ((), (), 2)}, None, "rule a: swap bit must be 0 or 1"),
        ({"a": ((("b", 1),), (), 1)}, None, "a: unknown symbol 'b'"),
        ({"a": ((), (("a", 2),), 0)}, None, "a: exponent must be +1 or -1"),
        ({"a": ((), (), 1)}, {"a": (("a", 1),)},
         "name a is both a rule and a word"),
        ({"a": ((), (), 1)}, {"w": (("c", -1),)}, "w: unknown symbol 'c'"),
        ({"a": ((), (), 1)}, {"w": (("a", 0),)},
         "w: exponent must be +1 or -1"),
    ])
    def test_malformed_systems_are_refused(self, rules, words, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RecursionSystem(rules, words)


class TestGroupOrders:
    def test_profile(self):
        for n in range(3, 7):
            assert len(geometric_group(n)) == 1 << (n + 2)

    def test_level3_independent_closure(self, sysf):
        gens = [sysf.unfold("a1", 3).swaps, sysf.unfold("a3", 3).swaps]
        assert len(oracles.closure_of_swaps(gens, 3)) == 32

    def test_level4_independent_closure(self, sysf):
        gens = [sysf.unfold("a1", 4).swaps, sysf.unfold("a3", 4).swaps]
        assert len(oracles.closure_of_swaps(gens, 4)) == 64

    def test_omega_orders(self):
        for n in range(4):
            assert len(omega_group(n)) == 1 << ((1 << n) - 1)
        assert geometric_group(3).elements <= omega_group(3).elements


class TestOmegaGroup:
    def test_vertex_swaps_generate_it(self):
        for n in range(5):
            omega = omega_group(n)
            assert len(omega.generators) == n
            if n:
                assert closure(omega.generators).elements == omega.elements

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generator_driven_routines_match_brute_force(self, n):
        els = omega_group(n).sorted_elements()
        commutators = {a.inverse() * b.inverse() * a * b
                       for a in els for b in els}
        derived, frontier = set(commutators), set(commutators)
        while frontier:
            frontier = {x * c for x in frontier for c in commutators} - derived
            derived |= frontier
        centre = {z for z in els if all(z * g == g * z for g in els)}
        assert len(derived) == (1, 2, 16)[n - 1] and len(centre) == 2
        assert commutator_subgroup(omega_group(n)).elements == {
            u.perm for u in derived}
        assert center(omega_group(n)).elements == {u.perm for u in centre}
        # 2^n cosets of the derived subgroup, each of order 2: (Z/2)^n
        assert len(els) == len(derived) << n
        assert all(g * g in derived for g in els)
        assert abelian_invariants(omega_group(n)) == (2,) * n


class TestLevelGroupContract:
    def test_elements_are_leaf_permutations(self):
        g = geometric_group(4)
        assert type(g.elements) is frozenset
        assert all(type(p) is bytes and len(p) == 16 for p in g.elements)
        assert {u.perm for u in g} == g.elements
        assert all(isinstance(u, Portrait) for u in g.generators)

    @pytest.mark.parametrize("perms", [
        lambda: set(geometric_group(3)),                  # portraits
        lambda: {identity(3).perm, identity(2).perm},     # a wrong length
        lambda: {identity(3).perm, bytes(7)},             # a wrong length
        lambda: {sigma(3).perm},                          # no identity
        lambda: set(),                                    # no identity
        lambda: {u.perm for u in geometric_group(3).sorted_elements()[:3]},
    ], ids=["portraits", "other-level", "short", "no-identity", "empty",
            "order-3"])
    def test_rejects_other_element_sets(self, perms):
        with pytest.raises(ValueError):
            LevelGroup(3, perms())

    @pytest.mark.parametrize("bad", [
        bytes(7),                           # a wrong length
        identity(2).perm,                   # another level
        "\0" * 8,                           # the right length, not bytes
    ], ids=["short", "other-level", "str"])
    def test_names_the_bad_member(self, bad):
        perms = [u.perm for u in geometric_group(3)]
        with pytest.raises(ValueError) as info:
            LevelGroup(3, perms + [bad])
        assert str(info.value) == f"not a level-3 leaf permutation: {bad!r:.40}"

    def test_bytearray_member_is_unhashable(self):
        with pytest.raises(TypeError, match="unhashable type: 'bytearray'"):
            LevelGroup(3, [identity(3).perm, bytearray(identity(3).perm)])

    def test_membership_takes_portraits_of_its_level(self):
        g = geometric_group(3)
        assert sigma(3) in g and identity(3) in g
        assert sigma(2) not in g and sigma(4) not in g
        assert identity(2) not in g
        for other in (sigma(3).perm, None, 3, "3:7F"):
            assert other not in g


class TestSubgroupLedger:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_indices(self, n):
        g = geometric_group(n)
        assert subgroup_index(g, subgroup_H(1, n)) == 4
        assert subgroup_index(g, subgroup_H(2, n)) == 2
        assert subgroup_index(g, subgroup_H(3, n)) == 2
        assert subgroup_index(g, subgroup_U(n)) == 4

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_abelianization(self, n):
        g = geometric_group(n)
        comm = commutator_subgroup(g)
        assert subgroup_index(g, comm) == 8
        assert abelian_invariants(g) == (2, 4)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_generator_centralizers(self, n, sysf):
        g = geometric_group(n)
        for name in ("a1", "a2", "a3"):
            assert len(centralizer(g, sysf.unfold(name, n))) == 8

    def test_center_is_small(self):
        for n in (3, 4):
            z = center(geometric_group(n))
            assert len(z) == 2

    def test_twist_subgroup_abelian(self):
        for n in (3, 4, 5):
            u = subgroup_U(n)
            elems = list(u)
            assert all(x * y == y * x for x in elems for y in elems)

    @pytest.mark.parametrize("name", sorted(QUOTIENTS))
    def test_quotient_table_is_the_products_of_reps(self, name):
        g, n = QUOTIENTS[name]()
        reps, index_of, table = quotient(g, n)
        ident = identity(g.level)
        assert len(reps) == len(g) // len(n)
        assert reps[0] == ident and index_of[ident.perm] == 0
        # coset i is reps[i] times the subgroup; the cosets partition g
        cosets = [frozenset((r * x).perm for x in n) for r in reps]
        assert set().union(*cosets) == g.elements
        assert sum(map(len, cosets)) == len(g)
        assert all(index_of[p] == i for i, c in enumerate(cosets) for p in c)
        for i, a in enumerate(reps):
            for j, b in enumerate(reps):
                assert (a * b).perm in cosets[table[i][j]], (i, j)

    def test_quotient_rejects_a_non_subgroup(self):
        with pytest.raises(ValueError, match="not a subgroup"):
            quotient(geometric_group(3), omega_group(3))
        with pytest.raises(ValueError, match="not a subgroup"):
            quotient(geometric_group(4), geometric_group(3))

    def test_quotient_rejects_a_subgroup_that_is_not_normal(self, sysf):
        g3 = geometric_group(3)
        a1 = sysf.unfold("a1", 3)
        # a1 has |G3| / |C(a1)| = 32 / 8 = 4 conjugates, so <a1> of order 2
        # is not normal
        assert len(centralizer(g3, a1)) == 8
        g = next(g for g in generating_set(g3) if g.inverse() * a1 * g != a1)
        with pytest.raises(ValueError, match=f"^subgroup is not normal: "
                           f"{re.escape(repr(g))} conjugates a generator "
                           f"out of it$"):
            quotient(g3, closure([a1]))

    def test_one_normality_test(self, sysf):
        # quotient and the model's checks share the test on translate tables
        assert arithmodel._normalizes is _normalizes
        assert arithmodel._normalizer_conditions is _normalizer_conditions
        g3, u3 = geometric_group(3), subgroup_U(3)
        a1 = sysf.unfold("a1", 3)
        both = _normalizer_conditions(g3, u3)
        assert [len(gens) for gens, _ in both] == [
            len(generating_set(g3)), len(generating_set(u3))]
        # G_3 normalizes itself and U_3, a1 (the root swap) does not
        # normalize <a2>, and every automorphism normalizes the full group
        assert all(_normalizes(g.perm, both) for g in g3)
        a2 = sysf.unfold("a2", 3)
        assert not _normalizes(a1.perm, _normalizer_conditions(closure([a2])))
        assert all(_normalizes(u.perm, _normalizer_conditions(omega_group(3)))
                   for u in omega_group(3))


class TestClosureToolkit:
    def test_closure_vs_normal_closure(self, sysf):
        n = 4
        g = geometric_group(n)
        h2 = normal_closure(g, [sysf.unfold("a2", n)])
        assert h2.elements <= g.elements
        plain = closure([sysf.unfold("a2", n)])
        assert plain.elements <= h2.elements
        assert len(plain) < len(h2)

    def test_generating_set_roundtrip(self):
        g = geometric_group(4)
        gens = generating_set(g)
        assert closure(list(gens)).elements == g.elements

    def test_generating_set_rejects_non_closed(self):
        # size 2 passes the structural checks, but {1, x} with x of order 4
        # is not a subgroup, which generating_set must notice
        g = geometric_group(3)
        x = next(e for e in g if e.order() == 4)
        broken = LevelGroup(3, {identity(3).perm, x.perm})
        with pytest.raises(ValueError):
            generating_set(broken)

    def test_generating_set_rejects_non_closed_on_later_step(self):
        # the first greedy generator closes to a real subgroup inside the
        # set, so only a later Dimino step can outgrow it
        g = geometric_group(3)
        x = next(e for e in g.sorted_elements() if e.order() == 4)
        cyclic = closure([x]).elements
        rest = [e for e in reversed(g.sorted_elements()) if e.perm not in cyclic]
        broken = LevelGroup(3, cyclic | {e.perm for e in rest[:4]})
        assert len(closure(list(broken))) > len(broken)
        first = closure([broken.sorted_elements()[1]])
        assert len(first) > 1 and first.elements <= broken.elements
        with pytest.raises(ValueError):
            generating_set(broken)

    def test_triple_theorem(self):
        # at level 1 the wreath description is the single triple
        # (sigma, sigma, 1), read off one level down like every other level
        for n, triples in ((1, 1), (2, 4), (3, 64)):
            assert verify_triple_theorem(n) == {
                "level": n, "triples": triples, "all_witnessed": True,
                "unwitnessed": [], "wreath_description_agrees": True}

    @pytest.mark.parametrize("n", [0, 4])
    def test_triple_theorem_is_capped(self, n):
        with pytest.raises(ValueError, match="capped at level 3"):
            verify_triple_theorem(n)

    def test_refusals(self, sysf):
        g3 = geometric_group(3)
        outside = next(u for u in omega_group(3) if u not in g3)
        cases = [
            (lambda: closure([]), "closure needs at least one generator"),
            (lambda: closure([identity(2), identity(3)]),
             "generators must share one level"),
            (lambda: normal_closure(g3, []),
             "normal closure needs at least one seed"),
            (lambda: normal_closure(g3, [outside]),
             f"seed {outside!r} lies outside the group"),
            (lambda: centralizer(g3, outside), "element lies outside the group"),
            (lambda: subgroup_index(g3, geometric_group(2)), "level mismatch"),
            (lambda: subgroup_index(g3, omega_group(3)),
             "second argument is not a subgroup of the first"),
            (lambda: subgroup_H(4, 3), "subgroup index must be 1, 2 or 3"),
        ]
        for call, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    def test_trivial_group_has_no_invariants(self):
        trivial = LevelGroup(2, {identity(2).perm}, (identity(2),))
        assert abelian_invariants(trivial) == ()
        assert repr(trivial) == "<LevelGroup level=2 order=1>"
        assert repr(geometric_group(3)) == "<LevelGroup level=3 order=32>"


def _oracle_perms(gens, level: int) -> set:
    """The oracle's bit-tuple closure of the portraits, as leaf permutations."""
    return {Portrait(level, bits).perm
            for bits in oracles.closure_of_swaps([g.swaps for g in gens], level)}


def _irredundant(gens) -> list:
    """A subset of the generators that generates the same group and has no
    member the others generate."""
    picked, have = [], set()
    for g in gens:
        if g.perm not in have:
            picked.append(g)
            have = _mulclose(picked, CLOSURE_MAX_SIZE)
    for g in list(picked):
        rest = [h for h in picked if h != g]
        if rest and _mulclose(rest, CLOSURE_MAX_SIZE) == have:
            picked = rest
    return picked


class TestDiminoClosure:
    """`_mulclose` and `closure` against the oracle's breadth-first closure."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tower_generators(self, n):
        for group in (geometric_group(n), subgroup_U(n), build_model(n).group):
            gens = list(group.generators)
            want = _oracle_perms(gens, n)
            assert _mulclose(gens, CLOSURE_MAX_SIZE) == want
            assert closure(gens).elements == want

    @pytest.mark.parametrize("level, sizes", [(3, (1, 2, 2, 3, 4)),
                                              (4, (1, 1, 2, 2))])
    def test_random_subsets(self, level, sizes):
        rng = random.Random(4099 + level)
        pool = list(iter_all(level))
        for k in sizes:
            gens = rng.sample(pool, k)
            want = _oracle_perms(gens, level)
            assert _mulclose(gens, CLOSURE_MAX_SIZE) == want
            assert closure(gens).elements == want

    @pytest.mark.parametrize("level, order", [(5, 64), (6, 256)])
    def test_squares_of_model(self, level, order):
        grp = build_model(level).group
        squares = sorted({x * x for x in grp})
        got = _mulclose(squares, len(grp))
        assert len(got) == order
        assert closure(squares, len(grp)).elements == got
        # the oracle closes a subset of the squares, which keeps it affordable:
        # a group inside the one the squares generate that holds every
        # square is all of it
        want = _oracle_perms(_irredundant(squares), level)
        assert all(s.perm in want for s in squares)
        assert got == want

    def test_cap_boundary(self):
        grp5 = build_model(5).group
        for gens in (geometric_group(4).generators, build_model(4).group.generators,
                     sorted({x * x for x in grp5})):
            whole = _mulclose(gens, CLOSURE_MAX_SIZE)
            assert _mulclose(gens, len(whole)) == whole
            assert _mulclose(gens, len(whole) - 1) is None
            assert len(closure(gens, max_size=len(whole))) == len(whole)
            with pytest.raises(ResourceLimitError):
                closure(gens, max_size=len(whole) - 1)

    def test_cap_boundary_at_each_dimino_step(self):
        # each step adds whole cosets of the group so far; the cap must
        # fire exactly one element below the step's result, also when the
        # overflow comes on a coset past the first one
        seen_first, seen_later = False, False
        for gens in (build_model(4).group.generators,
                     build_model(5).group.generators):
            have = {identity(gens[0].level).perm}
            steps = []
            for g in gens:
                if g.perm in have:
                    continue
                steps.append(_table(g.perm))
                nxt = _extend(have, steps, g.perm, CLOSURE_MAX_SIZE)
                assert _extend(have, steps, g.perm, len(nxt)) == nxt
                assert _extend(have, steps, g.perm, len(nxt) - 1) is None
                if len(have) > 1:
                    seen_first |= len(nxt) == 2 * len(have)
                    seen_later |= len(nxt) > 2 * len(have)
                have = nxt
            assert have == _mulclose(gens, CLOSURE_MAX_SIZE)
        assert seen_first and seen_later


class TestSortedElements:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_code_order_is_portrait_order(self, n):
        # the keyed sort must give the order Portrait.__lt__ gives, which
        # fixes greedy generator choice and the Mmax-NN names
        for group in (geometric_group(n), build_model(n).group):
            fresh = LevelGroup(n, group.elements)
            assert fresh.sorted_elements() == tuple(sorted(set(group)))
            assert group.sorted_elements() == fresh.sorted_elements()


class TestWholeGroupPasses:
    """The bulk code and cycle-type passes on every group the tower builds,
    against the single-portrait routes."""

    @pytest.fixture(scope="class")
    def tower(self):
        groups = {}
        for n in range(1, 8):
            groups[f"G{n}"] = geometric_group(n)
            groups[f"U{n}"] = subgroup_U(n)
        for n in range(1, 7):
            groups[f"M{n}"] = build_model(n).group
        for n in (4, 5, 6):
            groups[f"Phi{n}"] = frattini_subgroup(build_model(n))
        for ms in maximal_subgroups(build_model(4)):
            groups[ms.name] = ms.group
        groups["G7'"] = commutator_subgroup(geometric_group(7))
        return groups

    def test_codes(self, tower):
        for name, group in tower.items():
            perms = list(group.elements)
            assert treeauto._codes(perms, group.level) == [
                treeauto._code_of(p, group.level) for p in perms], name

    def test_sorted_elements_is_the_order_of_fresh_codes(self, tower):
        for name, group in tower.items():
            fresh = LevelGroup(group.level, group.elements)
            by_code = sorted((treeauto._from_perm(group.level, p)
                              for p in group.elements), key=attrgetter("code"))
            assert fresh.sorted_elements() == tuple(by_code), name
            assert [u.code for u in fresh.sorted_elements()] == [
                u.code for u in by_code], name

    @pytest.mark.parametrize("name", ["M1", "M2", "M3", "M4", "M5", "M6", "G7"])
    def test_cycle_types(self, tower, name):
        group = tower[name]
        types = treeauto._cycle_types(group.elements)
        # a group holds its squares, so the map is the group exactly
        assert set(types) == group.elements
        for p in group.elements:
            assert types[p] == treeauto._cycle_type_of(p)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        g = geometric_group(3)
        path = save_level_group(str(tmp_path), "f", "G", g)
        assert path.endswith("f_G_L3.grp")
        back = load_level_group(str(tmp_path), "f", "G", 3)
        assert back is not None
        assert back.elements == g.elements
        assert back.level == 3

    def test_missing_returns_none(self, tmp_path):
        assert load_level_group(str(tmp_path), "f", "G", 3) is None

    def test_empty_file_returns_none(self, tmp_path):
        (tmp_path / "f_G_L3.grp").write_text("")
        assert load_level_group(str(tmp_path), "f", "G", 3) is None

    @pytest.mark.parametrize("mangle", [
        lambda lines: ["G 4 32"] + lines[1:],          # wrong level
        lambda lines: ["G 3 999"] + lines[1:],         # wrong order
        lambda lines: ["X 3 32"] + lines[1:],          # wrong name
        lambda lines: lines[:-2],                      # truncated body
        lambda lines: lines + ["junk"],                # trailing garbage
        lambda lines: [lines[0]] + ["0:"] + lines[2:],  # element at wrong level
        lambda lines: lines[:-1] + ["9:" + "0" * 128],  # no level-9 portraits
        lambda lines: ["G three 32"] + lines[1:],      # a level that is no int
        # the identity 3:00 left out: 31 members, no group
        lambda lines: ["G 3 31"] + [l for l in lines[1:] if l != "3:00"],
    ])
    def test_corruption_rejected(self, tmp_path, mangle):
        g = geometric_group(3)
        path = save_level_group(str(tmp_path), "f", "G", g)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(mangle(lines)) + "\n")
        assert load_level_group(str(tmp_path), "f", "G", 3) is None
