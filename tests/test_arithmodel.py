"""Arithmetic model construction, growth, Frattini data, maximal subgroups.

The affine construction is cross-checked against a full sweep of the
ambient automorphism group at every level where that sweep is affordable,
against the element-by-element lift filter of the oracles up to level 6,
and against the oracles' Schreier orbit walk and their enumeration of the
affine maps of Z[i]/(1+i)^n up to level 7; each of its checks is made to
fail once;
the Frattini subgroup, certified on generators, is recomputed here as
the intersection of all fifteen maximal subgroups and checked against
the distinct squares.
"""

import collections
import dataclasses
import hashlib

import pytest

import oracles
from imgroups import arithmodel, treeauto
from imgroups.arithmodel import (
    build_model,
    brute_model_cross_check,
    constant_field_quotient,
    cycle_type_table,
    frattini_subgroup,
    maximal_subgroups,
    odometer_elements,
    order_growth_report,
)
from imgroups.errors import ModelConstructionError, ResourceLimitError
from imgroups.selfsim import (
    GROUP_LEVEL_CAP,
    LevelGroup,
    builtin_system_f,
    closure,
    commutator_subgroup,
    generating_set,
    geometric_group,
    omega_group,
    quotient,
    subgroup_index,
    subgroup_U,
)
from imgroups.treeauto import Portrait, _table, identity, pair, sigma

EXPECTED_ORDERS = {1: 2, 2: 8, 3: 64, 4: 256, 5: 1024}

# sha256 of "\n".join(g.encode() for g in gens), in order, for the Schreier
# generators that `oracles.schreier_model(n)` finds; frozen so that a change
# to the orbit walk keeps the same Schreier generators, not merely the same
# group
GENERATOR_DIGESTS = {
    1: "d6b5915c46057bcb005f46f6433df65609dd3a7a57af75ac1a5a4a7c299ebffb",
    2: "a5c4e80b2a99e56c26c7f664bb611df4152b7c65e0cbc2915282ce7f67a2cab2",
    3: "8f1a63bce738d99fc2e943e5bbd9b8ad6b016d2049a0ec7d6a50d9bf8d9a15ca",
    4: "30903c90b27761de2be3448b35a3d8a851862e1e409e6ca2d26d39345dff7cb8",
    5: "248d0a48c7f3a29b300cf7ef2b4082134dbbdd908a3a278606bb8ddf6868aff8",
    6: "9692e107dfc35f9bf13b074951b2570ad50ecc0e8aa85b5fc56a4111aff727f6",
}

# the same digest for the recorded generators of build_model(n): G_n's two,
# then x -> 3x, x -> (1+2i)x and x -> conj(x) on Z[i]/(1+i)^n
MODEL_GENERATOR_DIGESTS = {
    1: "d6b5915c46057bcb005f46f6433df65609dd3a7a57af75ac1a5a4a7c299ebffb",
    2: "c38432efd93937aa5b17e772c41a9c20721e83db0fab95dab1689f6b072a129f",
    3: "d7152f7677b89b81e474e02afed189b028dec3cc4ec3ea4da44a41492eb45c80",
    4: "ff665646490eb32461b2085fce80b4b79c11a37b22cd6d0674626d562eb44cc4",
    5: "9dc31f332357a43e80e11e5db4a1cc0c2ca62a99642d77cd417c865604773e4b",
    6: "b1899cddbb7c6646fa38a6e9b4b74860371a52b63da2f341b14e44249c96481b",
    7: "0d5903df1ba43cf18f026a15b1e10f8489046755a7f8a7b3ad7d9c6e6e15a44c",
}

# every cycle type on 16 leaves that the level-4 model realizes, with
# element counts; frozen after the exhaustive enumeration agreed with
# the recursive construction
M4_CYCLE_TABLE = {
    (1,) * 16: 1,
    (2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1): 6,
    (2, 2, 2, 2, 2, 2, 1, 1, 1, 1): 32,
    (2, 2, 2, 2, 2, 2, 2, 2): 33,
    (4, 4, 4, 2, 1, 1): 32,
    (4, 4, 4, 4): 120,
    (8, 8): 32,
}


@pytest.fixture(scope="module")
def m4():
    return build_model(4)


class TestConstruction:
    def test_orders(self):
        for n, expected in EXPECTED_ORDERS.items():
            assert build_model(n).order == expected

    def test_growth_profile(self):
        rep = order_growth_report(5)
        assert rep.model_orders == (2, 8, 64, 256, 1024)
        assert rep.growth_factors == (4, 8, 4, 4)
        assert rep.geometric_orders == (2, 8, 32, 64, 128)
        assert rep.odometer_counts == (1, 2, 0, 0, 0)

    def test_default_report_follows_the_cap(self):
        rep = order_growth_report()
        assert rep.levels == tuple(range(1, GROUP_LEVEL_CAP + 1))
        assert rep.model_orders[-1] == 1 << (2 * GROUP_LEVEL_CAP)

    def test_contains_geometric(self):
        for n in range(1, 6):
            model = build_model(n)
            assert geometric_group(n).elements <= model.group.elements
            assert sigma(n) in model.group

    def test_inverse_closed(self, m4):
        assert all(x.inverse() in m4.group for x in m4.group)

    def test_broken_orbit_count_is_construction_error(self, monkeypatch):
        # a twist generating set that misses the twist leaves the oracle
        # walk's lifts short of the candidate set; the orbit-stabilizer
        # count must surface that as a model construction fault (exit 1),
        # not as a bad argument (exit 2)
        real = oracles.generating_set

        def short_twist(group):
            if group is subgroup_U(1):
                return [identity(1)]
            return real(group)

        monkeypatch.setattr(oracles, "generating_set", short_twist)
        oracles.schreier_model.cache_clear()
        try:
            with pytest.raises(ModelConstructionError,
                               match="level 2: stabilizer times orbit"):
                oracles.schreier_model(2)
        finally:
            oracles.schreier_model.cache_clear()

    def test_overflowing_stabilizer_fails_at_once(self, monkeypatch):
        # a stabilizer that outgrows the candidates ends the oracle walk on
        # the spot: no normalizer test follows the overflow
        events = []
        real = oracles.normalizes

        def counting(m, groups):
            events.append("normalizes")
            return real(m, groups)

        def overflow(*args, **kwargs):
            events.append("closure")
            raise ResourceLimitError("closure exceeded cap")

        monkeypatch.setattr(oracles, "normalizes", counting)
        monkeypatch.setattr(oracles, "closure", overflow)
        oracles.schreier_model.cache_clear()
        try:
            with pytest.raises(ModelConstructionError,
                               match="level 2: stabilizer times orbit"):
                oracles.schreier_model(2)
        finally:
            oracles.schreier_model.cache_clear()
        assert events.count("closure") == 1 and events[-1] == "closure"

    def test_lift_runs_few_normalizer_tests(self, monkeypatch):
        # the element-by-element filter made 2 |M_5| |U_5| = 65,536 tests
        # at level 6 alone and the orbit walk 221 for all levels; the
        # affine build tests its three automorphisms of T, once per level
        calls = []
        real = arithmodel._normalizes

        def counting(m, conditions):
            calls.append(m)
            return real(m, conditions)

        monkeypatch.setattr(arithmodel, "_normalizes", counting)
        arithmodel._model.cache_clear()
        try:
            assert arithmodel._model(6).order == 4096
        finally:
            arithmodel._model.cache_clear()
        assert len(calls) == 3 * 5

    def test_cold_walk_builds_no_portrait_products(self, monkeypatch):
        # the build composes leaf permutations; G_n and U_n are built
        # first, as their own construction multiplies portraits
        for n in range(1, 7):
            geometric_group(n), subgroup_U(n)

        def refuse(name):
            def call(*args):
                raise AssertionError(f"Portrait.{name} called")
            return call

        monkeypatch.setattr(Portrait, "inverse", refuse("inverse"))
        monkeypatch.setattr(Portrait, "__mul__", refuse("__mul__"))
        arithmodel._model.cache_clear()
        try:
            assert arithmodel._model(6).order == 4096
        finally:
            arithmodel._model.cache_clear()

    def test_generators_are_pinned(self):
        for n, want in GENERATOR_DIGESTS.items():
            gens = oracles.schreier_model(n).generators
            text = "\n".join(g.encode() for g in gens)
            assert hashlib.sha256(text.encode()).hexdigest() == want, n

    def test_model_generators_are_pinned(self):
        for n, want in MODEL_GENERATOR_DIGESTS.items():
            gens = build_model(n).group.generators
            text = "\n".join(g.encode() for g in gens)
            assert hashlib.sha256(text.encode()).hexdigest() == want, n

    @pytest.mark.parametrize("n", range(1, GROUP_LEVEL_CAP + 1))
    def test_schreier_oracle_agreement(self, n):
        walk = oracles.schreier_model(n)
        assert build_model(n).group.elements == walk.elements

    @pytest.mark.parametrize("n", range(1, GROUP_LEVEL_CAP + 1))
    def test_affine_oracle_agreement(self, n):
        # the theorem itself: M_n is every affine map of Z[i]/(1+i)^n,
        # enumerated as (u, tau, conj or not) in Gaussian coordinates
        assert build_model(n).group.elements == oracles.affine_model(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_lift_filter_oracle_agreement(self, n):
        assert oracles.lift_filter_model(n) == build_model(n).group.elements

    def test_level_7(self):
        m7 = build_model(7)
        assert m7.order == 16384 == 4 * build_model(6).order
        assert geometric_group(7).elements <= m7.group.elements

    def test_models_are_built_once(self):
        # allow_deep is still accepted and changes nothing
        for n in range(1, GROUP_LEVEL_CAP + 1):
            assert build_model(n) is build_model(n)
            assert build_model(n, allow_deep=True) is build_model(n)

    def test_level_cap(self):
        # the model stops where G_n and U_n stop; no keyword raises it
        for allow_deep in (False, True):
            with pytest.raises(ResourceLimitError,
                               match=f"capped at {GROUP_LEVEL_CAP}$"):
                build_model(GROUP_LEVEL_CAP + 1, allow_deep=allow_deep)
        with pytest.raises(ValueError):
            build_model(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_brute_sweep_agreement(self, n):
        agrees, brute_order, model_order = brute_model_cross_check(n)
        assert agrees
        assert brute_order == model_order == EXPECTED_ORDERS[n]

    def test_brute_sweep_is_capped(self):
        cap = treeauto.ENUMERATION_LEVEL_CAP
        with pytest.raises(ResourceLimitError,
                           match=f"^brute sweep capped at level {cap}$"):
            brute_model_cross_check(cap + 1)

    def test_brute_sweep_sees_a_missing_element(self, monkeypatch):
        # the sweep finds M_4 on its own, so a model lacking one element
        # disagrees with it
        real = arithmodel.build_model
        m4 = real(4)
        short = LevelGroup(4, m4.group.elements)
        short.elements = m4.group.elements - {max(m4.group.elements)}
        monkeypatch.setattr(arithmodel, "build_model", lambda n: (
            dataclasses.replace(m4, group=short) if n == 4 else real(n)))
        assert brute_model_cross_check(4) == (False, 256, 255)

    def test_geometric_index_at_top(self):
        m5 = build_model(5)
        assert subgroup_index(m5.group, geometric_group(5)) == 8


def _gammas(n):
    sysf = builtin_system_f()
    return tuple(sysf.unfold(w, n).perm for w in ("gamma1", "gamma2"))


@pytest.fixture
def rebuild(monkeypatch):
    """Build the level model afresh with names in `arithmodel` patched, on
    the unpatched models below it."""
    def run(level, **patches):
        arithmodel._model.cache_clear()
        arithmodel._model(level - 1)
        for name, value in patches.items():
            monkeypatch.setattr(arithmodel, name, value)
        return arithmodel._model(level)

    yield run
    arithmodel._model.cache_clear()


class TestConstructionChecks:
    """Each check of the affine construction, made to fail once; every
    failure is a ModelConstructionError naming the level and the check."""

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_walk_conflict_at_odd_levels(self, n):
        # gamma2 -> gamma1 gamma2 is no endomorphism of T at odd n
        g1, g2 = _gammas(n)
        with pytest.raises(ModelConstructionError,
                           match=f"level {n}: the walk sends leaf"):
            arithmodel._leaf_map(n, (g1, g2), (g1, g1.translate(_table(g2))))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_even_levels_walk_to_no_tree_automorphism(self, n):
        # the same images pass the walk at even n, but the leaf bijection
        # breaks the tree
        g1, g2 = _gammas(n)
        with pytest.raises(ModelConstructionError,
                           match=f"level {n}: the walk is not a tree "
                                 "automorphism"):
            arithmodel._leaf_map(n, (g1, g2), (g1, g1.translate(_table(g2))))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_walk_that_is_no_bijection(self, n):
        g1, g2 = _gammas(n)
        with pytest.raises(ModelConstructionError,
                           match=f"level {n}: the walk is not a bijection"):
            arithmodel._leaf_map(n, (g1, g2), (g1, g1))

    def test_automorphism_that_is_no_lift_candidate(self, rebuild):
        # (x, x) with x outside M_3 has a left section outside the model
        m3 = build_model(3).group
        x = next(x for x in omega_group(3) if x not in m3)
        with pytest.raises(ModelConstructionError,
                           match="level 4: generator 2 is not a lift "
                                 "candidate"):
            rebuild(4, _leaf_map=lambda *args: pair(x, x, 0))

    def test_candidate_that_does_not_normalize(self, rebuild):
        m4 = build_model(4).group
        m = next(m for m in (pair(identity(3), r, 0) for r in subgroup_U(3))
                 if m not in m4)
        with pytest.raises(ModelConstructionError,
                           match="level 4: generator 2 does not normalize "
                                 "G_4 and U_4"):
            rebuild(4, _leaf_map=lambda *args: m)

    def test_closure_past_the_cap(self, rebuild):
        with pytest.raises(ModelConstructionError,
                           match="level 4: the generators do not close to "
                                 "the 256 affine maps"):
            rebuild(4, _mulclose=lambda gens, max_size: None)

    def test_closure_of_the_wrong_order(self, rebuild):
        # with trivial automorphisms the generators close to G_5 only
        with pytest.raises(ModelConstructionError,
                           match="level 5: the generators do not close to "
                                 "the 1024 affine maps"):
            rebuild(5, _leaf_map=lambda *args: identity(5))

    def test_geometric_generator_that_is_no_power_of_i(self, rebuild):
        # complex conjugation normalizes <[i]> but lies outside it
        g3 = geometric_group(3)
        conj = build_model(3).group.generators[-1]
        fake = LevelGroup(3, g3.elements, (*g3.generators, conj))
        with pytest.raises(ModelConstructionError,
                           match=r"level 3: a2 or a generator of G_3 is not "
                                 r"a power of \[i\] on T"):
            rebuild(3, geometric_group=lambda n: fake)

    def test_twist_that_is_not_regular(self, rebuild):
        with pytest.raises(ModelConstructionError,
                           match="level 4: T is not abelian of order 16"):
            rebuild(4, subgroup_U=geometric_group)


class TestElementStatistics:
    def test_odometers_vanish_from_level_3(self):
        for n in (3, 4, 5):
            assert odometer_elements(build_model(n)) == ()

    def test_low_level_odometers(self):
        assert len(odometer_elements(build_model(1))) == 1
        assert len(odometer_elements(build_model(2))) == 2

    def test_m4_cycle_table(self, m4):
        table = cycle_type_table(m4.group)
        assert table == M4_CYCLE_TABLE
        assert sum(table.values()) == 256

    def test_no_16_cycle(self, m4):
        assert (16,) not in cycle_type_table(m4.group)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_cycle_table_matches_the_leaf_walk(self, n):
        group = build_model(n).group
        assert cycle_type_table(group) == collections.Counter(
            oracles.cycle_type_of_perm(list(x)) for x in group.elements)

    def test_cycle_table_leaves_the_group_unsorted(self, m4):
        fresh = LevelGroup(4, m4.group.elements)
        assert cycle_type_table(fresh) == cycle_type_table(m4.group)
        assert fresh._sorted is None


class TestFrattini:
    def test_index_16(self, m4):
        phi = frattini_subgroup(m4)
        assert subgroup_index(m4.group, phi) == 16

    def test_kernels_computed_once_per_model(self, m4, monkeypatch):
        # frattini_subgroup builds no kernels; maximal_subgroups builds
        # them once
        calls = []
        real = arithmodel._index2_kernels

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(arithmodel, "_index2_kernels", counting)
        frattini_subgroup.cache_clear()
        maximal_subgroups.cache_clear()
        phi = frattini_subgroup(m4)
        assert calls == []
        subs = maximal_subgroups(m4)
        assert len(calls) == 1
        assert frattini_subgroup(m4) is phi and maximal_subgroups(m4) is subs
        assert len(calls) == 1

    def test_cold_level6_builds_no_quotient_kernels_or_sorted_group(
            self, monkeypatch):
        # the certificate reads M6's recorded generators only; a fresh copy
        # of M6 keeps the check cold whatever other tests sorted
        m6 = build_model(6)
        fresh = arithmodel.ArithLevelModel(
            6, LevelGroup(6, m6.group.elements, m6.group.generators),
            m6.geometric, m6.twist)
        calls = []

        def refuse(name):
            def call(*args):
                calls.append(name)
                raise AssertionError(f"{name} called")
            return call

        certified = []
        real_certify = arithmodel._certify_frattini

        def certify(group, phi):
            certified.append(len(phi))
            real_certify(group, phi)

        monkeypatch.setattr(arithmodel, "quotient", refuse("quotient"))
        monkeypatch.setattr(arithmodel, "_index2_kernels",
                            refuse("_index2_kernels"))
        monkeypatch.setattr(arithmodel, "_certify_frattini", certify)
        frattini_subgroup.cache_clear()
        phi = frattini_subgroup(fresh)
        assert calls == [] and certified == [256]
        assert fresh.group._sorted is None
        assert subgroup_index(fresh.group, phi) == 16
        frattini_subgroup.cache_clear()

    def test_closure_checks_leave_the_kernels_unsorted(self, m4):
        # generating_set sorts the leaf permutations itself and wraps only
        # the generators it picks; the picks are the greedy ones over the
        # sorted portraits, in the same order
        frattini_subgroup.cache_clear()
        maximal_subgroups.cache_clear()
        subs = maximal_subgroups(m4)
        assert len(subs) == 15
        assert all(s.group._sorted is None for s in subs)
        for s in subs:
            want, have = [], LevelGroup(4, [identity(4).perm])
            for g in s.group.sorted_elements():
                if g not in have:
                    want.append(g)
                    have = closure(want)
            assert generating_set(s.group) == want
            assert have == s.group

    def test_kernel_refused_on_a_broken_table(self, m4, monkeypatch):
        # redirect x^2 = 1 in the last coset, an entry the character basis
        # never reads, to coset 1: some kernel holds the last coset but
        # not coset 1, and its table certificate must fail
        real = arithmodel.quotient

        def broken(group, normal):
            reps, index_of, table = real(group, normal)
            rows = [list(row) for row in table]
            rows[-1][-1] = 1
            return reps, index_of, tuple(map(tuple, rows))

        monkeypatch.setattr(arithmodel, "quotient", broken)
        maximal_subgroups.cache_clear()
        try:
            with pytest.raises(ModelConstructionError,
                               match="level 4: the kernel of character mask"):
                maximal_subgroups(m4)
        finally:
            maximal_subgroups.cache_clear()

    @pytest.mark.parametrize("level", [4, 5, 6])
    def test_kernels_match_parity_filter(self, level):
        # the kernels in mask order, as one parity test per element of the
        # group: characters over the sorted coset basis of the quotient,
        # from products of the reps rather than the quotient's table
        model = build_model(level)
        phi = frattini_subgroup(model)
        reps, index_of, _ = quotient(model.group, phi)
        vec = {index_of[identity(level).perm]: 0}
        rank = 0
        for i, r in enumerate(reps):
            if i not in vec:
                for i0, v0 in list(vec.items()):
                    vec[index_of[(reps[i0] * r).perm]] = v0 | (1 << rank)
                rank += 1
        want = [frozenset(x for x in model.group.elements
                          if (vec[index_of[x]] & mask).bit_count() % 2 == 0)
                for mask in range(1, 1 << rank)]
        assert rank == 4
        got = arithmodel._index2_kernels(model, phi)
        assert [k.elements for k in got] == want
        assert [s.group.elements for s in maximal_subgroups(model)] == want

    def test_cold_level6_codes_its_squares_in_one_pass(self, monkeypatch):
        # the distinct squares are put in order by one bulk coding pass;
        # no portrait computes its own code
        m6 = build_model(6)

        def refuse(*args):
            raise AssertionError("_code_of called")

        monkeypatch.setattr(treeauto, "_code_of", refuse)
        frattini_subgroup.cache_clear()
        try:
            assert len(frattini_subgroup(m6)) == 256
        finally:
            frattini_subgroup.cache_clear()

    @pytest.mark.parametrize("level", [4, 5, 6])
    def test_generated_by_the_distinct_squares(self, level):
        # squares taken as leaf permutations, one portrait per distinct one
        model = build_model(level)
        phi = frattini_subgroup(model)
        assert phi.generators == tuple(sorted({x * x for x in model.group}))

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
    def test_certificate_accepts_phi(self, level):
        model = build_model(level)
        arithmodel._certify_frattini(model.group, frattini_subgroup(model))

    def test_certificate_refuses_a_dihedral_quotient(self):
        # G_5 is normal in M_5, but M_5 / G_5 is dihedral of order 8
        m5 = build_model(5)
        with pytest.raises(ModelConstructionError, match="level 5"):
            arithmodel._certify_frattini(m5.group, geometric_group(5))

    def test_certificate_refuses_a_subgroup_that_is_not_normal(self):
        # a subgroup of order 2 outside the centre of M_3
        m3 = build_model(3)
        x = next(x for x in m3.group if x * x == identity(3)
                 and any(x * g != g * x for g in m3.group))
        sub = closure([x])
        with pytest.raises(ModelConstructionError, match="^level 3: the "
                           "subgroup of order 2 is not normal$"):
            arithmodel._certify_frattini(m3.group, sub)

    def test_certificate_refuses_a_nonabelian_quotient(self):
        # M_4's Schreier generators, as the oracle walk finds them, are
        # involutions, so the trivial group passes the normality and square
        # checks and fails on a commutator
        m4 = oracles.schreier_model(4)
        assert all(g * g == identity(4) for g in generating_set(m4))
        trivial = LevelGroup(4, [identity(4).perm], (identity(4),))
        with pytest.raises(ModelConstructionError, match="do not commute"):
            arithmodel._certify_frattini(m4, trivial)

    def test_certificate_refuses_an_abelian_quotient_of_exponent_4(self):
        # [M_6, M_6] is normal with an abelian quotient of order 32, twice
        # the elementary one, so only a generator's square can refuse it
        m6 = build_model(6)
        derived = commutator_subgroup(m6.group)
        assert len(m6.group) == 32 * len(derived)
        with pytest.raises(ModelConstructionError, match="square"):
            arithmodel._certify_frattini(m6.group, derived)

    def test_equals_intersection_of_maximals(self, m4):
        # third route: meet of all maximal subgroups
        phi = frattini_subgroup(m4)
        meet = set(m4.group.elements)
        for sub in maximal_subgroups(m4):
            meet &= sub.group.elements
        assert meet == phi.elements


class TestMaximalSubgroups:
    def test_count_and_names(self, m4):
        subs = maximal_subgroups(m4)
        assert len(subs) == 15
        assert [s.name for s in subs] == [f"Mmax-{i:02d}" for i in range(1, 16)]

    def test_all_index_two(self, m4):
        for sub in maximal_subgroups(m4):
            assert sub.index == 2
            assert subgroup_index(m4.group, sub.group) == 2

    def test_pairwise_distinct(self, m4):
        seen = {frozenset(s.group.elements) for s in maximal_subgroups(m4)}
        assert len(seen) == 15

    def test_names_stable_across_rebuilds(self, m4):
        first = {s.name: frozenset(s.group.elements) for s in maximal_subgroups(m4)}
        frattini_subgroup.cache_clear()
        maximal_subgroups.cache_clear()
        second = {s.name: frozenset(s.group.elements) for s in maximal_subgroups(m4)}
        assert first == second


class TestConstantFieldQuotient:
    def test_dihedral_of_order_8(self):
        q = constant_field_quotient()
        assert (q["group"], q["order"], q["nonabelian"], q["involutions"],
                q["dihedral"]) == ("M5/G5", 8, True, 5, True)
        # element orders by powers in M5 until they land in G5: 1/5/2 of
        # orders 1/2/4, where the quaternion group has 1/1/6
        m5, g5 = build_model(5), geometric_group(5)
        orders = []
        for r in quotient(m5.group, g5)[0]:
            k, x = 1, r
            while x not in g5:
                k, x = k + 1, x * r
            orders.append(k)
        assert sorted(orders) == [1, 2, 2, 2, 2, 2, 4, 4]

    def test_witness_fails_to_commute_modulo_g5(self):
        a, b = constant_field_quotient()["noncommuting_pair"]
        m5 = build_model(5)
        assert a in m5.group and b in m5.group
        # ab and ba lie in different cosets of G5
        assert (a * b).inverse() * (b * a) not in geometric_group(5)
