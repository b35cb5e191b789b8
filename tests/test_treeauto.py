"""Portrait arithmetic against the independent node-string oracle."""

import collections
import copy
import itertools
import math
import random
import re
import sys

import pytest

import oracles
from imgroups import treeauto
from imgroups.errors import ResourceLimitError
from imgroups.treeauto import (
    Portrait,
    adding_machine,
    are_conjugate,
    conjugacy_class,
    identity,
    iter_all,
    pair,
    sigma,
)


def rand_portrait(rng, level):
    return Portrait(level, [rng.getrandbits(1) for _ in range((1 << level) - 1)])


class TestWireFormat:
    def test_known_encodings(self):
        assert adding_machine(3).encode() == "3:51"
        assert sigma(2).encode() == "2:4"
        assert identity(0).encode() == "0:"
        assert Portrait.decode("3:51") == adding_machine(3)
        assert Portrait.decode("2:4") == sigma(2)
        assert Portrait.decode("0:") == identity(0)

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(300):
            u = rand_portrait(rng, rng.randint(0, 5))
            assert Portrait.decode(u.encode()) == u

    REFUSALS = {
        "1:": "expected 1 hex digits",       # missing digits
        "2:X": "bad hex digit",              # not hex
        "3:_1": "bad hex digit",             # underscore, not a digit
        "3:FF": "padding bits set",          # 8 bits, level 3 has 7
        "-1:0": "level outside 0..8",        # negative level
        "2:41": "expected 1 hex digits",     # too many digits for level 2
        "2": "missing ':'",                  # no colon
        ":4": "bad level",                   # no level
        "2:4:1": "expected 1 hex digits",    # extra field
    }

    @pytest.mark.parametrize("bad", list(REFUSALS))
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError) as info:
            Portrait.decode(bad)
        assert str(info.value) == \
            f"malformed portrait {bad!r}: {self.REFUSALS[bad]}"

    @pytest.mark.parametrize("text", [
        " 3:40",     # leading space
        "+3:40",     # sign
        "03:40",     # leading zero
        "3:4a",      # lower-case hex
        "2:\uff17",  # full-width digit 7
    ])
    def test_only_the_canonical_form_decodes(self, text):
        assert Portrait.decode("3:40").encode() == "3:40"
        with pytest.raises(ValueError, match="not in canonical form"):
            Portrait.decode(text)

    @pytest.mark.parametrize("level, bits", [
        (1, [2]), (1, [-1]), (1, ["1"]), (1, [0.5]), (1, [None]),
        (2, [0, 1, 2]),
    ])
    def test_swap_bits_must_be_binary(self, level, bits):
        with pytest.raises(ValueError, match="swap bits must be 0 or 1"):
            Portrait(level, bits)


class TestRefusals:
    @pytest.mark.parametrize("call, message", [
        (lambda: identity(2) * identity(3), "level mismatch: 2 vs 3"),
        (lambda: identity(0).sections(), "level-0 portrait has no sections"),
        (lambda: identity(3).restrict(4), "cannot restrict level 3 to 4"),
        (lambda: identity(3).restrict(-1), "cannot restrict level 3 to -1"),
        (lambda: identity(3).sign(0), "sign level 0 out of range 1..3"),
        (lambda: identity(3).sign(4), "sign level 4 out of range 1..3"),
        (lambda: identity(0).is_level_odometer(),
         "odometer test needs level >= 1"),
        (lambda: sigma(0), "sigma needs level >= 1"),
        (lambda: pair(identity(1), identity(2)), "section levels differ: 1 vs 2"),
        (lambda: pair(identity(1), identity(1), 2),
         "swap bit must be 0 or 1, got 2"),
        (lambda: adding_machine(0), "adding machine needs level >= 1"),
        (lambda: are_conjugate(identity(2), identity(3)),
         "level mismatch: 2 vs 3"),
    ])
    def test_refused_with_a_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_product_with_a_non_portrait_is_a_type_error(self):
        with pytest.raises(TypeError):
            identity(2) * 3


class TestAction:
    @pytest.mark.parametrize("level", range(1, 7))
    def test_sections_compose_along_words(self, level):
        # u.section(v + w) == u.section(v).section(w), against the oracle
        # walk down one letter at a time
        rng = random.Random(level)
        words = [""] + ["".join(w) for k in range(1, level + 1)
                        for w in itertools.product("12", repeat=k)]
        for _ in range(5):
            u = rand_portrait(rng, level)
            assert u.section("") == u
            for v in words:
                below = u.section(v)
                assert below.level == level - len(v)
                walk = u
                for letter in v:
                    walk = walk.sections()[int(letter) - 1]
                assert below == walk, (u, v)
                for w in words:
                    if len(v) + len(w) <= level:
                        assert u.section(v + w) == below.section(w), (u, v, w)

    def test_adding_machine_leaf_walk(self):
        # frozen from the oracle walk: +1 on 3-bit reversed binary counters
        a = adding_machine(3)
        assert a.leaf_permutation() == [4, 5, 6, 7, 2, 3, 1, 0]
        assert a.leaf_permutation() == oracles.leaf_permutation(a.swaps, 3)

    def test_leaf_permutation_matches_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            lvl = rng.randint(1, 4)
            u = rand_portrait(rng, lvl)
            assert u.leaf_permutation() == oracles.leaf_permutation(u.swaps, lvl)

    def test_left_factor_acts_first(self):
        rng = random.Random(5)
        for _ in range(200):
            lvl = rng.randint(1, 4)
            u, v = rand_portrait(rng, lvl), rand_portrait(rng, lvl)
            w = u * v
            pu, pv = u.leaf_permutation(), v.leaf_permutation()
            assert w.leaf_permutation() == [pv[pu[i]] for i in range(1 << lvl)]

    def test_composition_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            lvl = rng.randint(1, 4)
            u, v = rand_portrait(rng, lvl), rand_portrait(rng, lvl)
            assert tuple((u * v).swaps) == oracles.compose_swaps(u.swaps, v.swaps, lvl)

    def test_group_axioms(self):
        rng = random.Random(31)
        for _ in range(100):
            lvl = rng.randint(1, 4)
            u, v, w = (rand_portrait(rng, lvl) for _ in range(3))
            e = identity(lvl)
            assert (u * v) * w == u * (v * w)
            assert u * e == u == e * u
            assert u * u.inverse() == e == u.inverse() * u
            assert tuple(u.inverse().swaps) == oracles.invert_swaps(u.swaps, lvl)

    @pytest.mark.parametrize("lvl", range(6))
    def test_apply_matches_leaf_permutation(self, lvl):
        # a vertex's image holds the images of all the leaves below it
        rng = random.Random(40 + lvl)
        for _ in range(10):
            u = rand_portrait(rng, lvl)
            perm = u.leaf_permutation()
            for depth in range(lvl + 1):
                below = lvl - depth
                for letters in itertools.product("12", repeat=depth):
                    word = "".join(letters)
                    image = u.apply(word)
                    assert len(image) == depth and not image.strip("12")
                    first = int("0" + word.replace("1", "0").replace("2", "1"), 2)
                    want = int("0" + image.replace("1", "0").replace("2", "1"), 2)
                    for leaf in range(first << below, first + 1 << below):
                        assert perm[leaf] >> below == want, (u, word)

    @pytest.mark.parametrize("word, message", [
        ("1212", "longer than level 3"),
        ("1x2", "has symbol 'x'"),
        ("0", "has symbol '0'"),
        ("21 ", "has symbol ' '"),
    ])
    def test_bad_words_keep_their_messages(self, word, message):
        u = adding_machine(3)
        for call in (u.apply, u.section):
            with pytest.raises(ValueError, match=message):
                call(word)

    def test_functional_aliases(self):
        assert sigma(2) * sigma(2) == identity(2)
        assert sigma(2).inverse() == sigma(2)
        assert adding_machine(3).inverse().order() == adding_machine(3).order() == 8


class TestInvariants:
    def test_cycle_type_and_order(self):
        rng = random.Random(13)
        for _ in range(150):
            lvl = rng.randint(1, 4)
            u = rand_portrait(rng, lvl)
            ct = oracles.cycle_type_of_perm(u.leaf_permutation())
            assert u.cycle_type() == ct
            assert u.order() == math.lcm(*ct)

    def test_sign_is_permutation_parity(self):
        # two routes: the parity of one depth's bits of the code and brute
        # parity at each depth
        rng = random.Random(17)
        for _ in range(150):
            lvl = rng.randint(1, 8)
            u = rand_portrait(rng, lvl)
            for m in range(1, lvl + 1):
                parity = oracles.perm_parity(u.restrict(m).leaf_permutation())
                assert u.sign(m) == parity

    def test_sign_multiplicative(self):
        rng = random.Random(19)
        for _ in range(100):
            u, v = rand_portrait(rng, 4), rand_portrait(rng, 4)
            for m in range(1, 5):
                assert (u * v).sign(m) == u.sign(m) * v.sign(m)

    def test_odometer_two_routes(self):
        rng = random.Random(29)
        for _ in range(100):
            lvl = rng.randint(1, 4)
            u = rand_portrait(rng, lvl)
            single_cycle = all(
                u.restrict(m).cycle_type() == (1 << m,) for m in range(1, lvl + 1)
            )
            assert u.is_level_odometer() == single_cycle
        a = adding_machine(4)
        assert a.is_level_odometer()
        g = rand_portrait(rng, 4)
        assert (g.inverse() * a * g).is_level_odometer()
        assert not sigma(4).is_level_odometer()

    def test_sections_rebuild(self):
        rng = random.Random(37)
        for _ in range(100):
            u = rand_portrait(rng, rng.randint(1, 4))
            left, right, root = u.sections()
            assert pair(left, right, root) == u


LEVELS = range(0, 9)


class TestKernelAgainstOracles:
    """Every kernel operation against the node-string oracle, levels 0-8."""

    @pytest.fixture
    def samples(self):
        rng = random.Random(43)
        return {lvl: [rand_portrait(rng, lvl) for _ in range(12)] for lvl in LEVELS}

    @pytest.mark.parametrize("lvl", LEVELS)
    def test_product(self, samples, lvl):
        us = samples[lvl]
        for u, v in zip(us, us[1:]):
            assert (u * v).swaps == oracles.compose_swaps(u.swaps, v.swaps, lvl)
            assert u.leaf_permutation() == oracles.leaf_permutation(u.swaps, lvl)

    @pytest.mark.parametrize("lvl", LEVELS)
    def test_inverse(self, samples, lvl):
        for u in samples[lvl]:
            assert u.inverse().swaps == oracles.invert_swaps(u.swaps, lvl)

    @pytest.mark.parametrize("lvl", LEVELS)
    def test_sections_pair_and_restrict(self, samples, lvl):
        for u in samples[lvl]:
            if lvl:
                assert pair(*u.sections()) == u
            for m in range(lvl + 1):
                assert u.restrict(m).swaps == u.swaps[: (1 << m) - 1]

    def test_wire_roundtrip_at_level_7(self, samples):
        for u in samples[7]:
            text = u.encode()
            assert len(text) == len("7:") + 32
            assert Portrait.decode(text) == u
            assert Portrait.decode(text).swaps == u.swaps

    def test_order_is_swap_tuple_order(self, samples):
        mixed = [u for lvl in LEVELS for u in samples[lvl]]
        random.Random(47).shuffle(mixed)
        assert sorted(mixed) == sorted(mixed, key=lambda u: (u.level, u.swaps))
        for lvl in LEVELS:
            got = [u.swaps for u in sorted(samples[lvl])]
            assert got == sorted(u.swaps for u in samples[lvl])

    @pytest.mark.parametrize("lvl", LEVELS)
    def test_hash_and_equality_across_routes(self, samples, lvl):
        us = samples[lvl]
        for u, v in zip(us, us[1:]):
            reached = u * v
            built = Portrait(lvl, oracles.compose_swaps(u.swaps, v.swaps, lvl))
            assert reached == built and hash(reached) == hash(built)
            assert built in {reached}
            e = u * u.inverse()
            assert e == identity(lvl) == Portrait(lvl, e.swaps)
            assert hash(e) == hash(Portrait(lvl, [0] * ((1 << lvl) - 1)))


class TestCodeKernel:
    """Leaf permutations from swap bits, one translate per chunk of bits,
    against the depth-by-depth walk of the oracles."""

    @pytest.mark.parametrize("lvl", LEVELS)
    def test_constructor_and_decode_match_the_walk(self, lvl):
        rng = random.Random(1009 + lvl)
        for _ in range(40):
            bits = [rng.getrandbits(1) for _ in range((1 << lvl) - 1)]
            want = oracles.perm_from_swaps_reference(lvl, bits)
            u = Portrait(lvl, bits)
            assert u.perm == want
            assert Portrait.decode(u.encode()).perm == want
        for bits in ([0] * ((1 << lvl) - 1), [1] * ((1 << lvl) - 1)):
            assert Portrait(lvl, bits).perm == oracles.perm_from_swaps_reference(
                lvl, bits)

    @pytest.mark.parametrize("lvl", range(5))
    def test_iter_all_matches_the_walk_in_order(self, lvl):
        nbits = (1 << lvl) - 1
        count = 0
        for code, u in enumerate(iter_all(lvl)):
            bits = [(code >> (nbits - 1 - i)) & 1 for i in range(nbits)]
            assert u.level == lvl
            assert u.perm == oracles.perm_from_swaps_reference(lvl, bits)
            count += 1
        assert count == 1 << nbits

    def test_tables_are_lazy_and_small(self):
        treeauto._code_steps.cache_clear()
        treeauto._layer_tables.cache_clear()
        Portrait(3, [1, 0, 1, 1, 0, 0, 1])
        # one table set per depth at level 3: 1, 2 and 4 vertices
        assert treeauto._layer_tables.cache_info().currsize == 3
        tables = {id(t): t for lvl in LEVELS
                  for _, _, t in treeauto._code_steps(lvl)}
        size = sum(sys.getsizeof(t) + sum(map(sys.getsizeof, t))
                   for t in tables.values())
        assert size < 1 << 19  # 0.5 MiB through level 8

    @pytest.mark.parametrize("bits, message", [
        ((2,), "swap bits must be 0 or 1, got 2"),
        ((1.5,), "swap bits must be 0 or 1, got 1.5"),
        (("a",), "swap bits must be 0 or 1, got 'a'"),
        ((0, "a", 2), "swap bits must be 0 or 1, got 'a'"),
        ((0, 1), "level 1 needs 1 swap bits, got 2"),
        ((), "level 1 needs 1 swap bits, got 0"),
    ])
    def test_invalid_bits_keep_their_messages(self, bits, message):
        level = 2 if len(bits) == 3 else 1
        with pytest.raises(ValueError) as err:
            Portrait(level, bits)
        assert str(err.value) == message

    def test_bool_and_float_bits_are_accepted(self):
        assert Portrait(2, [True, 1.0, 0]) == Portrait(2, [1, 1, 0])
        assert Portrait(2, (False, 0.0, True)).code == 0b001
        assert Portrait(1, iter([1])) == sigma(1)


class TestConjugacy:
    def test_matches_orbit_enumeration(self):
        omega = list(iter_all(3))
        rng = random.Random(41)
        sample = rng.sample(omega, 24)
        classes = {}
        for u in sample:
            classes[u] = frozenset(g.inverse() * u * g for g in omega)
        for u in sample:
            for v in sample:
                assert are_conjugate(u, v) == (v in classes[u])

    def test_no_module_state_between_calls(self):
        def module_state():
            return {name: copy.deepcopy(value)
                    for name, value in vars(treeauto).items()
                    if not name.startswith("__")
                    and isinstance(value, (dict, list, set))}

        before = module_state()
        a = adding_machine(4)
        g = Portrait(4, [1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1])
        assert are_conjugate(a, g.inverse() * a * g)
        assert not are_conjugate(a, pair(identity(3), sigma(3), 1))
        assert module_state() == before

    def test_basic_facts(self):
        assert are_conjugate(identity(3), identity(3))
        assert not are_conjugate(identity(3), sigma(3))
        a = adding_machine(4)
        g = Portrait(4, [1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1])
        assert are_conjugate(a, g.inverse() * a * g)

    def test_answers_at_level_8(self):
        # the swaps at vertices 1 and 2, and the root swap, lifted to level
        # 8: both fixed-point-free involutions, conjugate only in Sym(256)
        below = [0, 1, 1] + [0] * 252
        root = [1] + [0] * 254
        s, t = Portrait(8, below), Portrait(8, root)
        rng = random.Random(88)
        g, h = rand_portrait(rng, 8), rand_portrait(rng, 8)
        u, v, w = g.inverse() * s * g, h.inverse() * s * h, h.inverse() * t * h
        assert u != v
        assert are_conjugate(u, v)
        assert u.cycle_type() == w.cycle_type() == (2,) * 128
        assert not are_conjugate(u, w)
        with pytest.raises(TypeError):
            are_conjugate(u, v, cap=8)

    @pytest.mark.parametrize("lvl", [4, 5, 6])
    def test_keys_agree_with_the_pairwise_recursion(self, lvl):
        rng = random.Random(400 + lvl)
        for _ in range(300):
            u, g = rand_portrait(rng, lvl), rand_portrait(rng, lvl)
            v = rand_portrait(rng, lvl)
            assert are_conjugate(u, v) == oracles.conjugate_by_recursion(u, v)
            w = g.inverse() * u * g
            assert are_conjugate(u, w) and oracles.conjugate_by_recursion(u, w)

    def test_class_counts(self):
        # 1, 2, 5, 20, 230: k(n) = k(n-1) (k(n-1) + 1) / 2 + k(n-1)
        counts = [len({conjugacy_class(u) for u in iter_all(lvl)})
                  for lvl in range(5)]
        assert counts == [1, 2, 5, 20, 230]
        for lvl in range(4):
            omega = list(iter_all(lvl))
            orbits = {frozenset(g.inverse() * u * g for g in omega)
                      for u in omega}
            assert len(orbits) == counts[lvl]
            for orbit in orbits:
                assert len({conjugacy_class(u) for u in orbit}) == 1


class TestEnumeration:
    def test_counts(self):
        for lvl in range(4):
            assert sum(1 for _ in iter_all(lvl)) == 1 << ((1 << lvl) - 1)

    def test_canonical_order(self):
        for lvl in range(5):
            nbits = (1 << lvl) - 1
            assert [u.code for u in iter_all(lvl)] == list(range(1 << nbits))
        built = [Portrait(3, [(v >> (6 - i)) & 1 for i in range(7)])
                 for v in range(1 << 7)]
        assert list(iter_all(3)) == built
        with pytest.raises(ValueError):
            next(iter_all(-1))

    @pytest.mark.parametrize("lvl", range(9))
    def test_code_reads_the_swap_bits(self, lvl):
        # code is read off the leaf permutation's images at once; it must be
        # the breadth-first swap bits as a binary number at every level
        rng = random.Random(8191 + lvl)
        for _ in range(20):
            bits = [rng.getrandbits(1) for _ in range((1 << lvl) - 1)]
            u = Portrait(lvl, bits)
            assert u.code == int("".join(map(str, bits)) or "0", 2)

    def test_level_9_is_refused(self):
        # a leaf image is one byte, so levels stop at 8; the refusal is a
        # ValueError like any other bad argument, not a resource cap
        assert treeauto.LEVEL_MAX == 8
        top = identity(8)
        for build in (lambda: Portrait(9, [0] * 511),
                      lambda: Portrait.decode("9:" + "0" * 128),
                      lambda: identity(9),
                      lambda: pair(top, top),
                      lambda: pair(top, top, 1),
                      lambda: next(iter_all(9))):
            with pytest.raises(ValueError, match="0..8"):
                build()

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            list(iter_all(5))

    def test_cap_is_a_hard_wall(self):
        # enumeration runs up to the module cap and no keyword raises it
        assert treeauto.ENUMERATION_LEVEL_CAP == 4
        assert sum(1 for _ in iter_all(4)) == 1 << 15
        with pytest.raises(TypeError):
            iter_all(5, cap=5)


class TestWholeSetPasses:
    """The bulk code and cycle-type passes against the single-portrait
    routes `_code_of` and `_cycle_type_of`."""

    @pytest.mark.parametrize("lvl", LEVELS)
    def test_codes_match_code_of(self, lvl):
        # more perms than one chunk, repeats allowed, order kept
        rng = random.Random(4099 + lvl)
        perms = [rand_portrait(rng, lvl).perm
                 for _ in range(treeauto._BULK + 37)]
        assert treeauto._codes(perms, lvl) == [
            treeauto._code_of(p, lvl) for p in perms]
        assert treeauto._codes([], lvl) == []

    @pytest.mark.parametrize("lvl", LEVELS)
    def test_code_order_matches_portrait_order(self, lvl):
        rng = random.Random(8209 + lvl)
        perms = {rand_portrait(rng, lvl).perm for _ in range(600)}
        ordered = treeauto._in_code_order(perms, lvl)
        assert ordered == sorted(treeauto._from_perm(lvl, p) for p in perms)
        # the codes set on the way are the codes the portraits would compute
        assert [u._code for u in ordered] == [
            treeauto._code_of(u.perm, lvl) for u in ordered]

    @pytest.mark.parametrize("lvl", LEVELS)
    def test_cycle_types_match_the_leaf_walk(self, lvl):
        # a random set is not closed under squaring: the chains of squares
        # leave it, and every square met is typed too
        rng = random.Random(12301 + lvl)
        perms = [rand_portrait(rng, lvl).perm for _ in range(300)]
        types = treeauto._cycle_types(perms)
        assert set(perms) <= set(types)
        for p, t in types.items():
            assert t == treeauto._cycle_type_of(p)
            assert t == oracles.cycle_type_of_perm(list(p))
        assert treeauto._cycle_types([]) == {}

    def test_cycle_types_refuse_a_permutation_outside_the_tree_group(self):
        # a 3-cycle: its squares never reach the identity
        with pytest.raises(ValueError, match="not a level-2 tree automorphism"):
            treeauto._cycle_types([bytes([1, 2, 0, 3])])

    def test_a_three_cycle_among_the_level_2_group_is_named(self):
        # the batch pass types the eight automorphisms' squares alongside
        # the 3-cycle's; the error still names the level and the input
        bad = bytes([1, 2, 0, 3])
        perms = list(treeauto._all_perms(2))
        perms.insert(3, bad)
        for route in (treeauto._cycle_types, treeauto._cycle_type_counts):
            with pytest.raises(ValueError, match="not a level-2 tree "
                               "automorphism: " + re.escape(repr(bad)[:20])):
                route(perms)

    @pytest.mark.parametrize("lvl", LEVELS)
    def test_fixed_points_match_a_per_permutation_count(self, lvl):
        # more perms than one chunk, the identity among them (all 256
        # leaves fixed at level 8); the empty batch counts nothing
        rng = random.Random(16411 + lvl)
        perms = [rand_portrait(rng, lvl).perm
                 for _ in range(treeauto._BULK + 37)]
        perms[100] = identity(lvl).perm
        want = [sum(1 for i, image in enumerate(p) if image == i)
                for p in perms]
        assert treeauto._fixed_points(perms, lvl) == want
        assert want[100] == 1 << lvl
        assert treeauto._fixed_points([], lvl) == []

    @pytest.mark.parametrize("lvl", LEVELS)
    def test_cycle_type_counts_match_the_leaf_walk(self, lvl):
        rng = random.Random(20011 + lvl)
        perms = {rand_portrait(rng, lvl).perm for _ in range(300)}
        assert treeauto._cycle_type_counts(perms) == collections.Counter(
            oracles.cycle_type_of_perm(list(p)) for p in perms)
        assert treeauto._cycle_type_counts([]) == {}
