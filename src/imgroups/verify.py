"""Named claim registry driving `img verify`.

Each claim is a small self-contained check with a stable identifier.  A
claim either passes with a one-line detail, fails with the offending
values, or is skipped when the configured caps leave it out of reach.
Claims deliberately re-derive expected values through routes that differ
from the implementation under test wherever a second route exists.
"""

from __future__ import annotations

import os
import random
import tempfile
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import mpmath

from . import arithmodel, constantfield, maximality, polyarith, selfsim, treeauto
from .errors import (
    BadPrimeError,
    DegenerateTreeError,
    ExcludedBasePointError,
    ModelInconsistencyError,
    ResourceLimitError,
)


@dataclass(frozen=True)
class VerifyCaps:
    group_level: int = 6
    model_level: int = 5
    disc_n: int = 4
    prime_bound: int = 10**4
    samples: int = 10**4
    seed: int = 7
    precision: int = 256
    radical_points: int = 20

    def __post_init__(self):
        for key, low in (("prime_bound", 3), ("samples", 1), ("precision", 1),
                         ("radical_points", 1), ("group_level", 1),
                         ("model_level", 0), ("disc_n", 0)):
            value = getattr(self, key)
            if value < low:
                raise ValueError(f"verification cap {key} = {value} is below {low}")
        for key, cap in (("group_level", selfsim.GROUP_LEVEL_CAP),
                         ("model_level", selfsim.GROUP_LEVEL_CAP),
                         ("disc_n", polyarith.DISC_LEVEL_CAP),
                         ("precision", constantfield.PRECISION_CAP),
                         ("radical_points", constantfield.RADICAL_POINTS_CAP)):
            value = getattr(self, key)
            if value > cap:
                raise ResourceLimitError(
                    f"verification cap {key} = {value} exceeds {cap}")

    def quick(self, level: int) -> "VerifyCaps":
        if level > selfsim.GROUP_LEVEL_CAP:
            raise ResourceLimitError(
                f"verification cap group_level = {level} exceeds "
                f"{selfsim.GROUP_LEVEL_CAP}")
        return replace(
            self,
            group_level=min(level, self.group_level),
            model_level=min(level, self.model_level),
            disc_n=min(level, self.disc_n),
            samples=min(self.samples, 2000),
            radical_points=min(self.radical_points, 5),
        )


CONFIG_KEYS = tuple(f.name for f in fields(VerifyCaps))


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    status: str  # PASS | FAIL | SKIP
    detail: str


class _Skip(Exception):
    pass


def _need(cond: bool, reason: str) -> None:
    if not cond:
        raise _Skip(reason)


def _check(cond, detail=None) -> None:
    """Fail the claim unless cond holds; unlike `assert`, kept under -O.

    The AssertionError carries the same argument a bare `assert cond, detail`
    would, so a failing claim reports the same detail either way.
    """
    if cond:
        return
    if detail is None:
        raise AssertionError
    raise AssertionError(detail)


def _rand_portrait(rng: random.Random, level: int) -> treeauto.Portrait:
    """A uniform random portrait: its code is one draw of getrandbits."""
    bits = rng.getrandbits((1 << level) - 1)
    return treeauto._from_perm(level, treeauto._perm_of_code(level, bits))


def _perm_parity(perm) -> int:
    seen = [False] * len(perm)
    parity = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


# -- claim bodies; each returns a detail string or raises ---------------------


def _claim_wire_roundtrip(caps: VerifyCaps) -> str:
    rng = random.Random(caps.seed)
    count = 0
    for level in range(0, min(caps.group_level, 6) + 1):
        for _ in range(min(caps.samples // 50, 200)):
            u = _rand_portrait(rng, level)
            text = u.encode()
            _check(treeauto.Portrait.decode(text) == u, text)
            count += 1
    bad = ["1:", "2:X", "3:FF", "-1:0", "2:41"]
    rejected = 0
    for text in bad:
        try:
            treeauto.Portrait.decode(text)
        except ValueError:
            rejected += 1
    _check(rejected == len(bad), f"only {rejected}/{len(bad)} bad strings rejected")
    return f"{count} roundtrips, {rejected} malformed strings rejected"


def _claim_leaf_action(caps: VerifyCaps) -> str:
    rng = random.Random(caps.seed + 1)
    n = min(caps.samples, 4000)
    for _ in range(n):
        level = rng.randint(1, 5)
        u, v = _rand_portrait(rng, level), _rand_portrait(rng, level)
        w = "".join(rng.choice("12") for _ in range(level))
        _check((u * v).apply(w) == v.apply(u.apply(w)))
    return f"{n} samples: (u*v)(w) = v(u(w))"


def _claim_associative(caps: VerifyCaps) -> str:
    rng = random.Random(caps.seed + 2)
    n = min(caps.samples // 2, 3000)
    _need(n > 0, f"samples cap {caps.samples} gives no triples (needs >= 2)")
    for _ in range(n):
        level = rng.randint(1, 5)
        u, v, w = (_rand_portrait(rng, level) for _ in range(3))
        _check((u * v) * w == u * (v * w))
    return f"{n} random triples associate"


def _claim_inverse(caps: VerifyCaps) -> str:
    rng = random.Random(caps.seed + 3)
    n = min(caps.samples // 2, 3000)
    _need(n > 0, f"samples cap {caps.samples} gives no inverses (needs >= 2)")
    for _ in range(n):
        level = rng.randint(0, 6)
        u = _rand_portrait(rng, level)
        inv = u.inverse()
        _check(u * inv == treeauto.identity(level))
        _check(inv.inverse() == u)
    return f"{n} inverses verified"


def _claim_sign_character(caps: VerifyCaps) -> str:
    rng = random.Random(caps.seed + 4)
    n = min(caps.samples // 4, 1500)
    _need(n > 0, f"samples cap {caps.samples} gives no samples (needs >= 4)")
    for _ in range(n):
        level = rng.randint(1, 5)
        u, v = _rand_portrait(rng, level), _rand_portrait(rng, level)
        m = rng.randint(1, level)
        sign = u.sign(m)
        _check(sign * v.sign(m) == (u * v).sign(m))
        # independent route: parity of the full level-m leaf permutation
        _check(sign == _perm_parity(u.restrict(m).leaf_permutation()))
    return f"{n} samples: sign is a character and matches permutation parity"


def _claim_odometer_routes(caps: VerifyCaps) -> str:
    rng = random.Random(caps.seed + 5)
    hits = 0
    n = min(caps.samples // 4, 1500)
    for _ in range(n):
        level = rng.randint(1, 5)
        u = _rand_portrait(rng, level)
        cyc = u.cycle_type() == ((1 << level),)
        signs = all(u.sign(m) == -1 for m in range(1, level + 1))
        _check(cyc == signs == u.is_level_odometer())
        hits += cyc
    for level in range(1, 7):
        _check(treeauto.adding_machine(level).is_level_odometer())
    g = _rand_portrait(rng, 5)
    conj = g.inverse() * treeauto.adding_machine(5) * g
    _check(conj.is_level_odometer())
    return f"{n} samples ({hits} odometers), adding machines and a conjugate"


def _claim_conjugacy_brute(caps: VerifyCaps) -> str:
    _need(caps.group_level >= 3, "needs group level >= 3")
    omega = list(treeauto.iter_all(3))
    # g^-1 u g as leaf permutations: g^-1 first, then u, then g
    conjugators = [(treeauto._inverse(g.perm), treeauto._table(g.perm))
                   for g in omega]
    orbits: dict[bytes, frozenset] = {}
    for u in omega:
        if u.perm not in orbits:
            t = treeauto._table(u.perm)
            orbit = frozenset(gi.translate(t).translate(g)
                              for gi, g in conjugators)
            orbits.update(dict.fromkeys(orbit, orbit))
    key = {u.perm: treeauto.conjugacy_class(u) for u in omega}
    same_key: dict[tuple, set] = {}
    for perm, k in key.items():
        same_key.setdefault(k, set()).add(perm)
    # key(u) = key(v) iff v is in orbit(u), for every pair (u, v)
    for u in omega:
        wrong = same_key[key[u.perm]] ^ orbits[u.perm]
        if wrong:  # name the first pair on which the routes disagree
            raise AssertionError(
                (u, min(treeauto._from_perm(3, v) for v in wrong)))
    return f"all {len(omega) ** 2} pairs at level 3 agree with orbit enumeration"


def _claim_presentation(caps: VerifyCaps) -> str:
    level = min(caps.group_level, 4)
    checks = selfsim.verify_geometric_presentation(level)
    _check(all(checks.values()), checks)
    return f"level {level}: " + ", ".join(sorted(checks))


def _claim_triple_theorem(caps: VerifyCaps) -> str:
    out = []
    for level in range(1, min(caps.group_level, selfsim.TRIPLE_LEVEL_CAP) + 1):
        res = selfsim.verify_triple_theorem(level)
        _check(res["all_witnessed"], res)
        _check(res["wreath_description_agrees"], res)
        out.append(f"L{level}:{res['triples']}")
    return "triples witnessed exhaustively " + " ".join(out)


def _claim_geometric_orders(caps: VerifyCaps) -> str:
    got = []
    for n in range(3, caps.group_level + 1):
        order = len(selfsim.geometric_group(n))
        _check(order == 1 << (n + 2), (n, order))
        got.append(f"|G{n}|=2^{n + 2}")
    _need(bool(got), "needs group level >= 3")
    return " ".join(got)


def _claim_subgroup_indices(caps: VerifyCaps) -> str:
    _need(caps.group_level >= 3, "needs group level >= 3")
    for n in range(3, min(caps.group_level, 6) + 1):
        g = selfsim.geometric_group(n)
        idx = [selfsim.subgroup_index(g, selfsim.subgroup_H(i, n)) for i in (1, 2, 3)]
        _check(idx == [4, 2, 2], (n, idx))
        _check(selfsim.subgroup_index(g, selfsim.subgroup_U(n)) == 4, n)
    return f"H1/H2/H3 indices 4/2/2 and twist index 4 for n=3..{min(caps.group_level, 6)}"


def _claim_commutator_antidiagonal(caps: VerifyCaps) -> str:
    _need(caps.group_level >= 3, "needs group level >= 3")
    top = min(caps.group_level, 6)
    for n in range(3, top + 1):
        g = selfsim.geometric_group(n)
        comm = selfsim.commutator_subgroup(g)
        _check(selfsim.subgroup_index(g, comm) == 8, n)
        h1 = selfsim.subgroup_H(1, n)
        h3 = selfsim.subgroup_H(3, n)
        meet = h1.elements & h3.elements
        _check(comm.elements == meet, n)
        anti = {treeauto.pair(x, x.inverse(), 0).perm
                for x in selfsim.subgroup_U(n - 1)}
        _check(comm.elements == anti, n)
    return f"[G,G] = H1 meet H3 = antidiagonal twists, index 8, n=3..{top}"


def _claim_abelianization(caps: VerifyCaps) -> str:
    _need(caps.group_level >= 3, "needs group level >= 3")
    for n in range(3, min(caps.group_level, 6) + 1):
        inv = selfsim.abelian_invariants(selfsim.geometric_group(n))
        _check(inv == (2, 4), (n, inv))
    return "abelian invariants (2, 4) at every computed level"


def _claim_centralizers(caps: VerifyCaps) -> str:
    _need(caps.group_level >= 3, "needs group level >= 3")
    sysf = selfsim.builtin_system_f()
    for n in range(3, min(caps.group_level, 6) + 1):
        g = selfsim.geometric_group(n)
        for i in (1, 2, 3):
            c = selfsim.centralizer(g, sysf.unfold(f"a{i}", n))
            _check(len(c) == 8, (n, i, len(c)))
    return "all three generator centralizers have order 8, n=3.."


def _claim_twist_abelian(caps: VerifyCaps) -> str:
    _need(caps.group_level >= 2, "needs group level >= 2")
    for n in range(2, min(caps.group_level, 6) + 1):
        u = selfsim.subgroup_U(n)
        perms = list(u.elements)
        # column j holds every member's image of leaf j.  a commutes with
        # every member b iff b(a(j)) = a(b(j)) for every leaf j, that is,
        # iff column a(j) is column j translated by a
        columns = list(map(bytes, zip(*perms)))
        joined = b"".join(columns)
        if not all(b"".join([columns[x] for x in a])
                   == joined.translate(treeauto._table(a)) for a in perms):
            els = u.sorted_elements()  # name the first pair that does not
            raise AssertionError(next((n, a, b) for a in els for b in els
                                      if a * b != b * a))
    return "twist subgroup abelian at every computed level"


def _model_order(n: int) -> int:
    """|M_1| = 2, |M_2| = 8 and |M_n| = 2^(2n) from level 3 on."""
    return {1: 2, 2: 8}.get(n, 1 << (2 * n))


def _claim_model_orders(caps: VerifyCaps) -> str:
    _need(caps.model_level >= 1, "model level < 1")
    got = []
    for n in range(1, caps.model_level + 1):
        order = arithmodel.build_model(n).order
        _check(order == _model_order(n), (n, order))
        got.append(f"|M{n}|={order}")
    return " ".join(got)


def _claim_model_growth(caps: VerifyCaps) -> str:
    _need(caps.model_level >= 3, "needs model level >= 3")
    rep = arithmodel.order_growth_report(caps.model_level)
    expected = tuple(_model_order(n) // _model_order(n - 1)
                     for n in rep.levels[1:])
    _check(rep.growth_factors == expected, rep.growth_factors)
    _check(rep.model_orders == tuple(map(_model_order, rep.levels)),
           rep.model_orders)
    return (f"growth {rep.growth_factors} (level-3 jump is 8, not 4) and "
            f"|Mn| = 2^(2n) from level 3")


def _claim_model_contains_geometric(caps: VerifyCaps) -> str:
    _need(caps.model_level >= 2, "needs model level >= 2")
    for n in range(2, caps.model_level + 1):
        m = arithmodel.build_model(n)
        _check(m.geometric.elements <= m.group.elements, n)
        _check(treeauto.sigma(n) in m.group, n)
    return "geometric group and root swap inside every model"


def _claim_model_odometer_free(caps: VerifyCaps) -> str:
    _need(caps.model_level >= 3, "needs model level >= 3")
    counts = []
    for n in range(3, caps.model_level + 1):
        odos = arithmodel.odometer_elements(arithmodel.build_model(n))
        _check(not odos, (n, len(odos)))
        counts.append(n)
    return f"no full-cycle elements in levels {counts}"


def _claim_model_brute_sweep(caps: VerifyCaps) -> str:
    _need(caps.model_level >= 2, "needs model level >= 2")
    top = min(caps.model_level, treeauto.ENUMERATION_LEVEL_CAP)
    for n in range(2, top + 1):
        ok, brute, model = arithmodel.brute_model_cross_check(n)
        _check(ok, (n, brute, model))
    return f"full automorphism sweep agrees up to level {top}"


def _claim_frattini(caps: VerifyCaps) -> str:
    _need(caps.model_level >= 4, "needs model level >= 4")
    m4 = arithmodel.build_model(4)
    phi = arithmodel.frattini_subgroup(m4)  # certified on generators inside
    index = selfsim.subgroup_index(m4.group, phi)
    _check(index == 16, index)
    meet = m4.group.elements
    for sub in arithmodel.maximal_subgroups(m4):
        meet &= sub.group.elements
    _check(meet == phi.elements, len(meet))
    return "Frattini index 16 (rank 4); generator and kernel routes agree"


def _claim_maximal_count(caps: VerifyCaps) -> str:
    _need(caps.model_level >= 4, "needs model level >= 4")
    maxes = arithmodel.maximal_subgroups(arithmodel.build_model(4))
    _check(len(maxes) == 15, len(maxes))
    _check([m.name for m in maxes] == [f"Mmax-{i:02d}" for i in range(1, 16)])
    return "15 index-2 subgroups, deterministic names"


def _claim_arith_ratio(caps: VerifyCaps) -> str:
    _need(caps.model_level >= 5, "needs model level >= 5")
    m5 = arithmodel.build_model(5)
    ratio = m5.order // len(m5.geometric)
    _check(ratio == 8, ratio)
    return "|M5| / |G5| = 8"


def _claim_iterate_shape(caps: VerifyCaps) -> str:
    for n in range(2, 9):
        fr = polyarith.iterate_pair(n)
        _check(fr.g.degree() == fr.h.degree() == 1 << n, n)
        _check(fr.g.lc == 2 and fr.h.lc == 1, n)
    return "degrees 2^n, leading coefficients 2 and 1, n <= 8 (coprime mod 3)"


def _claim_resultant_routes(caps: VerifyCaps) -> str:
    rng = random.Random(caps.seed + 6)
    n = 60
    for _ in range(n):
        da, db = rng.randint(0, 6), rng.randint(0, 6)
        p = polyarith.IntPoly([rng.randint(-9, 9) for _ in range(da)] + [rng.randint(1, 9)])
        q = polyarith.IntPoly([rng.randint(-9, 9) for _ in range(db)] + [rng.randint(1, 9)])
        r1 = polyarith.resultant(p, q)
        r2 = polyarith.resultant_modular(p, q)
        _check(r1 == r2, (p, q, r1, r2))
        swap = polyarith.resultant(q, p)
        _check(swap == (-1) ** (p.degree() * q.degree()) * r1)
    _check(polyarith.resultant(polyarith.IntPoly([-1, 1]),
                               polyarith.IntPoly([1, 1])) == 2)
    return f"{n} random pairs: subresultant = CRT route, swap sign law holds"


def _claim_resultant_power_of_two(caps: VerifyCaps) -> str:
    top = max(caps.disc_n, 2)  # VerifyCaps holds disc_n to DISC_LEVEL_CAP
    checked = []
    for n in range(2, top + 1):
        hn = polyarith.iterate_pair(n).h
        for k in range(2, n + 1):
            r = polyarith.resultant(polyarith.iterate_pair(k).g, hn)
            mag = abs(r)
            _check(mag and mag & (mag - 1) == 0, (k, n, r))
            checked.append(f"({k},{n})")
    return "Res(g_k, h_n) = +/-2^e for " + " ".join(checked)


def _claim_disc_shapes(caps: VerifyCaps) -> str:
    _need(caps.disc_n >= 1, "disc cap < 1")
    shapes = []
    for n in range(1, caps.disc_n + 1):
        s = polyarith.discriminant_shape(n)
        shapes.append(f"n={n}:{s}")
    first = polyarith.discriminant_shape(1)
    _check((first.sign, first.c, first.a, first.b) == (1, 3, 1, 0), first)
    return "; ".join(shapes)


def _claim_wronskian(caps: VerifyCaps) -> str:
    for n in range(1, 7):
        meta = polyarith.iterate_metadata(n)
        _check(abs(meta.wronskian_lc) == 4**n, (n, meta.wronskian_lc))
    _check(polyarith.iterate_metadata(1).wronskian_lc == -4)
    _check(polyarith.iterate_metadata(2).wronskian_lc == -16)
    return "|D_n| = 4^n for n <= 6 (signs recorded: D1 = -4, D2 = -16)"


def _claim_specialize(caps: VerifyCaps) -> str:
    sp = polyarith.specialize_numerator(1, Fraction(5))
    _check(sp.coeffs == (-3, 10, -5), sp)
    for bad in (0, 2):
        try:
            polyarith.specialize_numerator(1, bad)
            raise AssertionError(f"base point {bad} accepted")
        except ExcludedBasePointError:
            pass
    return "n=1, a=5 gives -5x^2+10x-3; postcritical points rejected"


def _claim_factor_degrees(caps: VerifyCaps) -> str:
    poly = polyarith.specialize_numerator(1, Fraction(5))
    _check(polyarith.factor_degrees_mod_p(poly, 3) == (1, 1))
    sq = polyarith.IntPoly([1, -2, 1])  # (x-1)^2, never squarefree
    _check(polyarith.factor_degrees_mod_p(sq, 7) is None)
    try:
        polyarith.factor_degrees_mod_p(poly, 5)  # 5 divides the lc
        raise AssertionError("bad prime accepted")
    except BadPrimeError:
        pass
    return "degree splitting, squarefree filter, bad-prime rejection"


def _claim_square_classes(caps: VerifyCaps) -> str:
    r5 = maximality.square_class_test(maximality.BasePoint(Fraction(5)))
    _check(r5.passed and r5.parts == (-1, 2, 5, -3), r5)
    r1 = maximality.square_class_test(maximality.BasePoint(Fraction(1)))
    _check(not r1.passed and r1.dependent_subset in (("a",), ("2-a",)), r1)
    r8 = maximality.square_class_test(maximality.BasePoint(Fraction(8)))
    _check(not r8.passed and r8.dependent_subset == ("2", "a"), r8)
    w = Fraction(9, 4)  # representation invariance: a and a*w^2/w^2 agree
    r5b = maximality.square_class_test(maximality.BasePoint(Fraction(5) * w / w))
    _check(r5b.parts == r5.parts)
    return "a=5 independent; a=1 and a=8 fail with witnesses"


def _claim_blind_subgroups(caps: VerifyCaps) -> str:
    _need(caps.model_level >= 4, "needs model level >= 4")
    blind = maximality.cycle_blind_subgroups()
    _check(blind == ("Mmax-01", "Mmax-05", "Mmax-09", "Mmax-13", "Mmax-14"), blind)
    coset_profiles, tables = maximality._level4_data()
    types = maximality._level4_types
    for name in blind:  # each misses a cycle type of some coset of G_4
        _check(any(types(s) < types(full)
                   for s, full in zip(tables[name], coset_profiles)), name)
    return (f"5 subgroups blind to the plain cycle-type table: "
            f"{', '.join(blind)}; each misses a type within a coset of G4")


def _claim_residue_cosets(caps: VerifyCaps) -> str:
    _need(caps.model_level >= 4, "needs model level >= 4")
    coset_profiles, tables = maximality._level4_data()
    coset_types = list(map(maximality._level4_types, coset_profiles))
    _check([len(types) for types in coset_types] == [5, 5, 5, 3], coset_types)
    _check([len(profiles) for profiles in coset_profiles] == [10, 9, 8, 7])
    # only G_4 realizes 1^16, the Frobenius of a prime that splits in K_4
    _check([(1,) * 16 in types for types in coset_types]
           == [True, False, False, False])
    lab = maximality.residue_cosets()
    _check(lab.cosets == (None, 0, None, 3, None, 1, None, 2), lab.cosets)
    # the labelling must hold over another fibre too
    point = maximality.BasePoint(Fraction(7, 3))
    for obs in maximality.sample_frobenius(point, 100):
        _check(obs.profile in coset_profiles[lab.coset(obs.prime)], obs)
    # a subgroup containing G_4 is the union of two cosets; the residues
    # of those cosets are the primes where d is a square, for d of its
    # fixed quadratic field Q(sqrt(d))
    geometric = arithmodel.build_model(4).geometric.elements
    fixed = {}
    for ms in arithmodel.maximal_subgroups(arithmodel.build_model(4)):
        if not geometric <= ms.group.elements:
            _check(all(tables[ms.name]), ms.name)
            continue
        residues = {r for r in (1, 3, 5, 7) if tables[ms.name][lab.cosets[r]]}
        fixed[ms.name] = next((d for d in (-1, 2, -2) if all(
            (pow(d, (p - 1) // 2, p) == 1) == (p % 8 in residues)
            for p in polyarith.primes_up_to(200)[1:])), None)
    _check(fixed == {"Mmax-03": -2, "Mmax-05": 2, "Mmax-06": -1}, fixed)
    pins = ", ".join(str(obs.prime) for obs in lab.witnesses)
    return ("assuming K4 = Q(zeta8), p mod 8 = 1, 3, 5, 7 names cosets "
            f"0, 3, 1, 2 of G4 (5 and 7 pinned at t=5 by p = {pins}); "
            "5/5/5/3 types and 10/9/8/7 profiles per coset; Mmax-03, -05, -06 contain G4 and fix "
            "Q(sqrt-2), Q(sqrt2), Q(i)")


def _claim_verdict_a5(caps: VerifyCaps) -> str:
    _need(caps.model_level >= 4, "needs model level >= 4")
    bound = min(caps.prime_bound, 10**4)
    v = maximality.maximality_verdict(maximality.BasePoint(Fraction(5)), bound)
    _check(v.status == "maximal", v.status)
    _check(len(v.frobenius_eliminations) == 15)
    _check(len(v.square_class_eliminations) == 15)
    return (f"a=5 maximal with {v.primes_tried} usable primes; every "
            f"maximal subgroup has a prime witness")


def _claim_verdict_recheck(caps: VerifyCaps) -> str:
    _need(caps.model_level >= 4, "needs model level >= 4")
    for a, expected in ((Fraction(5), "maximal"), (Fraction(1), "not_maximal")):
        v = maximality.maximality_verdict(maximality.BasePoint(a),
                                          min(caps.prime_bound, 10**4))
        _check(v.status == expected, (a, v.status))
        _check(maximality.recheck_certificate(v), a)
    return "stored certificates recheck with every witness recomputed"


def _claim_elimination_edges(caps: VerifyCaps) -> str:
    _need(caps.model_level >= 4, "needs model level >= 4")
    model = arithmodel.build_model(4)
    rep = maximality.eliminate_maximal_subgroups((), model)
    _check(len(rep.surviving) == 15 and not rep.eliminated)
    coset_profiles, _ = maximality._level4_data()
    lab = maximality.residue_cosets()
    full = [maximality.FrobeniusObservation(prime=p, profile=pr)
            for p in (17, 3, 5, 7) for pr in coset_profiles[lab.coset(p)]]
    rep2 = maximality.eliminate_maximal_subgroups(full, model)
    _check(not rep2.surviving and len(rep2.eliminated) == 15, rep2.surviving)
    identity = tuple((1,) * (1 << k) for k in range(1, 5))
    try:
        maximality.eliminate_maximal_subgroups(
            [maximality.FrobeniusObservation(prime=3, profile=identity)],
            model)
        raise AssertionError("1^16 accepted at p = 3 mod 8")
    except ModelInconsistencyError:
        pass
    return ("empty data eliminates nothing; every coset's profiles at "
            "primes 17, 3, 5, 7 eliminate all 15; 1^16 at p=3 is refused")


def _claim_preimage_tree(caps: VerifyCaps) -> str:
    tree = constantfield.preimage_tree(3, 1, caps.precision)
    a1, a2 = tree.value("1"), tree.value("2")
    _check(abs(a1 - mpmath.mpf("1.816496580927726")) < 1e-12)
    _check(abs(a2 - mpmath.mpf("0.183503419072274")) < 1e-12)
    try:
        constantfield.preimage_tree(2, 1, caps.precision)
        raise AssertionError("postcritical root accepted")
    except DegenerateTreeError:
        pass
    return "t0=3 children match, postcritical root rejected"


def _claim_radical_identities(caps: VerifyCaps) -> str:
    pts = constantfield.sample_points(caps.radical_points, caps.seed)
    worst = mpmath.mpf(0)
    for t0 in pts:
        rep = constantfield.verify_radical_identities(t0, caps.precision)
        _check(rep.ok, (t0, rep.residuals))
        worst = max(worst, max(rep.residuals.values()))
    return (f"{len(pts)} base values at {caps.precision} bits, worst "
            f"residual {mpmath.nstr(worst, 3)}")


def _claim_radical_shrink(caps: VerifyCaps) -> str:
    t0 = mpmath.mpc(3, 2)
    lo = constantfield.verify_radical_identities(t0, caps.precision)
    hi = constantfield.verify_radical_identities(t0, caps.precision * 2)
    for name in constantfield.IDENTITY_NAMES:
        a, b = lo.residuals[name], hi.residuals[name]
        _check(b == 0 or (a / b) >= mpmath.mpf(10) ** 10, (name, a, b))
    return "doubling precision shrinks every residual by >= 10^10"


def _claim_branch_flips(caps: VerifyCaps) -> str:
    _check(constantfield.branch_flip_invariance(mpmath.mpc(3, 2), caps.precision))
    return "identity (3) invariant under any single branch flip"


def _claim_dihedral(caps: VerifyCaps) -> str:
    _need(caps.model_level >= 5, "needs model level >= 5")
    rep = arithmodel.constant_field_quotient()
    _check(rep["dihedral"], rep)
    return ("M5/G5: order 8, non-abelian, 5 involutions "
            "(dihedral, not quaternion)")


def _claim_cache_roundtrip(caps: VerifyCaps) -> str:
    g3 = selfsim.geometric_group(3)
    with tempfile.TemporaryDirectory() as tmp:
        path = selfsim.save_level_group(tmp, "f", "G", g3)
        again = selfsim.load_level_group(tmp, "f", "G", 3)
        _check(again is not None and again.elements == g3.elements)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace("G 3", "G 4", 1))
        _check(selfsim.load_level_group(tmp, "f", "G", 3) is None)
        with open(path, "w") as fh:
            fh.write(text + "junk\n")
        _check(selfsim.load_level_group(tmp, "f", "G", 3) is None)
    return "save/load roundtrip; corrupted headers and bodies rejected"


CLAIMS = (
    ("portrait-wire-roundtrip", _claim_wire_roundtrip),
    ("portrait-leaf-action", _claim_leaf_action),
    ("portrait-associativity", _claim_associative),
    ("portrait-inverse", _claim_inverse),
    ("sign-character-two-routes", _claim_sign_character),
    ("odometer-two-routes", _claim_odometer_routes),
    ("conjugacy-brute-force", _claim_conjugacy_brute),
    ("wreath-presentation", _claim_presentation),
    ("composable-triples", _claim_triple_theorem),
    ("geometric-orders", _claim_geometric_orders),
    ("subgroup-indices", _claim_subgroup_indices),
    ("commutator-antidiagonal", _claim_commutator_antidiagonal),
    ("abelianization-2-4", _claim_abelianization),
    ("generator-centralizers", _claim_centralizers),
    ("twist-subgroup-abelian", _claim_twist_abelian),
    ("model-orders", _claim_model_orders),
    ("model-growth-profile", _claim_model_growth),
    ("model-contains-geometric", _claim_model_contains_geometric),
    ("model-odometer-free", _claim_model_odometer_free),
    ("model-brute-sweep", _claim_model_brute_sweep),
    ("frattini-rank-4", _claim_frattini),
    ("maximal-subgroups-15", _claim_maximal_count),
    ("arith-geometric-ratio-8", _claim_arith_ratio),
    ("iterate-shape", _claim_iterate_shape),
    ("resultant-two-routes", _claim_resultant_routes),
    ("resultant-power-of-two", _claim_resultant_power_of_two),
    ("discriminant-shapes", _claim_disc_shapes),
    ("wronskian-lead-4n", _claim_wronskian),
    ("specialize-numerator", _claim_specialize),
    ("factor-degrees-mod-p", _claim_factor_degrees),
    ("square-class-examples", _claim_square_classes),
    ("cycle-blind-subgroups", _claim_blind_subgroups),
    ("frobenius-residue-cosets", _claim_residue_cosets),
    ("maximality-a5", _claim_verdict_a5),
    ("certificate-recheck", _claim_verdict_recheck),
    ("elimination-edge-cases", _claim_elimination_edges),
    ("preimage-tree-values", _claim_preimage_tree),
    ("radical-identities", _claim_radical_identities),
    ("radical-residual-shrink", _claim_radical_shrink),
    ("radical-branch-flips", _claim_branch_flips),
    ("dihedral-automorphisms", _claim_dihedral),
    ("levelgroup-cache", _claim_cache_roundtrip),
)


def run_claims(caps: VerifyCaps = VerifyCaps()) -> list[ClaimResult]:
    results = []
    for name, body in CLAIMS:
        try:
            detail = body(caps)
            results.append(ClaimResult(name, "PASS", detail))
        except _Skip as sk:
            results.append(ClaimResult(name, "SKIP", str(sk)))
        except AssertionError as exc:
            results.append(ClaimResult(name, "FAIL", str(exc) or "assertion failed"))
        except Exception as exc:  # noqa: BLE001 - keep the suite running
            results.append(ClaimResult(name, "FAIL", f"{type(exc).__name__}: {exc}"))
    return results
