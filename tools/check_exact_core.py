"""Check that the exact core of the package runs without mpmath.

    PYTHONPATH=src python3 tools/check_exact_core.py
    PYTHONPATH=src python3 -O tools/check_exact_core.py

Imports `imgroups`, certifies the level-4 maximality of a = 5, compares
the level-2 and level-5 discriminant shapes with their pinned texts (the
level-5 one runs the shape's subresultant guard at the level cap),
compares the coefficients of the iterate pair (g_8, h_8), built by
Kronecker products, with a digest taken from schoolbook products,
compares the sorted leaf permutations of M_6, of its Frattini subgroup
and of M_7 (of order 16384, the last model below the level cap), the
cycle type table of M_6, the names and element sets of the fifteen
level-4 maximal subgroups and the 2^15 level-4 automorphisms in
enumeration order with pinned sha256 digests, checks that the
brute-force sweep of those automorphisms finds M_4, and fails if mpmath
was imported along the way.  It needs nothing outside the standard
library, so it also runs where mpmath is not installed, and no check
rests on `assert`, so it means the same under `python -O`.  Exit 0 when
every check holds, 1 otherwise, with one line per failed check on stderr.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction

import imgroups
from imgroups.treeauto import _all_perms

DISC_SHAPES = {2: "-2^16 * t^3 * (2-t)^1", 5: "+2^1072 * t^24 * (2-t)^22"}
# sha256 of g_8's `to_text()`, a newline and h_8's, from schoolbook products
ITERATE8_DIGEST = ("70a1239ba8960f3793a93b576dc1cb75a8e35ae944e6bcfd01e3c542e"
                   "79d841b")
# sha256 of M_6's leaf permutations, sorted and concatenated
M6_DIGEST = "0cef5be19d1c3da79854a4b25eb7ca566ea02953fca2ef1690ddb51ac4855e0e"
# sha256 of M_7's leaf permutations, sorted and concatenated, from the
# Schreier orbit walk that built M_7 before the affine construction
M7_ORDER = 16384
M7_DIGEST = "ea4fc3d5ad5cd7deeb3d170578537bec9ef47d4e73f0acdffa29114f44124f41"
# sha256 of Phi(M_6)'s leaf permutations, sorted and concatenated
PHI6_DIGEST = "948c6e6cd7fdbda7b9b98b34f27372c668044bf8610ce1a7d47ff2538d7def2d"
# sha256 of repr(cycle_type_table(M_6)), the types in sorted order
M6_TYPES_DIGEST = ("05e5df8db05eb0703458a5803e64023de3d9eaaab312666b67c658264"
                   "ba43bf0")
# sha256 over the maximal subgroups of M_4 in order, each fed as its name,
# a newline and its sorted leaf permutations concatenated
KERNELS_DIGEST = "4fa02364d09bed2c6ca117bfbfb348f4c16f9ecea6949d976b369cc30ce6239a"
# sha256 of the level-4 leaf permutations joined in enumeration (code)
# order, taken when each was made by its own translate
ALL_PERMS4_DIGEST = ("ad337e8a3bd17d00c2fa404c104efae01376e239b56c6594215d98ff9"
                     "e2b6687")


def _perms(group) -> bytes:
    return b"".join(sorted(group.elements))


def main() -> int:
    failures = []
    verdict = imgroups.maximality_verdict(imgroups.BasePoint(Fraction(5)))
    if verdict.status != "maximal":
        failures.append(f"a = 5 gave {verdict.status}, not maximal")
    for n, want in DISC_SHAPES.items():
        shape = str(imgroups.discriminant_shape(n))
        if shape != want:
            failures.append(f"discriminant shape at n = {n} is {shape!r}, "
                            f"not {want!r}")
    fr = imgroups.iterate_pair(8)
    pair8 = hashlib.sha256(f"{fr.g.to_text()}\n{fr.h.to_text()}".encode())
    if pair8.hexdigest() != ITERATE8_DIGEST:
        failures.append(f"(g_8, h_8) digest is {pair8.hexdigest()}, not "
                        f"{ITERATE8_DIGEST}")
    model6 = imgroups.build_model(6)
    m6 = hashlib.sha256(_perms(model6.group)).hexdigest()
    if m6 != M6_DIGEST:
        failures.append(f"M_6 digest is {m6}, not {M6_DIGEST}")
    model7 = imgroups.build_model(7)
    if model7.order != M7_ORDER:
        failures.append(f"|M_7| is {model7.order}, not {M7_ORDER}")
    m7 = hashlib.sha256(_perms(model7.group)).hexdigest()
    if m7 != M7_DIGEST:
        failures.append(f"M_7 digest is {m7}, not {M7_DIGEST}")
    phi6 = hashlib.sha256(_perms(imgroups.frattini_subgroup(model6))).hexdigest()
    if phi6 != PHI6_DIGEST:
        failures.append(f"Phi(M_6) digest is {phi6}, not {PHI6_DIGEST}")
    types = repr(imgroups.cycle_type_table(model6.group)).encode()
    types6 = hashlib.sha256(types).hexdigest()
    if types6 != M6_TYPES_DIGEST:
        failures.append(f"M_6 cycle type table digest is {types6}, not "
                        f"{M6_TYPES_DIGEST}")
    kernels = hashlib.sha256()
    for sub in imgroups.maximal_subgroups(imgroups.build_model(4)):
        kernels.update(sub.name.encode() + b"\n" + _perms(sub.group))
    if kernels.hexdigest() != KERNELS_DIGEST:
        failures.append(f"level-4 maximal subgroups digest is "
                        f"{kernels.hexdigest()}, not {KERNELS_DIGEST}")
    all4 = hashlib.sha256(b"".join(_all_perms(4))).hexdigest()
    if all4 != ALL_PERMS4_DIGEST:
        failures.append(f"level-4 enumeration digest is {all4}, not "
                        f"{ALL_PERMS4_DIGEST}")
    sweep = imgroups.brute_model_cross_check(4)
    if sweep != (True, 256, 256):
        failures.append(f"the level-4 brute sweep gave {sweep}, not "
                        f"(True, 256, 256)")
    if "mpmath" in sys.modules:
        failures.append("the exact core imported mpmath")
    for failure in failures:
        print(f"check_exact_core: {failure}", file=sys.stderr)
    if not failures:
        print("exact core: a = 5 maximal, disc shapes n = 2, 5, (g_8, h_8), "
              "M_6, M_7, Phi(M_6), M_6's cycle types, the level-4 maximal "
              "subgroups and enumeration pinned, the level-4 brute sweep "
              "agrees, no mpmath")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
