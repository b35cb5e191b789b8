"""
Arboreal maximality certificates at level 4
===========================================

For a rational base point a (not 0 or 2), the level-4 Galois image sits
inside the 256-element arithmetic model.  To certify it is everything,
each of the 15 maximal subgroups must be ruled out, by two routes:

  * a Frobenius observation (splitting degrees of the specialized
    iterates mod p at levels 1 to 4) is the profile of a group element,
    its cycle types on levels 1 to 4, in the coset of the geometric
    group that p mod 8 names, because the level-4 constant field is
    Q(zeta_8); a subgroup missing that profile in that coset is
    eliminated.  Five subgroups realize every level-4 cycle type of the
    model, so only the coset and the lower levels rule them out;
  * the independence of the square classes of -1, 2, a, 2 - a pins the
    quotient modulo the Frattini subgroup directly, ruling out all 15.

Every verdict is a certificate.  Its recheck recomputes the square
classes and, at each witness prime, the Frobenius profile, then checks
the witnesses against the per-coset profile tables.
"""

import dataclasses
from fractions import Fraction

from imgroups import (
    BasePoint,
    cycle_blind_subgroups,
    maximality_verdict,
    recheck_certificate,
    residue_cosets,
    sample_frobenius,
    square_class_test,
)

# the square-class gate
for a in (5, 1, 8):
    rep = square_class_test(BasePoint(Fraction(a)))
    verdictish = "independent" if rep.passed else \
        f"dependent, witness subset {rep.dependent_subset}"
    print(f"a = {a}: classes {rep.parts} -> {verdictish}")

# raw Frobenius data for a = 5: primes and observed profiles, the cycle
# types on levels 1 to 4
obs = sample_frobenius(BasePoint(Fraction(5)), 60)
print("\nfirst observations for a = 5:")
for o in obs[:6]:
    print(f"  p = {o.prime:>3}: " +
          " / ".join("+".join(map(str, level)) for level in o.profile))

# five subgroups the plain level-4 cycle-type table cannot touch; the
# coset of G_4 that p mod 8 names and the profile give each a witness
print("\nblind to the plain cycle-type table:", ", ".join(cycle_blind_subgroups()))
labels = residue_cosets()
print("coset of G_4 by p mod 8:", ", ".join(
    f"{r} -> {labels.cosets[r]}" for r in (1, 3, 5, 7)))

# full verdicts
v = maximality_verdict(BasePoint(Fraction(5)))
print(f"\na = 5: {v.status} after {v.primes_tried} usable primes")
print("  eliminated by Frobenius:",
      ", ".join(f"{n}@p={o.prime}" for n, o in v.frobenius_eliminations))
print("  eliminated by square classes:",
      ", ".join(v.square_class_eliminations))

v1 = maximality_verdict(BasePoint(Fraction(1)))
print(f"a = 1: {v1.status} ({v1.reason})")

# small prime bounds leave survivors rather than overclaiming
v30 = maximality_verdict(BasePoint(Fraction(21)), 30)
print(f"a = 21 with primes < 30: {v30.status}, surviving {v30.surviving}")

# certificates recheck, and tampering is caught
print("\nrecheck stored certificate:", recheck_certificate(v))
name, o = v.frobenius_eliminations[0]
forged = dataclasses.replace(
    v,
    frobenius_eliminations=((name, dataclasses.replace(
        o, profile=tuple((1,) * (1 << k) for k in range(1, 5)))),)
    + v.frobenius_eliminations[1:],
)
print("recheck forged certificate:", recheck_certificate(forged))
