"""
Nested radicals and the constant field
======================================

The preimage tree of a base value t under 2/(x-1)^2 is built from
nested square roots: each vertex carries 1 +- sqrt(2/parent).  Four
squared identities relate vertices across the tree; they are exact
algebraic facts, so their numerical residuals measure roundoff only,
and doubling the working precision must crush them.

Their upshot: adjoining the tree values only ever adds i, sqrt(2),
sqrt(t) and sqrt(2 - t) to the base field, and the resulting extension
has the dihedral group of order 8 behind it, not the quaternion one.
On the group side that is Q_5 = M_5 / G_5, the arithmetic level-5 model
modulo the geometric group, read off its coset table.
"""

import mpmath

from imgroups import (
    branch_flip_invariance,
    constant_field_quotient,
    preimage_tree,
    sample_points,
    verify_radical_identities,
)

# a depth-1 tree at t = 3: the two children are 1 +- sqrt(2/3)
tree = preimage_tree(3, 1, 128)
print("children of t = 3:", mpmath.nstr(tree.values["1"], 12),
      "and", mpmath.nstr(tree.values["2"], 12))

# identity residuals at one point
rep = verify_radical_identities(3, 256)
print("\nresiduals at t = 3, 256 bits:")
for name, res in rep.residuals.items():
    print(f"  {name:<28} {mpmath.nstr(res, 3)}")

# doubling the precision: every residual shrinks by many orders
hi = verify_radical_identities(3, 512)
print("\nafter doubling the precision:")
for name in rep.residuals:
    a, b = rep.residuals[name], hi.residuals[name]
    shrink = "exactly 0" if b == 0 else f"x {mpmath.nstr(a / b, 3)}"
    print(f"  {name:<28} {shrink}")

# branch choices do not matter once the identities are squared
print("\ninvariant under every single branch flip:",
      branch_flip_invariance(3, 192))

# a sweep over pseudorandom complex base values, avoiding 0 and 2
worst = mpmath.mpf(0)
for t0 in sample_points(20, 2024):
    r = verify_radical_identities(t0, 256)
    assert r.ok
    worst = max(worst, max(r.residuals.values()))
print("worst residual over 20 sampled points:", mpmath.nstr(worst, 3))

# the group-theoretic fingerprint of the constant field extension
q = constant_field_quotient()
print(f"\n{q['group']}: order {q['order']}, non-abelian: {q['nonabelian']}, "
      f"{q['involutions']} involutions -> dihedral: {q['dihedral']}")
