"""
Iterates, resultants, and discriminant shapes
=============================================

Writing the n-th iterate of 2/(x-1)^2 as g_n/h_n in lowest terms, the
pair obeys the clean recursion

    g_n = 2 * h_(n-1)^2,      h_n = (g_(n-1) - h_(n-1))^2

and everything arithmetic about the family (resultants, discriminants,
Wronskians) turns out to be made of 2, t, and 2 - t alone.
"""

from fractions import Fraction

from imgroups import (
    discriminant_shape,
    factor_degrees_mod_p,
    iterate_metadata,
    iterate_pair,
    resultant,
    resultant_modular,
    specialize_numerator,
)

# the recursion, and an exact functional sanity check at x = 3
x0 = Fraction(3)
value = x0
for n in range(1, 5):
    it = iterate_pair(n)
    value = 2 / (value - 1) ** 2
    assert Fraction(it.g(x0), it.h(x0)) == value
print("iterates match direct composition at x = 3, levels 1..4")

# resultants of the pair are pure powers of two, by two different
# algorithms (subresultant chain vs CRT over sieved moduli above 2^62)
it2 = iterate_pair(2)
print("Res(g_2, h_2) =", resultant(it2.g, it2.h),
      "=", resultant_modular(it2.g, it2.h), "(both routes)")

# Wronskian leading coefficients: +-4^n
print("\n  n  wronskian lc")
for n in range(1, 7):
    print(f"  {n}  {iterate_metadata(n).wronskian_lc:>12}")

# the discriminant of g_n - t*h_n in x, as a function of t, is always
# sign * 2^c * t^a * (2-t)^b; nothing else ever appears
print("\ndiscriminant shapes:")
for n in range(1, 5):
    print(f"  n={n}:  {discriminant_shape(n)}")

# specialize the level-2 numerator at t = 5 and look at its splitting
# behavior mod a few primes (this feeds the maximality machinery)
num = specialize_numerator(2, Fraction(5))
print("\ng_2 - 5*h_2 =", num.to_text())
for p in (7, 11, 13, 17, 19):
    print(f"  factor degrees mod {p}:", factor_degrees_mod_p(num, p))
