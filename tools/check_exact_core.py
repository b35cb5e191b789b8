"""Check that the exact core of the package runs without mpmath.

    PYTHONPATH=src python3 tools/check_exact_core.py

Imports `imgroups`, certifies the level-4 maximality of a = 5, compares
the level-2 and level-5 discriminant shapes with their pinned texts (the
level-5 one runs the shape's CRT guard at the level cap) and fails if
mpmath was imported along the way.  It needs nothing outside the standard
library, so it also runs where mpmath is not installed.  Exit 0 when every
check holds, 1 otherwise, with one line per failed check on stderr.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import imgroups

DISC_SHAPES = {2: "-2^16 * t^3 * (2-t)^1", 5: "+2^1072 * t^24 * (2-t)^22"}


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
    if "mpmath" in sys.modules:
        failures.append("the exact core imported mpmath")
    for failure in failures:
        print(f"check_exact_core: {failure}", file=sys.stderr)
    if not failures:
        print("exact core: a = 5 maximal, disc shapes n = 2, 5 pinned, no mpmath")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
