"""Regenerate pool.json, the base points the survey workload samples from.

    python3 perfbench/make_pool.py

The pool holds POOL_SIZE base points a = +-u/v with u and v log-uniform
in [1, 10^6], drawn from a fixed master seed, each with the number of
usable primes its verdict consumed.  The survey workload sorts the pool
by that count and draws one point per stratum from the run's seed, so
every run sees the same mix of cheap and expensive verdicts (see
NOTES.md).  Regenerating the pool changes the survey's inputs, which
makes earlier survey figures incomparable.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

POOL_SIZE = 2048
MASTER_SEED = 20261017
HEIGHT_CAP = 10**6  # above it _squarefree_primes can stall for minutes


def draw(rng: random.Random) -> Fraction:
    span = math.log(HEIGHT_CAP)
    while True:
        u = min(HEIGHT_CAP, int(math.exp(rng.random() * span)))
        v = min(HEIGHT_CAP, int(math.exp(rng.random() * span)))
        a = Fraction(rng.choice((1, -1)) * u, v)
        if a not in (0, 2):
            return a


def main() -> int:
    import imgroups

    rng = random.Random(MASTER_SEED)
    pool = []
    for i in range(POOL_SIZE):
        a = draw(rng)
        verdict = imgroups.maximality_verdict(imgroups.BasePoint(a))
        pool.append([f"{a.numerator}/{a.denominator}", verdict.primes_tried])
        if i % 256 == 255:
            print(f"{i + 1} of {POOL_SIZE}", file=sys.stderr)
    with open(os.path.join(HERE, "pool.json"), "w", encoding="utf-8") as fh:
        json.dump({"master_seed": MASTER_SEED, "height_cap": HEIGHT_CAP,
                   "points": pool}, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
