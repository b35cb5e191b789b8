"""Numeric checks of the nested-radical structure of the preimage tree.

The preimages of a complex number alpha under x -> 2/(x-1)^2 are
1 + sqrt(2/alpha) and 1 - sqrt(2/alpha) (principal branch).  Iterating
from a base value fills a binary tree whose entries satisfy exact
algebraic identities once squared; here they are verified at high
precision, with residuals reported rather than hidden.  The group side
of the constant field, Q_5 = M_5 / G_5, is read off the arithmetic model
by `arithmodel.constant_field_quotient`.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

from .errors import DegenerateTreeError

MAX_TREE_DEPTH = 8
DEFAULT_PRECISION = 256
DEFAULT_SAMPLES = 20
# `img radical` and `img verify` refuse more bits or base values than this;
# one base value takes about 8 ms at 256 bits, 60 ms at 4,096 and 0.17 s at
# 8,192 on a 2-core machine, and `img verify` also runs at twice the bits
PRECISION_CAP = 4096
RADICAL_POINTS_CAP = 1000

IDENTITY_NAMES = (
    "child-product",      # a_{l1} a_{l2} = (a_l - 2)/a_l
    "pair-product",       # ((a_{l1}-1)(a_{l'1}-1))^2 = 4/(a_l a_{l'})
    "depth3-square-is-minus-one",
    "double-reciprocal",  # [... ]^2 = 2(a - 2)
)


def _tolerance(precision: int) -> mpmath.mpf:
    return mpmath.mpf(2) ** (-(precision // 2))


@dataclass(frozen=True)
class PreimageTreeNumeric:
    root: complex
    depth: int
    precision: int
    values: dict  # word over "12" -> mpmath.mpc

    def value(self, word: str):
        return self.values[word]


def preimage_tree(t0, depth: int, precision: int = DEFAULT_PRECISION, *,
                  flipped=frozenset()) -> PreimageTreeNumeric:
    """Fill the preimage tree below t0 with the principal branch.

    flipped: set of words at which the two square-root branches are
    exchanged (the children swap roles); used to demonstrate that the
    squared identities do not depend on branch choices.
    """
    if not 0 <= depth <= MAX_TREE_DEPTH:
        raise ValueError(f"depth {depth} out of range 0..{MAX_TREE_DEPTH}")
    flipped = frozenset(flipped)
    with mpmath.workprec(precision):
        tol = _tolerance(precision)
        t0 = mpmath.mpc(t0)
        values = {"": t0}
        frontier = [""]
        for _ in range(depth):
            nxt = []
            for word in frontier:
                a = values[word]
                if abs(a) <= tol or abs(a - 2) <= tol:
                    raise DegenerateTreeError(
                        f"value at vertex {word or 'root'} is within "
                        f"tolerance of the postcritical set {{0, 2}}"
                    )
                s = mpmath.sqrt(2 / a)
                c1, c2 = 1 + s, 1 - s
                if word in flipped:
                    c1, c2 = c2, c1
                values[word + "1"] = c1
                values[word + "2"] = c2
                nxt.extend((word + "1", word + "2"))
            frontier = nxt
        for word in values:
            if word and abs(values[word]) <= tol:
                raise DegenerateTreeError(
                    f"value at vertex {word} is within tolerance of 0"
                )
        # construction invariant: children really are preimages
        for word, a in values.items():
            if not word:
                continue
            back = 2 / (values[word] - 1) ** 2
            parent = values[word[:-1]]
            scale = max(mpmath.mpf(1), abs(parent))
            if abs(back - parent) / scale > tol:  # pragma: no cover
                raise AssertionError(f"preimage relation fails at {word}")
    return PreimageTreeNumeric(root=complex(t0), depth=depth,
                               precision=precision, values=values)


def _rel_residual(lhs, rhs) -> mpmath.mpf:
    scale = max(mpmath.mpf(1), abs(rhs))
    return abs(lhs - rhs) / scale


@dataclass(frozen=True)
class RadicalReport:
    t0: complex
    precision: int
    tolerance_log2: int
    residuals: dict  # identity name -> mpmath.mpf
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "t0": [repr(self.t0.real), repr(self.t0.imag)],
            "precision": self.precision,
            "tolerance_log2": self.tolerance_log2,
            "residuals": {k: mpmath.nstr(v, 8) for k, v in self.residuals.items()},
            "ok": self.ok,
        }


def verify_radical_identities(t0, precision: int = DEFAULT_PRECISION, *,
                              flipped=frozenset()) -> RadicalReport:
    """Residuals of the four squared radical identities at one base value.

    All four are exact algebraic consequences of the preimage relation,
    so the residuals measure roundoff only; a violation beyond tolerance
    is reported in the result, not raised.
    """
    tree = preimage_tree(t0, 3, precision, flipped=flipped)
    v = tree.values
    with mpmath.workprec(precision):
        inner = [w for w in v if len(w) <= 2]

        r1 = mpmath.mpf(0)
        for w in inner:
            a = v[w]
            r1 = max(r1, _rel_residual(v[w + "1"] * v[w + "2"], (a - 2) / a))

        r2 = mpmath.mpf(0)
        for w in inner:
            for w2 in inner:
                if w2 == w:
                    continue
                lhs = ((v[w + "1"] - 1) * (v[w2 + "1"] - 1)) ** 2
                r2 = max(r2, _rel_residual(lhs, 4 / (v[w] * v[w2])))

        x = (v["111"] - 1) * (v["121"] - 1) / 2 * (v["11"] - 1) / (v["21"] - 1)
        r3 = _rel_residual(x ** 2, mpmath.mpc(-1))

        y = 1 / (v["1"] - 1) * 2 / (v["11"] - 1) * 2 / (v["21"] - 1)
        r4 = _rel_residual(y ** 2, 2 * (v[""] - 2))

        tol = _tolerance(precision)
        residuals = dict(zip(IDENTITY_NAMES, (r1, r2, r3, r4)))
        ok = all(res <= tol for res in residuals.values())
    return RadicalReport(
        t0=complex(v[""]),
        precision=precision,
        tolerance_log2=-(precision // 2),
        residuals=residuals,
        ok=ok,
    )


def branch_flip_invariance(t0, precision: int = DEFAULT_PRECISION) -> bool:
    """Identity (3) after flipping the branch at each single inner vertex."""
    tol = _tolerance(precision)
    for word in ("", "1", "2", "11", "12", "21", "22"):
        rep = verify_radical_identities(t0, precision,
                                        flipped=frozenset((word,)))
        if rep.residuals["depth3-square-is-minus-one"] > tol:
            return False
    return True


def sample_points(samples: int = DEFAULT_SAMPLES, seed: int = 2024):
    """Deterministic complex base values away from the postcritical set."""
    import random

    rng = random.Random(seed)
    out = []
    while len(out) < samples:
        re = rng.uniform(-6, 6)
        im = rng.uniform(-6, 6)
        if abs(complex(re, im)) < 0.2 or abs(complex(re - 2, im)) < 0.2:
            continue
        out.append(complex(re, im))
    return out
