"""Command line entry point.

Exit codes: 0 success (any delivered verdict), 1 invariant violation,
2 bad input or a prime bound too small for the point, 3 resource limit.
Output is deterministic for fixed flags and seed; JSON is emitted with
sorted keys.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import arithmodel, constantfield, maximality, polyarith, selfsim
from .errors import (
    ExcludedBasePointError,
    InsufficientDataError,
    ModelConstructionError,
    ModelInconsistencyError,
    ResourceLimitError,
    ShapeViolationError,
)
from .verify import CONFIG_KEYS, VerifyCaps, run_claims

CACHE_SYSTEM = "arith"


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--cache-dir", default=None,
                        help="cache directory (default: $IMG_CACHE_DIR)")
    common.add_argument("--config", default=None,
                        help="key = value file overriding verification caps")

    p = argparse.ArgumentParser(
        prog="img",
        description="Exact computation with the iterated monodromy groups "
                    "of x -> 2/(x-1)^2",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("group", parents=[common],
                       help="geometric group orders, subgroups, centralizers")
    g.add_argument("--level", type=int, default=4)

    a = sub.add_parser("arith", parents=[common],
                       help="arithmetic model summary and growth table")
    a.add_argument("--level", type=int, default=4)

    d = sub.add_parser("disc", parents=[common],
                       help="discriminant shapes of the iterates")
    d.add_argument("--n", type=int, default=4)

    m = sub.add_parser("maximality", parents=[common],
                       help="level-4 arboreal maximality verdict")
    m.add_argument("--a", required=True, help="rational base point, e.g. 5 or 7/3")
    m.add_argument("--prime-bound", type=int, default=None)

    r = sub.add_parser("radical", parents=[common],
                       help="nested-radical identity residuals")
    r.add_argument("--precision", type=int, default=None)
    r.add_argument("--samples", type=int, default=None)
    r.add_argument("--seed", type=int, default=None)

    v = sub.add_parser("verify", parents=[common],
                       help="run the named claim suite")
    v.add_argument("--level", type=int, default=None,
                   help="quick mode: cap group and model levels")
    v.add_argument("--prime-bound", type=int, default=None)
    v.add_argument("--samples", type=int, default=None)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--precision", type=int, default=None)
    return p


def _load_caps(args) -> VerifyCaps:
    caps = VerifyCaps()
    path = getattr(args, "config", None)
    if path:
        overrides = {}
        try:
            with open(path, encoding="utf-8") as fh:
                for lineno, raw in enumerate(fh, start=1):
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ValueError(f"line {lineno}: expected key = value")
                    key, _, value = line.partition("=")
                    key = key.strip()
                    if key not in CONFIG_KEYS:
                        raise ValueError(f"line {lineno}: unknown key {key!r}")
                    try:
                        overrides[key] = int(value.strip())
                    except ValueError:
                        raise ValueError(
                            f"line {lineno}: bad value for {key}: {value.strip()!r}"
                        ) from None
        except OSError as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from None
        caps = replace(caps, **overrides)
    for field in ("prime_bound", "samples", "seed", "precision"):
        flag = getattr(args, field, None)
        if flag is not None:
            caps = replace(caps, **{field: flag})
    return caps


def _cache_dir(args) -> str | None:
    return getattr(args, "cache_dir", None) or os.environ.get("IMG_CACHE_DIR")


def _sync_cache(cache: str, system: str, name: str, group) -> str:
    """Compare the exported group file with the fresh group, rewriting it
    unless it matches; "valid", "rebuilt" or "stale, rebuilt"."""
    cached = selfsim.load_level_group(cache, system, name, group.level)
    if cached is not None and cached.elements == group.elements:
        return "valid"
    selfsim.save_level_group(cache, system, name, group)
    return "rebuilt" if cached is None else "stale, rebuilt"


def _cmd_group(args, caps) -> tuple[dict, list[str], int]:
    level = args.level
    if level < 1:
        raise ValueError(f"group level {level} must be positive")
    g = selfsim.geometric_group(level)
    report: dict = {"level": level, "order": len(g),
                    "order_log2": len(g).bit_length() - 1}
    lines = [f"geometric group at level {level}",
             f"  order        |G{level}| = {len(g)} = 2^{len(g).bit_length() - 1}"]
    if level >= 3:
        sysf = selfsim.builtin_system_f()
        idx = {f"H{i}": selfsim.subgroup_index(g, selfsim.subgroup_H(i, level))
               for i in (1, 2, 3)}
        idx["U"] = selfsim.subgroup_index(g, selfsim.subgroup_U(level))
        comm = selfsim.commutator_subgroup(g)
        cents = {f"a{i}": len(selfsim.centralizer(g, sysf.unfold(f"a{i}", level)))
                 for i in (1, 2, 3)}
        report.update({
            "subgroup_indices": idx,
            "commutator_index": selfsim.subgroup_index(g, comm),
            "abelian_invariants": list(selfsim.abelian_invariants(g)),
            "centralizer_orders": cents,
        })
        lines.append("  indices      " + "  ".join(f"[G:{k}]={v}"
                                                   for k, v in idx.items()))
        lines.append(f"  commutator   index {report['commutator_index']}, "
                     f"abelianization Z/2 x Z/4")
        lines.append("  centralizers " + "  ".join(f"|C(a{i})|={cents[f'a{i}']}"
                                                   for i in (1, 2, 3)))
    cache = _cache_dir(args)
    if cache:
        report["cache"] = _sync_cache(cache, "f", "G", g)
        lines.append(f"  cache        {report['cache']}")
    return report, lines, 0


def _cmd_arith(args, caps) -> tuple[dict, list[str], int]:
    level = args.level
    if level < 1:
        raise ValueError(f"model level {level} must be positive")
    growth = arithmodel.order_growth_report(level)
    model = arithmodel.build_model(level)
    report: dict = {
        "level": level,
        "orders": list(growth.model_orders),
        "geometric_orders": list(growth.geometric_orders),
        "growth_factors": list(growth.growth_factors),
        "odometer_counts": list(growth.odometer_counts),
    }
    lines = [f"arithmetic model through level {level}",
             "  n    |M_n|  |G_n|  growth  odometers"]
    for i, n in enumerate(growth.levels):
        factor = str(growth.growth_factors[i - 1]) if i else "-"
        lines.append(f"  {n}  {growth.model_orders[i]:>6} "
                     f"{growth.geometric_orders[i]:>6}  {factor:>6} "
                     f"{growth.odometer_counts[i]:>9}")
    if level >= 4:
        m4 = arithmodel.build_model(4)
        phi = arithmodel.frattini_subgroup(m4)
        maxes = arithmodel.maximal_subgroups(m4)
        report["frattini_index_level4"] = selfsim.subgroup_index(m4.group, phi)
        report["maximal_subgroups_level4"] = len(maxes)
        lines.append(f"  level-4 Frattini index {report['frattini_index_level4']}"
                     f" (rank 4), {len(maxes)} maximal subgroups")
    cache = _cache_dir(args)
    if cache:
        groups = [("M", model.group)]
        if level >= 4:
            groups.append(("Frattini(M)", phi))
            groups.extend((ms.name, ms.group) for ms in maxes)
        # every file is synced; the report names the first that was not valid
        statuses = [_sync_cache(cache, CACHE_SYSTEM, name, group)
                    for name, group in groups]
        report["cache"] = next((s for s in statuses if s != "valid"), "valid")
        lines.append(f"  cache  {report['cache']}")
    return report, lines, 0


def _cmd_disc(args, caps) -> tuple[dict, list[str], int]:
    top = args.n
    # the top level first: the library refuses a level out of range before
    # any work is done
    last = polyarith.discriminant_shape(top)
    shapes = [polyarith.discriminant_shape(n) for n in range(1, top)] + [last]
    rows = []
    lines = [f"discriminant shapes, levels 1..{top}"]
    for n, shape in enumerate(shapes, 1):
        meta = polyarith.iterate_metadata(n)
        rows.append({"n": n, "sign": shape.sign, "c": shape.c, "a": shape.a,
                     "b": shape.b, "wronskian_lc": meta.wronskian_lc})
        lines.append(f"  n={n}: {shape}   (wronskian lc {meta.wronskian_lc})")
    return {"shapes": rows}, lines, 0


def _cmd_maximality(args, caps) -> tuple[dict, list[str], int]:
    point = maximality.BasePoint.parse(args.a)
    bound = args.prime_bound if args.prime_bound is not None else caps.prime_bound
    verdict = maximality.maximality_verdict(point, bound)
    report = verdict.to_json_dict()
    lines = [f"base point a = {point.text()}",
             f"verdict: {verdict.status} ({verdict.primes_tried} usable primes)"]
    sq = verdict.square_class
    lines.append("square classes: " + ", ".join(
        f"{lab} ~ {part}" for lab, part in zip(sq.labels, sq.parts))
        + (" (independent)" if sq.passed else
           f" (dependent: {{{', '.join(sq.dependent_subset or ())}}})"))
    for name, obs in verdict.frobenius_eliminations:
        lines.append(f"  {name}: eliminated by p={obs.prime}, "
                     f"profile {_profile_text(obs.profile)}")
    for name in verdict.square_class_eliminations:
        lines.append(f"  {name}: eliminated by square-class independence")
    if verdict.surviving:
        lines.append(f"  no Frobenius witness: {', '.join(verdict.surviving)}")
    for name, by_residue in (verdict.surviving_tables or {}).items():
        lines.append(f"  {name} realizes, by p mod 8 (any other profile "
                     f"of the coset rules it out):")
        for r, profiles in by_residue.items():
            lines.append(f"    {r}: " + ", ".join(
                map(_profile_text, sorted(profiles))))
    return report, lines, 0


def _profile_text(profile) -> str:
    """Cycle types on levels 1..4, e.g. 2/2+2/4+4/8+8."""
    return "/".join("+".join(map(str, level)) for level in profile)


def _cmd_radical(args, caps) -> tuple[dict, list[str], int]:
    if args.samples is not None:  # capped as the config's radical_points
        caps = replace(caps, radical_points=args.samples)
    precision = caps.precision
    samples = caps.radical_points
    seed = caps.seed
    points = constantfield.sample_points(samples, seed)
    import mpmath

    worst = {name: mpmath.mpf(0) for name in constantfield.IDENTITY_NAMES}
    ok = True
    for t0 in points:
        rep = constantfield.verify_radical_identities(t0, precision)
        ok = ok and rep.ok
        for name, res in rep.residuals.items():
            worst[name] = max(worst[name], res)
    dihedral = arithmodel.constant_field_quotient()
    report = {
        "precision": precision,
        "samples": samples,
        "seed": seed,
        "identities": {name: {"worst_residual": mpmath.nstr(val, 8)}
                       for name, val in worst.items()},
        "ok": ok,
        "dihedral": {k: v for k, v in dihedral.items()
                     if k != "noncommuting_pair"},
    }
    lines = [f"radical identities at {precision} bits, {samples} base values "
             f"(seed {seed})"]
    for name, val in worst.items():
        lines.append(f"  {name:<28} worst residual {mpmath.nstr(val, 3)}")
    lines.append(f"  all within tolerance: {'yes' if ok else 'NO'}")
    lines.append(f"dihedral check: {dihedral['group']} order "
                 f"{dihedral['order']}, "
                 f"{'non-abelian' if dihedral['nonabelian'] else 'abelian'}, "
                 f"{dihedral['involutions']} involutions")
    return report, lines, 0 if ok and dihedral["dihedral"] else 1


def _cmd_verify(args, caps) -> tuple[dict, list[str], int]:
    if args.level is not None:
        if args.level < 1:
            raise ValueError(f"verify level {args.level} must be positive")
        caps = caps.quick(args.level)
    results = run_claims(caps)
    failed = [r for r in results if r.status == "FAIL"]
    lines = [f"{r.status:<4} {r.claim:<28} {r.detail}" for r in results]
    lines.append(f"{len(results)} claims: "
                 f"{sum(r.status == 'PASS' for r in results)} passed, "
                 f"{sum(r.status == 'SKIP' for r in results)} skipped, "
                 f"{len(failed)} failed")
    report = {
        "claims": [{"claim": r.claim, "status": r.status, "detail": r.detail}
                   for r in results],
        "ok": not failed,
    }
    return report, lines, 1 if failed else 0


_DISPATCH = {
    "group": _cmd_group,
    "arith": _cmd_arith,
    "disc": _cmd_disc,
    "maximality": _cmd_maximality,
    "radical": _cmd_radical,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        caps = _load_caps(args)
        report, lines, code = _DISPATCH[args.cmd](args, caps)
    except (ExcludedBasePointError, ValueError, InsufficientDataError) as exc:
        print(f"img: error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"img: resource limit: {exc}", file=sys.stderr)
        return 3
    except (ModelConstructionError, ModelInconsistencyError,
            ShapeViolationError, AssertionError) as exc:
        print(f"img: invariant violation: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
