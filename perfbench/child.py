"""One cold benchmark process: set up, signal READY, run, report.

``run.py`` starts this file once per pass with a fresh interpreter, so
the package's in-process caches (the model cache, the ``lru_cache``d
groups and iterates, the level-4 tables) always start cold.  The spec
arrives as one JSON object on standard input; the child prints ``READY``
as soon as it is set up and one JSON result line when it is done.

Every timed call is checked only after its timing ends, with explicit
checks that still run under ``python -O``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
from calib import RefClock  # noqa: E402

CLAIM_MODULE = {
    "portrait-wire-roundtrip": "treeauto",
    "portrait-leaf-action": "treeauto",
    "portrait-associativity": "treeauto",
    "portrait-inverse": "treeauto",
    "sign-character-two-routes": "treeauto",
    "odometer-two-routes": "treeauto",
    "conjugacy-brute-force": "treeauto",
    "wreath-presentation": "selfsim",
    "composable-triples": "selfsim",
    "geometric-orders": "selfsim",
    "subgroup-indices": "selfsim",
    "commutator-antidiagonal": "selfsim",
    "abelianization-2-4": "selfsim",
    "generator-centralizers": "selfsim",
    "twist-subgroup-abelian": "selfsim",
    "model-orders": "arithmodel",
    "model-growth-profile": "arithmodel",
    "model-contains-geometric": "arithmodel",
    "model-odometer-free": "arithmodel",
    "model-brute-sweep": "arithmodel",
    "frattini-rank-4": "arithmodel",
    "maximal-subgroups-15": "arithmodel",
    "arith-geometric-ratio-8": "arithmodel",
    "iterate-shape": "polyarith",
    "resultant-two-routes": "polyarith",
    "resultant-power-of-two": "polyarith",
    "discriminant-shapes": "polyarith",
    "wronskian-lead-4n": "polyarith",
    "specialize-numerator": "polyarith",
    "factor-degrees-mod-p": "polyarith",
    "square-class-examples": "maximality",
    "cycle-blind-subgroups": "maximality",
    "maximality-a5": "maximality",
    "certificate-recheck": "maximality",
    "elimination-edge-cases": "maximality",
    "preimage-tree-values": "constantfield",
    "radical-identities": "constantfield",
    "radical-residual-shrink": "constantfield",
    "radical-branch-flips": "constantfield",
    "dihedral-automorphisms": "constantfield",
    "levelgroup-cache": "cache",
}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def group_digest(group) -> str:
    text = "\n".join(u.encode() for u in group.sorted_elements())
    return hashlib.sha256(text.encode()).hexdigest()


# -- survey ---------------------------------------------------------------------


def survey_setup(tracer):
    import imgroups
    from imgroups.maximality import DEFAULT_PRIME_BOUND
    from imgroups.polyarith import primes_up_to

    if tracer is None:
        imgroups.cycle_blind_subgroups()
        primes_up_to(DEFAULT_PRIME_BOUND)
        return
    # traced set-up times the level-4 pieces one by one before the tables
    # reuse the cached model
    with tracer.span("arithmodel.build_model.l4", "setup"):
        m4 = imgroups.build_model(4)
    with tracer.span("arithmodel.maximal_subgroups.l4", "setup"):
        imgroups.maximal_subgroups(m4)
    with tracer.span("arithmodel.cycle_type_table.l4", "setup"):
        imgroups.cycle_type_table(m4.group)
    with tracer.span("maximality.level4_tables", "setup"):
        imgroups.cycle_blind_subgroups()
    with tracer.span("polyarith.prime_sieve", "setup"):
        primes_up_to(DEFAULT_PRIME_BOUND)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _root_count(coeffs, p: int) -> int:
    """Roots in F_p of the polynomial with the given low-to-high coefficients."""
    cs = [c % p for c in reversed(coeffs)]
    roots = 0
    for x in range(p):
        r = 0
        for c in cs:
            r = (r * x + c) % p
        roots += r == 0
    return roots


def survey_gate(verdict) -> str | None:
    """None if the verdict is sound, else the reason it is not."""
    import imgroups

    if not imgroups.recheck_certificate(verdict):
        return "recheck_certificate rejected the certificate"
    if not verdict.frobenius_eliminations:
        return None
    poly = imgroups.specialize_numerator(4, verdict.point.a)
    for name, obs in verdict.frobenius_eliminations:
        p = obs.prime
        if p == 2 or not _is_prime(p) or poly.lc % p == 0:
            return f"witness prime {p} for {name} is not a good odd prime"
        if imgroups.factor_degrees_mod_p(poly, p) != obs.cycle_type:
            return f"cycle type at {p} for {name} does not re-derive"
        if obs.cycle_type.count(1) != _root_count(poly.coeffs, p):
            return (f"witness at {p} for {name}: {obs.cycle_type.count(1)} "
                    f"linear factors but {_root_count(poly.coeffs, p)} roots")
    return None


def survey_replay(tracer, parent: int, index: int, point, verdict) -> dict:
    """Re-run the layer calls the verdict made, as replayed child spans."""
    import imgroups
    from imgroups.maximality import DEFAULT_PRIME_BOUND
    from imgroups.polyarith import primes_up_to

    a = point.a
    with tracer.span("maximality.square_class_test", index, parent=parent,
                     replay=True) as sq:
        imgroups.square_class_test(point)
    for value in (Fraction(-1), Fraction(2), a, 2 - a):
        with tracer.span("polyarith.squarefree_part", index, parent=sq,
                         replay=True):
            imgroups.squarefree_part(value)
    stats = {"bad": 0, "usable": 0}
    if verdict.status == "not_maximal":
        return stats
    with tracer.span("polyarith.specialize_numerator", index, parent=parent,
                     replay=True):
        poly = imgroups.specialize_numerator(4, a)
    # one span over the whole prime stream: a span per call would add its
    # own cost thousands of times and swamp the verdict's self time
    with tracer.span("polyarith.factor_degrees_mod_p", index, parent=parent,
                     replay=True):
        for p in primes_up_to(DEFAULT_PRIME_BOUND):
            if stats["usable"] == verdict.primes_tried:
                break
            if p == 2 or poly.lc % p == 0:
                continue
            if imgroups.factor_degrees_mod_p(poly, p) is None:
                stats["bad"] += 1
            else:
                stats["usable"] += 1
    return stats


def run_survey(spec, tracer, clock) -> dict:
    import imgroups

    latencies, norm, failures, statuses = [], [], [], {}
    primes_tried = witness_primes = bad = calls = 0
    digest = hashlib.sha256()
    for index, text in enumerate(spec["points"]):
        point = imgroups.BasePoint(Fraction(text))
        w0, r0 = clock.now()
        try:
            if tracer is None:
                verdict = imgroups.maximality_verdict(point)
            else:
                with tracer.span("maximality.maximality_verdict", index) as vs:
                    verdict = imgroups.maximality_verdict(point)
        except Exception as exc:  # noqa: BLE001 - a failed verdict is recorded
            verdict, error = None, f"{type(exc).__name__}: {exc}"
        w1, r1 = clock.now()
        latencies.append(w1 - w0)
        norm.append(r1 - r0)
        if verdict is None:
            failures.append([text, error])
            continue
        if tracer is not None:
            stats = survey_replay(tracer, vs, index, point, verdict)
            bad += stats["bad"]
            calls += stats["bad"] + stats["usable"]
        reason = survey_gate(verdict)
        if tracer is not None and stats["usable"] != verdict.primes_tried:
            reason = "replayed prime stream ran short"
        if reason is not None:
            failures.append([text, reason])
        statuses[verdict.status] = statuses.get(verdict.status, 0) + 1
        if verdict.status != "not_maximal":
            primes_tried += verdict.primes_tried
            witness_primes += len({obs.prime for _, obs in
                                   verdict.frobenius_eliminations})
        digest.update((canonical(verdict.to_json_dict()) + "\n").encode())
    return {
        "latencies": latencies,
        "norm": norm,
        "attempted": len(latencies),
        "failures": failures,
        "digest": digest.hexdigest(),
        "statuses": statuses,
        "primes_tried": primes_tried,
        "witness_primes": witness_primes,
        "bad_primes": bad,
        "factor_degrees_calls": calls,
    }


# -- tower ----------------------------------------------------------------------


def tower_stages():
    """(span name, call, gate, digest) for each stage, in build order.

    Each stage is called in increasing level order, so lower levels are
    already cached and a stage's time covers its own level only.
    """
    import imgroups

    out = []
    models = {}

    def g_gate(n):
        return lambda g: None if n < 3 or len(g) == 2 ** (n + 2) else \
            f"|G_{n}| = {len(g)}, expected {2 ** (n + 2)}"

    def m_gate(n):
        return lambda m: None if not 3 <= n <= 6 or m.order == 2 ** (2 * n) \
            else f"|M_{n}| = {m.order}, expected {2 ** (2 * n)}"

    def phi_gate(n):
        return lambda phi: None if len(models[n].group) == 16 * len(phi) else \
            f"[M_{n} : Phi] = {len(models[n].group) // len(phi)}, expected 16"

    def keep_model(n):
        def call():
            models[n] = imgroups.build_model(n, allow_deep=True)
            return models[n]
        return call

    for n in range(1, 8):
        out.append((f"selfsim.geometric_group.l{n}",
                    lambda n=n: imgroups.geometric_group(n), g_gate(n),
                    group_digest))
        out.append((f"selfsim.subgroup_U.l{n}",
                    lambda n=n: imgroups.subgroup_U(n), None, group_digest))
    for n in range(1, 7):
        out.append((f"arithmodel.build_model.l{n}", keep_model(n), m_gate(n),
                    lambda m: group_digest(m.group)))
    for n in (4, 5, 6):
        out.append((f"arithmodel.frattini_subgroup.l{n}",
                    lambda n=n: imgroups.frattini_subgroup(models[n]),
                    phi_gate(n), group_digest))
    out.append(("arithmodel.maximal_subgroups.l4",
                lambda: imgroups.maximal_subgroups(models[4]),
                lambda ms: None if len(ms) == 15 else
                f"{len(ms)} maximal subgroups of M4, expected 15",
                lambda ms: [[m.name, group_digest(m.group)] for m in ms]))
    out.append(("arithmodel.cycle_type_table.l6",
                lambda: imgroups.cycle_type_table(models[6].group), None,
                lambda t: sorted([list(k), v] for k, v in t.items())))
    out.append(("selfsim.commutator_subgroup.l7",
                lambda: imgroups.commutator_subgroup(imgroups.geometric_group(7)),
                None, group_digest))
    shape2 = "-2^16 * t^3 * (2-t)^1"
    for n in range(1, 6):
        out.append((f"polyarith.discriminant_shape.n{n}",
                    lambda n=n: imgroups.discriminant_shape(n),
                    (lambda s: None if str(s) == shape2 else
                     f"discriminant_shape(2) = {s}, expected {shape2}")
                    if n == 2 else None,
                    str))
    return out, models


def run_tower(spec, tracer, clock) -> dict:
    stages, models = tower_stages()
    results, failures = [], []
    w0, r0 = clock.now()
    for name, call, _, _ in stages:
        try:
            if tracer is None:
                value = call()
            else:
                with tracer.span(name, name):
                    value = call()
        except Exception as exc:  # noqa: BLE001 - a stage failure is recorded
            value = exc
        results.append(value)
    w1, r1 = clock.now()
    digest = hashlib.sha256()
    for (name, _, gate, summary), value in zip(stages, results):
        if isinstance(value, Exception):
            failures.append([name, f"{type(value).__name__}: {value}"])
            continue
        reason = gate(value) if gate else None
        if reason is not None:
            failures.append([name, reason])
        digest.update((canonical([name, summary(value)]) + "\n").encode())
    out = {"latencies": [w1 - w0], "norm": [r1 - r0],
           "attempted": len(stages), "failures": failures,
           "digest": digest.hexdigest()}
    if tracer is not None and 5 in models and 6 in models:
        m5, m6 = models[5], models[6]
        out["lift_kept_ratio"] = m6.order / (2 * m5.order * len(m5.twist))
    return out


# -- verify ---------------------------------------------------------------------


def run_verify(spec, tracer, clock) -> dict:
    seed = spec["seed"]
    failures = []
    if tracer is None:
        from imgroups import cli

        buf = io.StringIO()
        w0, r0 = clock.now()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--format", "json", "--seed", str(seed)])
        w1, r1 = clock.now()
        report = json.loads(buf.getvalue())
        claims = [[c["claim"], c["status"], c["detail"]]
                  for c in report["claims"]]
        if code != 0:
            failures.append(["img verify", f"exit code {code}"])
    else:
        from imgroups import CLAIMS, VerifyCaps

        caps = VerifyCaps(seed=seed)
        claims = []
        w0, r0 = clock.now()
        for name, body in CLAIMS:
            module = CLAIM_MODULE.get(name, "other")
            try:
                with tracer.span(f"verify.{module}.{name}", name):
                    detail = body(caps)
                claims.append([name, "PASS", detail])
            except Exception as exc:  # noqa: BLE001 - a failing claim is recorded
                claims.append([name, "FAIL", f"{type(exc).__name__}: {exc}"])
        w1, r1 = clock.now()
    failures += [[name, f"{status}: {detail}"]
                 for name, status, detail in claims if status != "PASS"]
    return {"latencies": [w1 - w0], "norm": [r1 - r0], "attempted": len(claims),
            "failures": failures,
            "digest": hashlib.sha256(canonical(claims).encode()).hexdigest()}


# -- probes run after a traced workload -----------------------------------------


def _per_call(batch, fn, reps: int = 5, floor: int = 4000) -> float:
    """Median microseconds per call over repeated timed batches."""
    loops = max(1, floor // len(batch))
    samples = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(loops):
            for args in batch:
                fn(*args)
        samples.append((perf_counter() - t0) / (loops * len(batch)))
    samples.sort()
    return samples[len(samples) // 2] * 1e6


def kernel_probes(workload: str) -> tuple[dict, list]:
    import imgroups

    out, failures = {}, []
    for n in (4, 6):
        g = imgroups.geometric_group(n)
        batch = [(x, s) for x in g.sorted_elements() for s in g.generators]
        out[f"treeauto.product_us.l{n}"] = _per_call(batch, lambda x, s: x * s)
    g6 = imgroups.geometric_group(6)
    out["treeauto.inverse_us.l6"] = _per_call(
        [(x,) for x in g6.sorted_elements()], lambda x: x.inverse())
    if workload != "tower":
        return out, failures
    m6 = imgroups.build_model(6, allow_deep=True)
    t0 = perf_counter()
    again = imgroups.closure(m6.group.generators, max_size=len(m6.group))
    out["selfsim.closure.l6_s"] = perf_counter() - t0
    if again.elements != m6.group.elements:
        failures.append(["selfsim.closure.l6", "closure of M6's generators "
                         "is not M6"])
    fr = imgroups.iterate_pair(5)
    F = fr.g - fr.h.scale(3)
    dF = F.derivative()
    t0 = perf_counter()
    r1 = imgroups.resultant(F, dF)
    out["polyarith.resultant.n5_s"] = perf_counter() - t0
    t0 = perf_counter()
    r2 = imgroups.resultant_modular(F, dF)
    out["polyarith.resultant_modular.n5_s"] = perf_counter() - t0
    if r1 != r2:
        failures.append(["polyarith.resultant.n5", "subresultant and CRT "
                         "routes disagree on Res(g5 - 3 h5, d/dx)"])
    return out, failures


# -- entry ----------------------------------------------------------------------


SETUP = {
    "survey": survey_setup,
    "tower": lambda tracer: None,
    "verify": lambda tracer: __import__("imgroups.cli"),
}
RUN = {"survey": run_survey, "tower": run_tower, "verify": run_verify}


def main() -> int:
    spec = json.loads(sys.stdin.read())
    workload = spec["workload"]
    # the speed is measured here, on this process's own core: slow spells
    # can hit one core and not the other
    clock = RefClock()
    clock.start()
    tracer = None
    if spec["mode"] == "trace":
        tracer = spans.Tracer(now=lambda: clock.now()[0])
    import imgroups  # noqa: F401 - the import is part of set-up

    SETUP[workload](tracer)
    wall, ref = clock.now()
    setup = {"setup_speed": ref / wall, "setup_overhead_s": clock.overhead}
    print("READY", flush=True)
    if spec["mode"] == "setup":
        result = {}
    else:
        result = RUN[workload](spec, tracer, clock)
    clock.stop()
    if tracer is not None:
        result["spans"] = tracer.spans
        result["probes"], probe_failures = kernel_probes(workload)
        result["failures"] += probe_failures
    result.update(setup)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
