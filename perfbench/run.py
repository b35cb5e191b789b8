"""imgroups benchmark: survey, tower and verify workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 40 --trace 0

Load comes from this single process: a closed loop with one client and
no threads, one cold child process (``child.py``) at a time.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
makes one untraced and one traced pass over the same inputs and prints
the per-layer metrics, each layer's self time and the tracing overhead.
Human-readable lines come first; the last line of standard output is
one JSON object.  The exit code is 1 when any correctness gate fails,
and 2 when the benchmark itself cannot run (for example without the
package sources next to it).  See NOTES.md for why each workload and
metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("survey", "tower", "verify")
SETUP_CHILDREN = 5        # set-ups timed per run, after one untimed
CHILD_TIMEOUT_S = 150
MIN_VERDICTS = 112        # so that at least ten verdicts lie beyond p90
VERDICTS_PER_S = 4.8      # survey verdicts, gates included, per run second
MIN_PASSES = 2            # tower and verify passes per untraced run

E2E = (("setup_s", "s"), ("peak_rss_mb", "MiB"),
       ("norm_throughput_per_s", "1/s"), ("norm_latency_p50_ms", "ms"),
       ("norm_latency_p90_ms", "ms"))


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# -- inputs ---------------------------------------------------------------------


def survey_points(seed: int, count: int) -> list[str]:
    """A stratified random sample of the pool, in random order.

    The pool is sorted by the number of primes each verdict consumed and
    cut into ``count`` equal strata; the seed picks one point from each.
    Every run thus gets the same mix of cheap and expensive verdicts,
    while the points themselves change with the seed.
    """
    with open(os.path.join(HERE, "pool.json"), encoding="utf-8") as fh:
        pool = sorted(json.load(fh)["points"], key=lambda e: (e[1], e[0]))
    if not 1 <= count <= len(pool):
        raise BenchError(f"{count} survey points asked of a pool of {len(pool)}")
    rng = random.Random(seed)
    n = len(pool)
    picks = []
    for k in range(count):
        lo, hi = k * n // count, (k + 1) * n // count
        picks.append(pool[lo + rng.randrange(hi - lo)][0])
    rng.shuffle(picks)
    return picks


# -- child processes ------------------------------------------------------------


def spawn(spec: dict) -> dict:
    """Run one child to completion; adds its set-up and work wall times."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        proc.stdin.write(json.dumps(spec).encode())
        proc.stdin.close()
        out, ready = b"", None
        deadline = t0 + CHILD_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - perf_counter()
                if left <= 0 or not sel.select(left):
                    raise BenchError(f"child timed out: {spec['workload']} "
                                     f"{spec['mode']}")
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                out += chunk
                if ready is None and b"\n" in out:
                    ready = perf_counter()
        end = perf_counter()
        code = proc.wait(timeout=max(1.0, deadline - end))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = out.decode().splitlines()
    if code != 0 or not lines or lines[0] != "READY":
        raise BenchError(f"child failed with exit code {code}: "
                         f"{spec['workload']} {spec['mode']}")
    result = json.loads(lines[-1])
    result["setup_s"] = ready - t0
    result["work_s"] = end - ready
    return result


def setup_times(workload: str) -> list[tuple[float, float]]:
    """(wall seconds, reference seconds) of each timed set-up.

    The wall time runs from spawning the child to its READY line, less
    the child's calibrations; the child's own clock gives the speed.
    """
    spawn({"workload": workload, "mode": "setup"})  # untimed: warms bytecode
    out = []
    for _ in range(SETUP_CHILDREN):
        r = spawn({"workload": workload, "mode": "setup"})
        wall = r["setup_s"] - r["setup_overhead_s"]
        out.append((wall, wall * r["setup_speed"]))
    return out


def work_spec(workload: str, seed: int, mode: str, points=None) -> dict:
    return {"workload": workload, "mode": mode, "seed": seed,
            "points": points}


def untraced_passes(workload: str, seed: int, seconds: float) -> list[dict]:
    """Cold passes until the next one would overrun the run's seconds."""
    if workload == "survey":
        # one child; the verdict count is fixed by the seconds, not timed
        count = max(MIN_VERDICTS, round(VERDICTS_PER_S * seconds))
        return [spawn(work_spec(workload, seed, "run",
                                survey_points(seed, count)))]
    passes = []
    t0 = perf_counter()
    while (len(passes) < MIN_PASSES or perf_counter() - t0
           + passes[-1]["setup_s"] + passes[-1]["work_s"] <= seconds):
        passes.append(spawn(work_spec(workload, seed, "run")))
    return passes


# -- statistics -----------------------------------------------------------------


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(workload: str, seed: int, seconds: float):
    setups = setup_times(workload)
    passes = untraced_passes(workload, seed, seconds)
    raw = [t for p in passes for t in p["latencies"]]
    norm = [t for p in passes for t in p["norm"]]
    n = len(raw)
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "norm_throughput_per_s": n / sum(norm),
        "norm_latency_p50_ms": statistics.median(norm) * 1e3,
        "norm_latency_p90_ms": p90(norm) * 1e3,
    }
    lines = [f"{name:<22} {metrics[name]:>14.6f} {unit}" for name, unit in E2E]
    lines.append(f"setup wall clock       {statistics.median(w for w, _ in setups):>14.6f} s "
                 f"(median of {len(setups)} set-ups)")
    lines.append(f"calibration loop       {sum(raw) / sum(norm):>14.6f} ms "
                 f"(mean over the work; 1 at the reference speed)")
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if workload == "survey":
        s = passes[0]
        p90_ms = p90(raw) * 1e3
        lines += [
            f"verdicts_per_s         {n / sum(raw):>14.6f} 1/s (wall clock)",
            f"verdict_p50_ms         {statistics.median(raw) * 1e3:>14.6f} ms (wall clock)",
            f"verdict_p90_ms         {p90_ms:>14.6f} ms (wall clock; n = {n} "
            f"verdicts, {sum(t * 1e3 > p90_ms for t in raw)} beyond p90)",
            f"verdict statuses       {json.dumps(s['statuses'], sort_keys=True)}",
        ]
        digests = {s["digest"]}
        digest_note = f"all {n} verdicts"
    else:
        name = f"{workload}_s"
        lines.append(f"{name:<22} {statistics.median(raw):>14.6f} s (wall clock; "
                     f"median of {n} cold passes: "
                     + ", ".join(f"{t:.3f}" for t in raw) + ")")
        digests = {p["digest"] for p in passes}
        digest_note = f"identical over {n} passes" if len(digests) == 1 \
            else "DIFFERS between passes"
        if len(digests) > 1:
            failures.append([workload, "outputs differ between cold passes"])
    lines.append(f"fail_frac              {len(failures) / attempted:>14.6f} ratio "
                 f"({len(failures)} of {attempted} operations)")
    lines.append(f"output_digest          sha256:{sorted(digests)[0]} ({digest_note})")
    return metrics, attempted, failures, lines


def traced(workload: str, seed: int, seconds: float, units: dict[str, str]):
    if workload == "survey":
        # a third of the untraced count: the replays double the work
        points = survey_points(seed, max(16, round(VERDICTS_PER_S * seconds / 3)))
    else:
        points = None
    plain = spawn(work_spec(workload, seed, "run", points))
    run = spawn(work_spec(workload, seed, "trace", points))
    all_spans = run["spans"]

    def in_work(s):
        return s["request"] != "setup"

    work = [s for s in all_spans if in_work(s)]
    metrics = dict.fromkeys(units, 0)
    metrics.update(run["probes"])
    for layer, t in spans.layer_self_times(all_spans, in_work).items():
        metrics[f"{layer}.self_s"] = t
    selfs = spans.self_times(all_spans)
    for s in all_spans:
        name = s["name"]
        if s["request"] == "setup" or workload == "tower":
            metrics[name + "_s"] = spans.duration(s)
    traced_time = sum(run["latencies"])
    plain_time = sum(plain["latencies"])
    if workload == "survey":
        calls = run["factor_degrees_calls"]
        fd = spans.total(work, "polyarith.factor_degrees_mod_p")
        verdict_self = sum(t for s, t in zip(all_spans, selfs)
                           if s["name"] == "maximality.maximality_verdict")
        primes = run["primes_tried"]
        metrics.update({
            "polyarith.factor_degrees_s": fd,
            "polyarith.factor_degrees_calls": calls,
            "polyarith.factor_degrees_us_per_call": fd / calls * 1e6 if calls else 0.0,
            "polyarith.bad_primes": run["bad_primes"],
            "maximality.square_class_s": spans.total(work, "maximality.square_class_test"),
            "polyarith.squarefree_part_s": spans.total(work, "polyarith.squarefree_part"),
            "polyarith.specialize_numerator_s": spans.total(work, "polyarith.specialize_numerator"),
            "maximality.verdict_self_s": verdict_self,
            "maximality.verdicts": len(run["latencies"]),
            "maximality.primes_tried": primes,
            "maximality.useful_prime_ratio": run["witness_primes"] / primes if primes else 0.0,
        })
        for status in ("maximal", "not_maximal", "inconclusive"):
            metrics[f"maximality.status.{status}"] = run["statuses"].get(status, 0)
    elif workload == "tower":
        for layer, call in (("selfsim", "geometric_group"), ("selfsim", "subgroup_U")):
            metrics[f"{layer}.{call}_s"] = sum(
                spans.duration(s) for s in work
                if s["name"].startswith(f"{layer}.{call}."))
        metrics["arithmodel.lift_kept_ratio.l6"] = run["lift_kept_ratio"]
    else:
        for group in CLAIM_GROUPS:
            metrics[f"verify.{group}_claims_s"] = sum(
                spans.duration(s) for s in work
                if s["name"].split(".")[1] == group)
        metrics["cli.overhead_s"] = plain_time - traced_time
    metrics["trace.overhead_ratio"] = sum(run["norm"]) / sum(plain["norm"]) - 1
    metrics = {name: metrics[name] for name in units}
    lines = [f"{name:<44} {value:>16.6f} {units[name]}"
             for name, value in metrics.items()]
    lines.append(f"traced {traced_time:.4f} s over untraced {plain_time:.4f} s "
                 f"wall clock ({len(all_spans)} spans in memory); calibration "
                 f"loop {traced_time / sum(run['norm']):.6f} ms")
    attempted = plain["attempted"] + run["attempted"]
    failures = plain["failures"] + run["failures"]
    if plain["digest"] != run["digest"]:
        failures.append([workload, "traced and untraced outputs differ"])
    return metrics, attempted, failures, lines


CLAIM_GROUPS = ("treeauto", "selfsim", "arithmodel", "polyarith",
                "maximality", "constantfield", "cache", "other")


def per_layer_units() -> dict[str, str]:
    """The per-layer metrics, in BENCHMARK.json's order, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "imgroups", "__init__.py")):
        print("perfbench: no package sources at src/imgroups", file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  (closed loop, one client, one cold child "
          f"at a time)")
    try:
        if args.trace:
            units = per_layer_units()
            metrics, attempted, failures, lines = traced(
                args.workload, args.seed, args.seconds, units)
        else:
            metrics, attempted, failures, lines = end_to_end(
                args.workload, args.seed, args.seconds)
            units = dict(E2E)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    for what, why in failures:
        print(f"FAILED {what}: {why}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
