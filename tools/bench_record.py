"""Run perfbench/run.py in a checkout and append its result to a JSON file.

    python3 tools/bench_record.py --checkout ../parent --side parent \
        --workload survey --seed 4242 --seconds 40 --out BENCH_7.json

The benchmark's last output line (one JSON object) is stored together with
its `output_digest` line, the checkout's commit, whether its src/ or
perfbench/ had uncommitted changes (a change measured before it is
committed), the side label, workload, seed, seconds, trace flag and exit
code.  The output file holds one JSON list; each run appends one entry.
Alternate --side parent and --side change runs, swapping which side goes
first, to build the pairs behind a performance claim.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def _git(checkout: str, *args: str) -> str:
    return subprocess.run(["git", "-C", checkout, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", required=True,
                    help="root of the checkout whose perfbench/run.py runs")
    ap.add_argument("--side", required=True, help="label, e.g. parent or change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="JSON file to append to")
    args = ap.parse_args(argv)

    checkout = os.path.abspath(args.checkout)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
         "--trace", str(args.trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"bench_record: no JSON result line from {checkout} "
              f"(exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
        return 2
    entry = {
        "side": args.side,
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--",
                           "src", "perfbench")),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "exit": proc.returncode,
        "output_digest": next((l.split(None, 1)[1] for l in lines
                               if l.startswith("output_digest")), None),
        "result": result,
    }
    runs = []
    if os.path.exists(args.out):
        with open(args.out) as fh:
            runs = json.load(fh)
    runs.append(entry)
    with open(args.out, "w") as fh:
        json.dump(runs, fh, indent=1)
        fh.write("\n")
    metrics = result.get("metrics", {})
    print(f"{args.side:<8} {args.workload} seed {args.seed}: "
          + "  ".join(f"{k} {v['value']:.4g}" for k, v in sorted(metrics.items())))
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
