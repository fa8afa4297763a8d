#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs one workload once per seed and prints, for every metric, its median
and the quartile spread (Q3 - Q1) / median, as Python's
statistics.quantiles(values, n=4) gives the quartiles. Run from the
repository root:

    python3 perfbench/spread.py --workload hot_read --seeds 1-10 [--trace 1]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--raw", action="store_true", help="also print every value")
    args = ap.parse_args()

    values = {}
    for seed in args.seeds:
        started = time.monotonic()
        out = subprocess.run(
            COMMAND + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", args.seconds, "--trace", args.trace],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: ok ({result['attempted']} operations, "
              f"{time.monotonic() - started:.1f} s)", file=sys.stderr)

    print(f"{'metric':<32} {'median':>14} {'spread':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        raw = "  " + " ".join(f"{v:.4g}" for v in vals) if args.raw else ""
        print(f"{name:<32} {med:>14.6g} {spread:>8.3f}{raw}")


if __name__ == "__main__":
    main()
