#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's median and
spread (interquartile range as a share of the median).

Run from the repository root:

    python3 perfbench/spread.py --workload fig5_ex11 --seeds 1-10

The command and the run length come from BENCHMARK.json; each metric's
spread is compared with a third of its bound, the margin a steady
benchmark keeps.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, help="overrides run_seconds")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--show", action="store_true", help="print every value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: INCORRECT {result['failed']}/{result['attempted']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: attempted {result['attempted']}", file=sys.stderr)

    print(f"{'metric':<36} {'median':>14} {'spread':>8} {'bound/3':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
        else:
            spread = 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  WIDE"
        limit = f"{bound / 3:8.4f}" if bound is not None else " " * 8
        print(f"{name:<36} {med:>14.4f} {spread:>8.4f} {limit}{flag}")
        if args.show:
            print("    " + " ".join(f"{v:.4g}" for v in vals))


if __name__ == "__main__":
    main()
