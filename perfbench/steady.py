#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--trace 0|1]

For every workload and end-to-end metric it prints the median of the
per-run values and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json. Spreads above a third
of the bound are marked "!", above the bound "!!". Runs are sequential.
Raw results are appended to .bench_build/perfbench/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    os.makedirs(".bench_build/perfbench", exist_ok=True)
    log = open(".bench_build/perfbench/steady.jsonl", "a")
    worst = 0.0
    for w in workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                bench["command"] + ["--workload", w, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.strip().split("\n")[-1])
            log.write(json.dumps({"workload": w, "seed": seed, **result}) + "\n")
            log.flush()
            ok = result["correct"] and result["failed"] == 0
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed"
                  + ("" if ok else "  <-- FAILED"), file=sys.stderr)
            runs.append(result)
        print(f"\n{w} ({len(runs)} runs)")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            if len(vals) >= 2 and med != 0:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / abs(med)
            else:
                spread = 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "!!" if spread > bound else "!" if spread > bound / 3 else ""
            print(f"  {m['name']:<28} median {med:14.6g} {m['unit']:<6} "
                  f"spread {spread:6.3f}" + (f" / bound {bound}" if bound else "")
                  + f" {flag}")
    print(f"\nlargest spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
