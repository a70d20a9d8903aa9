#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark several times per workload, each run with another seed
(or, with --same-seed, one seed repeated), and prints for every end-to-end
metric its median and its spread: the distance between the first and third
quartile of the runs' values, as a share of their median. A metric is steady
when its spread stays below a third of its bound in BENCHMARK.json
(setup_s is only required to keep its median). It also counts the distinct
virtual-time fingerprints of the untraced reps.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --workloads launch_wide tool_traffic
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    fps = set()
    for line in lines:
        m = re.match(r"fingerprints .* distinct=\d+ (.*)$", line)
        if m:
            fps.update(m.group(1).split())
    return json.loads(lines[-1]), fps


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for w in args.workloads:
        values = {name: [] for name in bounds}
        fps = set()
        failed = 0
        for i in range(args.runs):
            seed = args.seed if args.same_seed else args.seed + i
            res, run_fps = run_once(w, seed, args.seconds)
            fps |= run_fps
            failed += res["failed"] + (0 if res["correct"] else 1)
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"  {w} seed={seed} " + " ".join(
                f"{n}={res['metrics'][n]['value']:.6g}" for n in bounds), flush=True)
        print(f"{w}: runs={args.runs} failed={failed} distinct_fingerprints={len(fps)}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            verdict = "ok" if spread < bounds[name] / 3 else (
                "WITHIN-BOUND" if spread <= bounds[name] else "TOO-WIDE")
            if name == "setup_s":
                verdict = "median-only"
            print(f"  {name:12s} median={med:<14.6g} spread={spread:.4f} "
                  f"bound={bounds[name]} {verdict}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
