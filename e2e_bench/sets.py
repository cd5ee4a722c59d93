#!/usr/bin/env python3
"""Runs a set of benchmark runs and reports how steady each metric is.

    python3 e2e_bench/sets.py [--runs N]

Run from the repository root. The set runs every workload of BENCHMARK.json
once per seed 1..N (10 by default), interleaved seed-major so workloads
alternate, with the command and run length from BENCHMARK.json and
`--trace 0`. For every end-to-end metric it prints the median, the quartiles,
and the spread: the distance between the first and third quartile as a share
of the median, next to the metric's bound. Each result line is also appended
to .bench_work/sets.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    os.makedirs(".bench_work", exist_ok=True)
    results = {w: [] for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}, no result", flush=True)
                continue
            result = json.loads(lines[-1])
            results[w].append(result)
            with open(".bench_work/sets.jsonl", "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, "result": result}) + "\n")
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    worst = 0.0
    for w in workloads:
        runs = results[w]
        print(f"\n{w}: {len(runs)} run(s)")
        if len(runs) < 2:
            continue
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m["bound"]
            worst = max(worst, spread / bound)
            flag = "  OVER BOUND" if spread > bound else (
                "  over bound/3" if spread > bound / 3 else "")
            print(f"  {m['name']:<28} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.2%} of bound {bound:.0%}{flag}")
    print(f"\nworst spread/bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
