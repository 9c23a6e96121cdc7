#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver measures it.

Runs the command of BENCHMARK.json ten times per workload, each time with
another --seed, and prints for every (workload, metric) the median, the
distance between the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), and the metric's bound. A spread is
comfortable below a third of its bound. Run from the repository root:

    python3 histbench/spread.py [--seeds 10] [--first-seed 1] [--workload NAME]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace),
            ]
            started = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited with {out.returncode}:\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"# {workload} seed {seed}: {time.time() - started:.1f} s", flush=True)
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) < 2 or med == 0:
                continue
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
            bound = bounds.get(name)
            note = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                note = f"  bound {bound:.2f}" + ("" if spread < bound / 3 else "  WIDE")
            print(f"{workload:<13} {name:<40} median {med:>14.4f}  iqr/median {spread:7.4f}{note}", flush=True)
    print(f"# widest spread is {worst:.2f} of its bound")


if __name__ == "__main__":
    main()
