#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the command in BENCHMARK.json once per seed for each named workload,
from the repository root, and prints each metric's median and its spread:
the distance between the first and third quartiles as a share of the
median. End-to-end spreads are compared with a third of the metric's
bound (`setup_s` only reports).

    python3 simbench/spread.py --workloads active_ring protocol_sweep \
        --seeds 10 [--first-seed 1] [--seconds 20] [--trace 0]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--raw", action="store_true", help="print every value")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(out.stdout, file=sys.stderr)
                steady = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {args.seeds} runs of {seconds} s")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med != 0:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med)
            else:
                spread = 0.0
            verdict = ""
            if name in bounds and name != "setup_s":
                ok = spread <= bounds[name] / 3
                steady &= ok
                verdict = f"bound/3 {bounds[name] / 3:.3f} {'ok' if ok else 'WIDE'}"
            print(f"  {name:<28} median {med:<14.6g} spread {spread:7.4f}  {verdict}")
            if args.raw:
                print("    " + " ".join(f"{v:.6g}" for v in vals))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
