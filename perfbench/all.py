#!/usr/bin/env python3
"""Runs every benchmark workload, untraced then traced, and prints a table.

    python3 perfbench/all.py [--seed N] [--seconds S]

Run from the repository root. For each workload in BENCHMARK.json it calls
run.py with --trace 0 (end-to-end metrics) and --trace 1 (per-layer
metrics and the per-rank trace), prints every metric with its unit and the
correctness verdict of each run, and exits non-zero when any run is not
correct. Takes about 5 minutes at the default settings.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    all_correct = True
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 w, "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{w} trace={trace}: run.py exited {proc.returncode}")
                all_correct = False
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            all_correct &= out["correct"]
            print(f"{w} trace={trace}: correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']}")
            for name, m in out["metrics"].items():
                print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print("all runs correct" if all_correct else "SOME RUNS NOT CORRECT")
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
