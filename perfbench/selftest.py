#!/usr/bin/env python3
"""Quick self-test of the benchmark harness on tiny grids (about a minute).

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it runs
run.py at --scale tiny with tracing off and on, and checks that the last
line has exactly the result keys, that every metric BENCHMARK.json names
is printed with its unit, that the outputs are judged correct, and that the
trace file parses. It also checks that one seed gives the same job list and
images twice and that another seed gives different ones. Exits non-zero on
the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the harness under test)


def check(cond, msg):
    if not cond:
        print(f"selftest FAILED: {msg}", file=sys.stderr)
        sys.exit(1)


def run_tiny(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180)
    check(proc.returncode == 0, f"{workload} trace={trace}: exit "
          f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(driver, workload, seed):
    proc = subprocess.run(
        [driver, "--workload", workload, "--seed", str(seed), "--seconds",
         "1", "--describe", "--scale", "tiny"],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)["inputs_digest"]


def main():
    driver = run.build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in (w["name"] for w in spec["workloads"]):
        same = describe(driver, w, 7) == describe(driver, w, 7)
        check(same, f"{w}: seed 7 gave two different input sets")
        check(describe(driver, w, 7) != describe(driver, w, 8),
              f"{w}: seeds 7 and 8 gave the same inputs")
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = run_tiny(w, 7, trace)
            check(set(out) == {"correct", "attempted", "failed", "metrics"},
                  f"{w} trace={trace}: keys {sorted(out)}")
            check(out["correct"] and out["failed"] == 0 and
                  out["attempted"] >= 1, f"{w} trace={trace}: {out}")
            for m in spec[section]:
                got = out["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"] and
                      isinstance(got["value"], (int, float)),
                      f"{w} trace={trace}: metric {m['name']} is {got}")
            if trace:
                path = os.path.join(ROOT, ".bench_out",
                                    f"trace-{w}-seed7.json")
                check(run.check_trace(path), f"{w}: trace {path} is empty")
        print(f"selftest: {w} ok", flush=True)
    print("selftest PASSED")


if __name__ == "__main__":
    main()
