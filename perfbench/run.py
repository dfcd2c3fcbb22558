#!/usr/bin/env python3
"""Runs one workload of the end-to-end registration benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_driver from the repository's
src/ tree (CMake, Release) into $CARGO_TARGET_DIR or .bench_build, runs the
workload, writes a result file with the host fingerprint to
.bench_out/<workload>-seed<N>-trace<T>.json (and, with --trace 1, the
Chrome trace to .bench_out/trace-<workload>-seed<N>.json), and prints one
JSON object as the last line: {"correct", "attempted", "failed",
"metrics"}. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Keeps a run under three minutes; the build before it is not counted.
DRIVER_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds perfbench_driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no diffreg sources: src/CMakeLists.txt is missing")
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                          os.path.join(ROOT, ".bench_build"))
    bdir = os.path.join(out, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_driver",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench_driver")


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def fingerprint(build_info):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "cxx_flags": build_info["cxx_flags"],
        "arch_flags": "default (no -march)",
        "git_commit": commit or "none (not a git checkout)",
        "source_sha256": source_digest(),
        "kernel": platform.release(),
    }


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def check_trace(path):
    """The trace parses and every rank track holds at least one span."""
    with open(path) as fh:
        events = json.load(fh)["traceEvents"]
    tracks = {e["tid"] for e in events if e["ph"] == "M"}
    spans = {e["tid"] for e in events if e["ph"] == "X"}
    return bool(tracks) and tracks == spans


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: shrunken grids for the harness self-test")
    args = ap.parse_args()

    driver = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    trace_file = os.path.join(out_dir, f"trace-{tag}.json")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-file", trace_file, "--scale", args.scale]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"perfbench_driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        die(f"perfbench_driver failed with exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    problems = list(result["failures"])
    metrics = {}
    for name, unit in expected_metrics(args.trace):
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            problems.append(f"metric {name} [{unit}] missing or mis-united")
            continue
        metrics[name] = got
    if args.trace:
        try:
            if not check_trace(trace_file):
                problems.append("trace has a rank track without spans")
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"trace {trace_file} does not parse: {e}")
    correct = not problems and result["attempted"] >= 1

    record = dict(result)
    record.update({
        "correct": correct,
        "problems": problems,
        "seconds": args.seconds,
        "scale": args.scale,
        "driver_wall_s": time.time() - started,
        "host": fingerprint(result["build"]),
        "trace_file": os.path.relpath(trace_file, ROOT) if args.trace else None,
    })
    with open(os.path.join(out_dir, f"{tag}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
