#!/usr/bin/env python3
"""Same-host A/B comparison of two revisions over perfbench.

    python3 tools/ab.py REV_A REV_B [--workloads W1,W2] [--pairs N]
                        [--seconds S] [--save FILE]
    python3 tools/ab.py --load FILE

Run from anywhere inside the repository. Each revision is checked out into
its own `git worktree` under a fresh temporary directory (local, no
network) and builds perfbench_driver there with its own CARGO_TARGET_DIR.
Then, per workload, N pairs of `python3 perfbench/run.py --trace 0` runs go
in turn, pair k on seed k, with A first in odd pairs and B first in even
ones, so slow drift of the host loads both sides alike.

For every end-to-end metric of BENCHMARK.json it prints, per workload, the
median [q1, q3] of each side, how many pairs B won, lost and tied, and the
median of the per-pair ratios B/A.

Exit status:
  0  every run correct, no metric regressed;
  1  some run was not correct, or a metric's median per-pair ratio is worse
     than its BENCHMARK.json bound AND B lost every pair;
  2  usage or build error, or results whose host fingerprints differ in
     anything but git_commit and source_sha256: those are refused, since
     numbers from different hosts or toolchains do not compare.

The worktrees and build directories are removed on exit. --save writes the
raw runs as JSON; --load re-reads such a file and repeats the comparison
without running anything.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The only fingerprint fields that may differ between the two sides.
REVISION_KEYS = ("git_commit", "source_sha256")


def die(msg):
    print(f"ab: {msg}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        die(f"git {' '.join(args)} failed: {proc.stderr.strip()}")
    return proc.stdout.strip()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Running.

class Side:
    def __init__(self, label, rev, scratch):
        self.label = label
        self.rev = rev
        self.sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
        self.tree = os.path.join(scratch, label.lower())
        target = os.path.join(scratch, f"{label.lower()}-target")
        self.env = dict(os.environ, CARGO_TARGET_DIR=target)

    def build(self):
        """Builds perfbench_driver with the revision's own run.py."""
        code = ("import sys; sys.path.insert(0, 'perfbench'); "
                "import run; run.build()")
        proc = subprocess.run([sys.executable, "-c", code], cwd=self.tree,
                              env=self.env, stdout=sys.stderr)
        if proc.returncode != 0:
            die(f"build of {self.label} ({self.rev}) failed")

    def run(self, workload, seed, seconds):
        """One run.py call; returns its record (correct, metrics, host)."""
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=self.tree, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        record = {"side": self.label, "workload": workload, "seed": seed,
                  "correct": False, "metrics": {}, "host": None}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            record["error"] = (f"run.py exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-400:]}")
            return record
        result = json.loads(lines[-1])
        record["correct"] = bool(result["correct"])
        record["metrics"] = {k: v["value"] for k, v in
                             result["metrics"].items()}
        path = os.path.join(self.tree, ".bench_out",
                            f"{workload}-seed{seed}-trace0.json")
        with open(path) as fh:
            record["host"] = json.load(fh)["host"]
        return record


def collect(args, scratch):
    sides = [Side("A", args.rev_a, scratch), Side("B", args.rev_b, scratch)]
    for side in sides:
        git("worktree", "add", "--detach", "--quiet", side.tree, side.sha)
    for side in sides:
        print(f"ab: building {side.label} = {side.rev} ({side.sha[:12]})",
              file=sys.stderr)
        side.build()
    runs = []
    for workload in args.workloads:
        for k in range(1, args.pairs + 1):
            order = sides if k % 2 == 1 else sides[::-1]
            for side in order:
                rec = side.run(workload, k, args.seconds)
                print(f"ab: {workload} pair {k} {side.label}: "
                      f"correct={rec['correct']}", file=sys.stderr)
                runs.append(rec)
    return {"rev_a": args.rev_a, "rev_b": args.rev_b,
            "sha_a": sides[0].sha, "sha_b": sides[1].sha,
            "workloads": args.workloads, "pairs": args.pairs,
            "seconds": args.seconds, "runs": runs}


def remove_worktrees(scratch):
    for label in ("a", "b"):
        tree = os.path.join(scratch, label)
        if os.path.exists(tree):
            subprocess.run(["git", "worktree", "remove", "--force", tree],
                           cwd=ROOT, capture_output=True)
    subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                   capture_output=True)


# ---------------------------------------------------------------------------
# Comparing.

def check_fingerprints(runs):
    """Refuses (exit 2) unless every run's host fingerprint matches the
    first one in everything but the revision fields."""
    reference = None
    for rec in runs:
        if rec["host"] is None:
            continue
        host = {k: v for k, v in rec["host"].items()
                if k not in REVISION_KEYS}
        if reference is None:
            reference, first = host, rec
            continue
        diff = sorted(k for k in set(reference) | set(host)
                      if reference.get(k) != host.get(k))
        if diff:
            die(f"refused: host fingerprints differ in {', '.join(diff)} "
                f"between {first['side']} {first['workload']} seed "
                f"{first['seed']} and {rec['side']} {rec['workload']} "
                f"seed {rec['seed']}")


def median_iqr(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def ratio(b, a):
    if a == 0:
        return 1.0 if b == 0 else float("inf")
    return b / a


def compare(data, spec):
    """Prints the per-workload table; returns the list of regressions."""
    regressions = []
    for workload in data["workloads"]:
        by_seed = {}
        for rec in data["runs"]:
            if rec["workload"] == workload:
                by_seed.setdefault(rec["seed"], {})[rec["side"]] = rec
        pairs = [p for _, p in sorted(by_seed.items())
                 if "A" in p and "B" in p and p["A"]["correct"]
                 and p["B"]["correct"]]
        print(f"\n{workload}: {len(pairs)} complete pairs, "
              f"{data['seconds']:g} s per run")
        print(f"  {'metric':26s} {'A median [q1, q3]':28s} "
              f"{'B median [q1, q3]':28s} {'B won/lost/tied':16s} "
              f"{'B/A':>7s} {'bound':>6s}")
        if not pairs:
            continue
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            a = [p["A"]["metrics"][name] for p in pairs]
            b = [p["B"]["metrics"][name] for p in pairs]
            won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            lost = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
            tied = len(pairs) - won - lost
            med_ratio = statistics.median(ratio(y, x) for x, y in zip(a, b))
            worse = med_ratio - 1 if lower else 1 - med_ratio
            flag = ""
            if worse > m["bound"] and lost == len(pairs):
                flag = "  REGRESSION"
                regressions.append(f"{workload} {name}: median B/A "
                                   f"{med_ratio:.3f}, B lost "
                                   f"{lost}/{len(pairs)}")
            print(f"  {name + ' [' + m['unit'] + ']':26s} "
                  f"{'%.4g [%.4g, %.4g]' % median_iqr(a):28s} "
                  f"{'%.4g [%.4g, %.4g]' % median_iqr(b):28s} "
                  f"{f'{won}/{lost}/{tied}':16s} {med_ratio:7.3f} "
                  f"{m['bound']:6.2f}{flag}")
    return regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev_a", nargs="?", help="baseline revision")
    ap.add_argument("rev_b", nargs="?", help="revision under test")
    ap.add_argument("--workloads",
                    help="comma-separated; default: all of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float,
                    help="per run; default: BENCHMARK.json run_seconds")
    ap.add_argument("--save", help="write the raw runs to this JSON file")
    ap.add_argument("--load", help="compare the runs of a --save file")
    args = ap.parse_args()
    spec = load_spec()

    if args.load:
        with open(args.load) as fh:
            data = json.load(fh)
    else:
        if not (args.rev_a and args.rev_b) or args.pairs < 1:
            ap.error("need REV_A, REV_B and --pairs >= 1 (or --load)")
        known = [w["name"] for w in spec["workloads"]]
        args.workloads = (args.workloads.split(",") if args.workloads
                          else known)
        unknown = [w for w in args.workloads if w not in known]
        if unknown:
            ap.error(f"unknown workload(s): {', '.join(unknown)}")
        args.seconds = args.seconds or spec["run_seconds"]
        # A killed run still removes its worktrees.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
        scratch = tempfile.mkdtemp(prefix="diffreg-ab-")
        try:
            data = collect(args, scratch)
        finally:
            remove_worktrees(scratch)
            shutil.rmtree(scratch, ignore_errors=True)
        if args.save:
            with open(args.save, "w") as fh:
                json.dump(data, fh, indent=1)

    print(f"A = {data['rev_a']} ({data['sha_a'][:12]}), "
          f"B = {data['rev_b']} ({data['sha_b'][:12]})")
    check_fingerprints(data["runs"])
    failed = [r for r in data["runs"] if not r["correct"]]
    regressions = compare(data, spec)
    for r in failed:
        print(f"NOT CORRECT: {r['side']} {r['workload']} seed {r['seed']}"
              f"{': ' + r['error'] if r.get('error') else ''}")
    for r in regressions:
        print(f"REGRESSION: {r}")
    if failed or regressions:
        sys.exit(1)
    print("\nno run failed; no metric worse than its bound in every pair")


if __name__ == "__main__":
    main()
