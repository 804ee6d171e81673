#!/usr/bin/env python3
"""Build and run the LAIN benchmark (perfbench/).

One run of one workload, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/ (and the library sources under src/) as an optimized
Release build in $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset, then runs lain_perfbench.  The last line of
standard output is the result JSON; build output goes to standard error.
Result files and Chrome traces land in .bench_out/.

Steadiness check (two sets of runs of the same build, each metric's
spread and the drift between the sets' medians against BENCHMARK.json's
bounds):

    python3 perfbench/run.py --steadiness

runs every workload of BENCHMARK.json RUNS times per set, SETS sets, at
its run_seconds.

The held-out seed in perfbench/manifest.json is never used here; it is
kept for confirming later claims.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
RUNS = 10  # runs per set in --steadiness, each on its own seed
SETS = 2


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def lanes():
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(4, n))


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isdir(os.path.join(ROOT, "src", "core")):
        die("no library sources under %s/src: run from a full checkout"
            % ROOT)
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(lanes())])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        sys.stderr.write(r.stdout[-4000:] if r.returncode else "")
        if r.returncode != 0:
            die("build step failed: " + " ".join(cmd))
    binary = os.path.join(out, "lain_perfbench")
    if not os.path.isfile(binary):
        die("build produced no lain_perfbench")
    return binary


def source_hash():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, digest, echo=True):
    """Runs lain_perfbench; returns (exit code, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", ".bench_out", "--source-hash", digest]
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        die("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return p.returncode, out


def quartile_spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def steadiness(binary, digest):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(BENCH_DIR, "manifest.json")) as f:
        held_out = json.load(f)["held_out_seed"]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    report = {"runs": RUNS, "sets": SETS, "seconds": seconds,
              "workloads": {}}
    ok = True
    seeds = [s for s in range(1, RUNS * SETS + 2) if s != held_out]
    for w in (w["name"] for w in bench["workloads"]):
        sets = []
        for k in range(SETS):
            values = {m["name"]: [] for m in metrics}
            for seed in seeds[k * RUNS:(k + 1) * RUNS]:
                code, out = run_once(binary, w, seed, seconds, 0, digest,
                                     echo=False)
                try:
                    last = json.loads(out.strip().splitlines()[-1])
                except (IndexError, ValueError):
                    last = {"correct": False}
                if code != 0 or not last["correct"]:
                    print("%s seed %d: exit %d, no correct result"
                          % (w, seed, code))
                    ok = False
                    continue
                for m in metrics:
                    values[m["name"]].append(
                        last["metrics"][m["name"]]["value"])
            sets.append(values)
        rows = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = [statistics.median(s[name]) for s in sets]
            spreads = [quartile_spread(s[name]) for s in sets]
            worse = max(
                ((b - a) / a if m["better"] == "lower" else (a - b) / a)
                if a else 0.0 for a, b in zip(meds, meds[1:])) \
                if len(meds) > 1 else 0.0
            spread_ok = name == "setup_s" or max(spreads) <= bound
            drift_ok = worse <= bound
            ok = ok and spread_ok and drift_ok
            rows[name] = {"medians": meds, "spreads": spreads,
                          "drift": worse, "bound": bound,
                          "spread_ok": spread_ok, "drift_ok": drift_ok,
                          "within_third": max(spreads) <= bound / 3}
            print("%-14s %-24s med %s spread %s drift %+.4f bound %.3f %s"
                  % (w, name, " ".join("%.6g" % x for x in meds),
                     " ".join("%.4f" % x for x in spreads), worse, bound,
                     "ok" if spread_ok and drift_ok else "FAIL"))
            sys.stdout.flush()
        report["workloads"][w] = rows
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steadiness.json"), "w") as f:
        json.dump(report, f, indent=1)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    args = ap.parse_args()
    if not args.steadiness and (not args.workload or args.seconds <= 0):
        die("--workload and a positive --seconds are required")

    binary = build()
    digest = source_hash()
    if args.steadiness:
        return steadiness(binary, digest)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace, digest)
    return code


if __name__ == "__main__":
    sys.exit(main())
