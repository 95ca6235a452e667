#!/usr/bin/env python3
"""Serving benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library from src/) into .bench_build/perfbench, runs the helper self-tests
once per build, writes the workload's input files (once per tree), runs
the workload with query and mutation streams drawn from the seed, and prints
its detail record followed by the result line, which is always the last
line of standard output. Everything it writes stays under
.bench_build/ in the working tree. Exits non-zero, without a result line,
when the build, the self-tests or the run fail.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DATA = os.path.join(ROOT, ".bench_build", "perfbench-data")
RESULTS = os.path.join(ROOT, ".bench_build", "perfbench-results")
WORKLOADS = ("hot_read", "cold_exact", "churn_mix", "routed_read")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
KEEP_SPAN_FILES = 8


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd with its output sent to stderr; True on exit code 0."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode == 0
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False


def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd, 600):
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD, "--target", "serving_bench",
                      "harness_selftest", "-j", jobs], 900)


def selftest():
    """Runs the helper self-tests once per build of the test binary."""
    binary = os.path.join(BUILD, "harness_selftest")
    stamp = os.path.join(BUILD, "selftest.passed")
    built = str(os.stat(binary).st_mtime_ns)
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == built:
                return True
    if not run_quiet([binary, "--gtest_brief=1"], 120):
        return False
    with open(stamp, "w") as f:
        f.write(built)
    return True


def source_fingerprint():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    """The checked-out commit when the tree is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=False)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def prune_spans():
    """Keeps the span files of the most recent traced runs only."""
    spans = [os.path.join(DATA, n) for n in os.listdir(DATA)
             if n.startswith("spans-")]
    spans.sort(key=os.path.getmtime, reverse=True)
    for path in spans[KEEP_SPAN_FILES:]:
        os.remove(path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not build():
        log("build failed")
        return 1
    if not selftest():
        log("helper self-tests failed")
        return 1

    os.makedirs(DATA, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    binary = os.path.join(BUILD, "serving_bench")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", DATA]
    if not run_quiet([binary, "gen"] + common, RUN_TIMEOUT_S):
        log("input generation failed")
        return 1
    try:
        proc = subprocess.run(
            [binary, "run"] + common +
            ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        log(f"run failed (exit {proc.returncode})")
        return 1
    detail = json.loads(lines[-2])
    result = json.loads(lines[-1])
    detail["commit"] = commit()
    detail["source_sha256"] = source_fingerprint()
    detail["result"] = result
    out = os.path.join(
        RESULTS, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(out, "w") as f:
        json.dump(detail, f, indent=1)
    prune_spans()
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
