#!/usr/bin/env python3
"""Builds and runs the Brainy repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds a
Release tree in .bench_build/ (or $CARGO_TARGET_DIR when set); later runs
rebuild incrementally. Build output goes to stderr. The benchmark's own
self-test runs after every build, before any measurement. Each run works in
a fresh directory under the build tree, removed afterwards; a traced run
also leaves its spans in <build>/traces/, and serial reference bundles are
kept per build in <build>/refs/.

The last line of stdout is the JSON result; this script checks that its
metric names are exactly the ones BENCHMARK.json lists for the mode.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-cold", "train-warm", "serve-mixed")
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "brainy_perfbench", "perfbench_selftest", "brainy_tool"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def find_binary(build_dir, name):
    for dirpath, _, files in os.walk(build_dir):
        if name in files:
            path = os.path.join(dirpath, name)
            if os.access(path, os.X_OK):
                return path
    return None


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # Not a git checkout: identify the sources by content instead.
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    if not build(build_dir):
        return 1
    bench = find_binary(build_dir, "brainy_perfbench")
    selftest = find_binary(build_dir, "perfbench_selftest")
    brainy = find_binary(os.path.join(build_dir, "brainy"), "brainy")
    if not (bench and selftest and brainy):
        log("built binaries not found under " + build_dir)
        return 1
    if subprocess.run([selftest], stdout=sys.stderr).returncode:
        log("self-test failed")
        return 1

    # Serial reference bundles are kept per build: a digest of the two
    # binaries names their directory.
    digest = hashlib.sha256()
    for path in (bench, brainy):
        with open(path, "rb") as f:
            digest.update(f.read())
    ref_cache = os.path.join(build_dir, "refs", digest.hexdigest()[:16])
    os.makedirs(ref_cache, exist_ok=True)

    runs = os.path.join(build_dir, "runs")
    traces = os.path.join(build_dir, "traces")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=runs)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--brainy", brainy, "--workdir", workdir, "--commit", commit_id(),
           "--ref-cache", ref_cache,
           "--trace-out", os.path.join(
               traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    # Its own process group, so a timeout also stops the training children
    # and the server it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)

    def stop_group(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        shutil.rmtree(workdir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_group)
    signal.signal(signal.SIGINT, stop_group)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # anything it left behind
    except ProcessLookupError:
        pass
    sys.stderr.write(err)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        log("benchmark exited %d" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line is not a JSON result: " + lines[-1])
        return 1
    want = expected_metrics(args.trace == 1)
    if want is not None and sorted(result["metrics"]) != sorted(want):
        log("metrics differ from BENCHMARK.json: got %s, want %s"
            % (sorted(result["metrics"]), sorted(want)))
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
