#!/usr/bin/env python3
"""Builds the hybridls benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seconds S [--seed N]
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, both taken
relative to the working directory. The benchmark program, hlsperf, prints a
human table on stderr and, as the last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. Each run also leaves its result, split
into exact and timing keys, under <build>/results/ (compare two with
perfbench/diff.py). --all runs every workload of BENCHMARK.json untraced and
traced and ends with a correctness summary. --selftest builds and runs the
benchmark's own tests.
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
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir, target):
    """Configures (once) and builds `target`; returns False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_id():
    """The git commit when this is a git checkout, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

    if args.selftest:
        if not build(build_dir, "perfbench_tests"):
            return 1
        return subprocess.run([os.path.join(build_dir, "perfbench_tests")]).returncode

    if args.all:
        return run_all(build_dir, args.seed or 1, args.seconds or 10)
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not build(build_dir, "hlsperf"):
        print("run.py: build failed", file=sys.stderr)
        return 1
    result = run_one(build_dir, args.workload, args.seed, args.seconds, args.trace)
    return 0 if result is not None else 1


def run_all(build_dir, seed, seconds):
    """Runs every workload untraced and traced; prints each table (stderr) and
    a per-workload summary of failed runs."""
    if not build(build_dir, "hlsperf"):
        print("run.py: build failed", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    summary = []
    for name in workloads:
        for trace in ("0", "1"):
            r = run_one(build_dir, name, seed, seconds, trace)
            if r is None:
                return 1
            summary.append(f"{name} trace {trace}: {r['failed']} of {r['attempted']} "
                           f"runs failed (failed_frac {r['failed'] / r['attempted']:.6g})")
    print("\n".join(summary), file=sys.stderr)
    return 0


def run_one(build_dir, workload, seed, seconds, trace):
    """Runs hlsperf once and forwards its stdout; returns the parsed result
    line, or None when hlsperf failed or printed none."""
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, f"{workload}-seed{seed}-trace{trace}.json")
    cmd = [os.path.join(build_dir, "hlsperf"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace,
           "--out", out, "--git-sha", source_id()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: hlsperf exited with {proc.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("run.py: hlsperf printed no result line", file=sys.stderr)
        return None
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return result


if __name__ == "__main__":
    sys.exit(main())
