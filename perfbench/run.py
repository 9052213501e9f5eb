#!/usr/bin/env python3
"""Build perfbench from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload dilemma-zoo [--seed 42]
                             [--seconds 45] [--trace 0|1]

Run it from the root of a checkout. The build goes to .bench_build/perfbench
(CMake, Release); later runs rebuild only what changed. Build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. Traced runs write their spans to
.bench_build/perfbench/spans/<workload>-seed<seed>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("dilemma-zoo", "fleet-churn", "paper-staged")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "system.hpp")):
        fail(f"no simulator sources under {os.path.join(ROOT, 'src')}")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def describe():
    """`git describe` of the checkout, or "unversioned" outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unversioned"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unversioned"
    except (OSError, subprocess.CalledProcessError):
        return "unversioned"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--describe", describe()]
    if args.trace:
        spans = os.path.join(BUILD, "spans",
                             f"{args.workload}-seed{args.seed}.jsonl")
        command += ["--spans", spans]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
