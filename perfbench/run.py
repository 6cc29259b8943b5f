#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload suite_build|eco_edit|serve_mix|all \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the build goes to .bench_build/ at the
checkout root and every thread the benchmark starts is capped at nproc. The
last line of stdout is the run's JSON result (see perfbench/README.md).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "results")  # relative: short socket paths
WORKLOADS = ["suite_build", "eco_edit", "serve_mix"]


def build(nproc):
    """Configures once, then builds incrementally; build logs go to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", str(nproc)], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def source_digest():
    """SHA-256 over the library and benchmark sources (provenance when the
    checkout carries no git metadata)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, read on every run: the library's own sha is
    read only when its build is configured, and the build is reused."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        run = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (subprocess.CalledProcessError, OSError):
        return "unknown"
    return run.stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    nproc = len(os.sched_getaffinity(0))
    try:
        binary = build(nproc)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    env = dict(os.environ, DRCSHAP_THREADS=str(nproc),
               PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    code = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        run = subprocess.run(
            [binary, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", OUT_DIR],
            cwd=ROOT, env=env)
        code = code or run.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
