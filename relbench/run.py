#!/usr/bin/env python3
"""Builds the relperf benchmark driver from this checkout and runs it.

    python3 relbench/run.py --workload fixed|adaptive|cache --seed N \
        --seconds S --trace 0|1
    python3 relbench/run.py --smoke      # reduced-size self-test, seconds

The library is built from the enclosing checkout into .bench_build/ (Release,
the repository's default options, tests and tools off). The driver's last
stdout line is the result object that BENCHMARK.json describes; build output
and diagnostics go to stderr. Without the relperf sources next to this
directory the script exits 2 without printing a result.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "relbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"relbench: {message}", file=sys.stderr)
    return 2


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return BUILD / "relbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        return fail("--seed must be non-negative")
    if not args.smoke and args.workload is None:
        return fail("--workload is required (fixed, adaptive or cache)")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"no relperf sources under {ROOT}: the benchmark builds "
                    "the library from the enclosing checkout")
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as error:
        return fail(f"build failed: {error}")

    work = ROOT / ".bench_build" / "work" / str(os.getpid())
    command = [str(binary), "--root", str(ROOT), "--refs", str(HERE / "refs"),
               "--work", str(work)]
    if args.smoke:
        command.append("--smoke")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", args.trace,
                    "--commit", git_commit(),
                    "--source-digest", source_digest()]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail(f"the driver did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
