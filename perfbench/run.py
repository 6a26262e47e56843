#!/usr/bin/env python3
"""Build and run the KRR profiling benchmark on one workload.

    python3 perfbench/run.py --workload hot_stack --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The harness (perfbench/krr_perfbench.cpp),
the library under src/ and krr_cli are built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the build is
incremental, so only the first run compiles. Temporary traces and the Chrome
trace of a traced run go to <build dir>/work.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer split. The exit code is 0 when every correctness check passed, 1
when one failed, and 2 when the benchmark cannot be built or run here.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_stack", "sampled_ingest", "web_bytes", "sharded_zoo")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    targets = ["--target", "krr_perfbench", "--target", "krr_cli"]
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs] + targets,
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    with open(os.path.join(HERE, "baseline.json")) as f:
        default_seed = json.load(f)["seeds"]["default"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/krr_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    # Keep the compiler's and the harness's temporary files in the checkout.
    os.environ["TMPDIR"] = work_dir
    build(build_dir)

    cmd = [os.path.join(build_dir, "krr_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--cli", os.path.join(build_dir, "krr_cli")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
