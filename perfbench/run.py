#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload campaign|serve_hot|sweep_corun \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (the sipre libraries from src/ plus sipre_perfbench) as a Release
build in $CARGO_TARGET_DIR, or .bench_build when that is unset; later
calls only rebuild what changed. Build output goes to stderr, so the
last line on stdout is sipre_perfbench's JSON result. Every argument is
passed to it unchanged (see perfbench/main.cpp); --digests and --out-dir
default to perfbench/digests.txt and perfbench_out/ in the build tree.

Exits non-zero, without a result, when the sources or the build are
missing or broken.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def jobs():
    # Never more compile jobs than the cores this process may use.
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: src/ not found next to perfbench/; "
                 "run from a full checkout")
    if not os.path.isfile(os.path.join(out, "build.ninja")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", str(jobs())],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "sipre_perfbench")


def main(argv):
    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    args = list(argv)
    if "--digests" not in args:
        args += ["--digests", os.path.join(BENCH_DIR, "digests.txt")]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(out, "perfbench_out")]
    sys.stdout.flush()
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
