#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size (one-second runs).

    python3 perfbench/smoke_test.py

Run from the repository root; builds through perfbench/run.py first.
Asserts that
  * every workload in BENCHMARK.json, untraced and traced, ends with a
    result line that names every end-to-end (untraced) or per-layer
    (traced) metric with the unit BENCHMARK.json gives it, and passes
    its correctness checks;
  * a campaign run and a serve_hot run against a deliberately corrupted
    digest file report failed operations and correct=false.
Exits 0 when all hold.
"""
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]


def run(workload, trace, extra=()):
    args = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), *extra]
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n"
                 + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(label, result, specs):
    problems = []
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            problems.append(f"missing {spec['name']}")
        elif got.get("unit") != spec["unit"]:
            problems.append(f"{spec['name']}: unit {got.get('unit')!r}, "
                            f"want {spec['unit']!r}")
    extra = set(result["metrics"]) - {s["name"] for s in specs}
    problems += [f"unlisted metric {name}" for name in sorted(extra)]
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"checks failed: {result['failed']} of "
                        f"{result['attempted']}")
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    return [f"{label}: {p}" for p in problems]


def corrupt_digests(path, kind):
    """Copy the digest file with the last hex digit of every digest of
    `kind` changed, so any result checked against one must fail."""
    lines = []
    with open(os.path.join(BENCH_DIR, "digests.txt")) as f:
        for line in f:
            if line.startswith(kind + " "):
                head, digit = line.rstrip("\n")[:-1], line.rstrip("\n")[-1]
                line = head + ("0" if digit != "0" else "1") + "\n"
            lines.append(line)
    with open(path, "w") as f:
        f.writelines(lines)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, specs in ((0, bench["end_to_end"]),
                             (1, bench["per_layer"])):
            label = f"{workload} trace={trace}"
            found = check_metrics(label, run(workload, trace), specs)
            print(("ok   " if not found else "FAIL ") + label)
            problems += found

    build = os.path.join(ROOT,
                         os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bad = os.path.join(build, "corrupt_digests.txt")
    for kind, workload in (("campaign", "campaign"), ("serve", "serve_hot")):
        corrupt_digests(bad, kind)
        result = run(workload, 0, ["--digests", bad])
        os.remove(bad)
        caught = not result["correct"] and result["failed"] > 0
        if not caught:
            problems.append(f"corrupted {kind} digests were not reported "
                            "as failures")
        print(("ok   " if caught else "FAIL ") +
              f"{workload} with corrupted {kind} digests: "
              f"{result['failed']} of {result['attempted']} failed")

    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
