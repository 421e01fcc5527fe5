#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig06 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 36

Run from the repository root. The first call configures and builds
perfbench/ (a CMake project that compiles ../src) into
.bench_build/perfbench; later calls only rebuild what changed. The last
line of stdout is one JSON object with "correct", "attempted", "failed" and
"metrics". `--workload all` runs every workload in turn and prints one
table of every metric with its unit. Other options (--size, --golden,
--expected, --out-dir) pass through to the benchmark binary; see
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["fig06", "many-task", "dse-sweep"]


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "rispp_perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return BUILD / "rispp_perfbench"


def git_revision():
    """`git describe --always --dirty`, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                              "--dirty"], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() \
        else "unknown"


def run_one(binary, workload, args, extra, capture):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo-root", str(ROOT), "--git", git_revision()] + extra
    return subprocess.run(cmd, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)


def table(results):
    names = []
    for res in results.values():
        for name in res["metrics"]:
            if name not in names:
                names.append(name)
    print("%-30s %-10s" % ("metric", "unit") +
          "".join("%16s" % w for w in results))
    for name in names:
        unit = next(r["metrics"][name]["unit"] for r in results.values()
                    if name in r["metrics"])
        cells = ["%16.6g" % r["metrics"][name]["value"]
                 if name in r["metrics"] else "%16s" % "-"
                 for r in results.values()]
        print("%-30s %-10s" % (name, unit) + "".join(cells))
    print("%-30s %-10s" % ("error_rate", "ratio") +
          "".join("%16.6g" % (r["failed"] / r["attempted"])
                  for r in results.values()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    binary = build()
    if binary is None:
        return 1
    if args.workload != "all":
        return run_one(binary, args.workload, args, extra, False).returncode

    results = {}
    for workload in WORKLOADS:
        proc = run_one(binary, workload, args, extra, True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    table(results)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
