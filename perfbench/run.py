#!/usr/bin/env python3
"""Build and run the interop benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload migrate_large|service_mix|tapeout_flow \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (Release, -O2 -DNDEBUG) under
.bench_build/perfbench, then runs it. The benchmark's last stdout line
is the result JSON; build output goes to stderr. Every result is also
written to .bench_build/perfbench/results/. Exits non-zero without a result
when the repository sources are missing or the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# Keep the compiler's and the benchmark's temporary files inside the checkout.
TMPDIR = os.path.join(BUILD, "tmp")
ENV = dict(os.environ, TMPDIR=TMPDIR)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: repository sources (src/) not found", file=sys.stderr)
        return False
    os.makedirs(TMPDIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=ENV).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def check_names(result_line, trace):
    """The benchmark's metric names must match BENCHMARK.json's lists."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return True
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in json.loads(result_line)["metrics"].items()}
    if want != got:
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "extra %s" % (sorted(set(want) - set(got)),
                            sorted(set(got) - set(want))), file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2
    workdir = os.path.join(BUILD, "work", str(os.getpid()))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--results", os.path.join(BUILD, "results"),
           "--commit", commit()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              env=ENV)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    if not check_names(lines[-1], args.trace):
        return 3
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
