#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload <plan_s3|field_ops|all>
                             [--seed N] [--seconds S] [--trace 0|1]

--seconds defaults to run_seconds in BENCHMARK.json.  Configures and builds
perfbench/ (which compiles the uavcov libraries it drives from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs the binary.  Build output goes to stderr; the binary's
report goes to stdout and ends with one JSON result line.  The result's
metric names are checked against BENCHMARK.json.  Exits non-zero, without a
result line, when the build fails.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    generated = os.path.join(build_dir, "Makefile")
    steps = []
    if not os.path.exists(generated):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def fixed_layout():
    """Runs in the child before exec: turns off address-space randomization,
    so heap and stack addresses, and the cache aliasing between them, are
    the same in every run.  With it on, the plan_s3 scenario generator ran
    at ~26 us in some processes and ~45 us in others started back to back;
    with it off, eight such processes in a row ran at 44-49 us, and about
    one benchmark run in seven still showed the fast mode."""
    addr_no_randomize = 0x0040000
    libc = ctypes.CDLL(None)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | addr_no_randomize)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, target, "perfbench"))
    os.makedirs(build_dir, exist_ok=True)
    if not build(build_dir):
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload,
           "--seconds", repr(float(seconds)),
           "--trace", str(args.trace),
           "--work-dir", build_dir]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          preexec_fn=fixed_layout)
    out = proc.stdout
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode

    if args.workload != "all":
        result = json.loads(out.strip().splitlines()[-1])
        want = [m["name"]
                for m in spec["per_layer" if args.trace else "end_to_end"]]
        if sorted(result["metrics"]) != sorted(want):
            print("perfbench: reported metrics differ from BENCHMARK.json",
                  file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
