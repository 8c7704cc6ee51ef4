#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of the same build
agree within the bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1]
                                    [--workloads plan_s3,field_ops]
                                    [--seconds S]

Run from the repository root.  Every run uses its own seed (set k = 0 or 1,
run i gets seed-base + k * runs + i).  For each workload and metric the tool
prints each set's median, first and third quartile, and the spread
(quartile distance over the median, as statistics.quantiles(n=4) gives
them).  Metrics with a bound (the end-to-end metrics of BENCHMARK.json)
then get a verdict:

  * spread: both sets' spreads are within the bound;
  * drift:  the second set's median differs from the first set's by at most
            the bound times the first median, in either direction.

Workload-only end-to-end numbers (plan_par_s, epoch_p50_ms, ...) are
printed without a verdict.  Exit status 0 means every verdict held and
every run was correct.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LINE = re.compile(r"^  end_to_end (\S+) = (\S+) (\S+)")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        match = LINE.match(line)
        if match and match.group(1) not in values:
            values[match.group(1)] = float(match.group(2))
    return values


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]

    # samples[workload][metric] = (first set's values, second set's values)
    samples = {w: {} for w in workloads}
    failures = 0
    for k in range(2):
        for w in workloads:
            for i in range(args.runs):
                seed = args.seed_base + k * args.runs + i
                values = run_once(w, seed, seconds)
                if values is None:
                    failures += 1
                    print(f"run failed: {w} seed {seed}", flush=True)
                    continue
                print(f"set {k + 1} {w} seed {seed}: " + ", ".join(
                    f"{n}={v:.6g}" for n, v in values.items()), flush=True)
                for name, v in values.items():
                    samples[w].setdefault(name, ([], []))[k].append(v)

    ok = failures == 0
    for w in workloads:
        print(f"\n{w}")
        for name, sets in samples[w].items():
            if any(len(s) < 2 for s in sets):
                continue
            first, second = (summarize(s) for s in sets)
            cells = "  ".join(
                f"set{k + 1} med {s['median']:.6g} q1 {s['q1']:.6g} "
                f"q3 {s['q3']:.6g} spread {s['spread']:.3f}"
                for k, s in enumerate((first, second)))
            verdict = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                spread_ok = (first["spread"] <= bound and
                             second["spread"] <= bound)
                drift_ok = (abs(second["median"] - first["median"]) <=
                            bound * first["median"])
                agree = spread_ok and drift_ok
                ok = ok and agree
                verdict = (f"  bound {bound}: "
                           f"{'agree' if agree else 'DISAGREE'}"
                           f"{'' if spread_ok else ' (spread)'}"
                           f"{'' if drift_ok else ' (drift)'}")
            print(f"  {name}: {cells}{verdict}")
    print("\nsteady: " + ("yes" if ok else "no") +
          (f" ({failures} failed runs)" if failures else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
