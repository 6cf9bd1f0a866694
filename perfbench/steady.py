#!/usr/bin/env python3
"""Steadiness check: runs one commit's workloads in two sets and says
whether the sets agree within BENCHMARK.json's bounds.

    python3 perfbench/steady.py [--runs 5] [--seconds S] [--workloads a,b] [--trace]

Run from the repository root. Set A uses seeds 1..runs, set B seeds
101..100+runs; runs alternate A, B, A, B so drift in the machine's load
falls on both sets. For every end-to-end metric it prints each set's
median and quartiles, the same over all runs with their spread
(q3 - q1) / median, and the gap between the medians of A and B as a
share of the smaller one. A final run on a held-out seed is compared
with the median of all runs the same way. Each of the three must stay
within the metric's bound, whichever side is the slower one, except the
spread of `setup_s`: set-up is mostly RSA key generation, and the
machine's speed drifts between runs by more than any bound allows, while
the median of a set still holds (its two gaps are checked). The exit
code is 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 9001


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if out.returncode != 0 or not result or not result["correct"]:
        sys.stderr.write(out.stderr[-3000:])
        raise RuntimeError(f"{workload} seed {seed}: failed or incorrect run (exit {out.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quart(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def gap(a, b):
    """How far apart `a` and `b` are, as a share of the smaller one."""
    low = min(abs(a), abs(b))
    if low == 0:
        return 0.0 if a == b else float("inf")
    return abs(a - b) / low


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=5, help="runs per set (default 5)")
    ap.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    ap.add_argument("--trace", action="store_true", help="print per-layer metrics of one traced run too")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    failures = []

    for name in names:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for label, base in (("A", 1), ("B", 101)):
                sets[label].append(run(name, base + i, seconds, False))
                print(f"  {name} set {label} run {i + 1}/{args.runs} done", file=sys.stderr)
        held = run(name, HELD_OUT_SEED, seconds, False)
        print(f"\n{name} ({args.runs} + {args.runs} runs, {seconds} s each)")
        print(f"  {'metric':<18} {'A q1/med/q3':>30} {'B q1/med/q3':>30} {'all q1/med/q3':>30} {'spread':>7} {'bound':>6} {'A~B':>6} {'held':>9} {'~med':>6}")
        for m in metrics:
            key = m["name"]
            a = [r[key] for r in sets["A"]]
            b = [r[key] for r in sets["B"]]
            qa, qb = quart(a), quart(b)
            q1, med, q3 = quart(a + b)
            spread = (q3 - q1) / med if med else 0.0
            drift = gap(qa[1], qb[1])
            held_off = gap(held[key], med)
            ok_spread = key == "setup_s" or spread <= m["bound"]
            ok_drift = drift <= m["bound"]
            ok_held = held_off <= m["bound"]
            flag = "" if ok_spread and ok_drift and ok_held else "  <-- FAIL"
            if spread > m["bound"] / 3:
                flag += "  (spread above a third of the bound)"
            print(f"  {key:<18} {qa[0]:>9.4g}/{qa[1]:>9.4g}/{qa[2]:>9.4g} "
                  f"{qb[0]:>9.4g}/{qb[1]:>9.4g}/{qb[2]:>9.4g} {q1:>9.4g}/{med:>9.4g}/{q3:>9.4g} "
                  f"{spread:>7.3f} {m['bound']:>6.2f} "
                  f"{drift:>6.3f} {held[key]:>9.4g} {held_off:>6.3f}{flag}")
            if not (ok_spread and ok_drift and ok_held):
                failures.append(f"{name}.{key}")
        if args.trace:
            traced = run(name, 1, seconds, True)
            print(f"  per-layer (traced run, seed 1):")
            for key in sorted(traced):
                print(f"    {key:<42} {traced[key]:>14.4f}")

    print("\nsets agree within bounds" if not failures else f"\nFAILED: {', '.join(failures)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
