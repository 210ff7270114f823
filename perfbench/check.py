#!/usr/bin/env python3
"""Self-check of the Rader benchmark against its own bounds.

    python3 perfbench/check.py [--runs 10] [--seconds 46] [--workloads W,...]

Run from the repository root. For every workload it makes two sets of
--runs untraced runs, each run with its own seed (the second set's seeds
differ from the first's), and checks that

  * every run reports correct = true and failed = 0, so a seed the
    expected verdicts were not written against still gives no wrong
    verdict;
  * in each set, every end-to-end metric but setup_s spreads (distance
    between first and third quartile over the median) by at most its
    bound from BENCHMARK.json. setup_s is a few short set-ups per
    process, so the host's drift in speed moves it most; its spread is
    printed and its median must still hold between the sets;
  * no metric's second-set median is worse than the first-set median by
    more than its bound.

It then makes one traced run per workload and checks that it reports
every per-layer metric and that the layer ladder adds up: each
ladder.*_gap_pct (the rungs' summed self times against the untraced
time of the mode) stays within the bound of its end-to-end metric.
Exits 1 if any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """Relative worsening of the second median over the first (<= 0: not worse)."""
    a, b = statistics.median(first), statistics.median(second)
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    failures = []
    metrics = spec["end_to_end"]
    for workload in args.workloads.split(","):
        sets = []
        for s in range(2):
            seeds = [args.first_seed + 1000 * s + i for i in range(args.runs)]
            values = {m["name"]: [] for m in metrics}
            for seed in seeds:
                res = run(workload, seed, args.seconds, 0)
                if res is None:
                    failures.append(f"{workload} seed {seed}: run failed")
                    continue
                if not res["correct"] or res["failed"] != 0:
                    failures.append(f"{workload} seed {seed}: correct={res['correct']} "
                                    f"failed={res['failed']}")
                for m in metrics:
                    values[m["name"]].append(res["metrics"][m["name"]]["value"])
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.4g}"
                    for m in metrics), flush=True)
            sets.append(values)
        print(f"\n{workload}: metric, set-1 median, spread, set-2 median, spread, worse-by, bound")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a, b = sets[0][name], sets[1][name]
            if len(a) < 4 or len(b) < 4:
                failures.append(f"{workload} {name}: too few runs")
                continue
            sa, sb, w = spread(a), spread(b), worse_by(a, b, m["better"])
            print(f"  {name:14s} {statistics.median(a):10.5g} {sa:6.3f} "
                  f"{statistics.median(b):10.5g} {sb:6.3f} {w:+7.3f} {bound}")
            if name != "setup_s":
                for label, sp in (("set 1", sa), ("set 2", sb)):
                    if sp > bound:
                        failures.append(f"{workload} {name}: {label} spread {sp:.3f} > {bound}")
            if w > bound:
                failures.append(f"{workload} {name}: set 2 worse by {w:.3f} > {bound}")
        print(flush=True)

        res = run(workload, args.first_seed, args.seconds, 1)
        if res is None or not res["correct"]:
            failures.append(f"{workload}: traced run failed")
            continue
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in res["metrics"]]
        if missing:
            failures.append(f"{workload}: traced run lacks {', '.join(missing)}")
        bounds = {m["name"]: m["bound"] for m in metrics}
        for mode in ("check", "coverage", "verify"):
            gap = res["metrics"].get(f"ladder.{mode}_gap_pct", {}).get("value")
            print(f"{workload}: ladder.{mode}_gap_pct = {gap}")
            if gap is None or gap > 100.0 * bounds[f"{mode}_s"]:
                failures.append(f"{workload}: {mode} rungs do not add up (gap {gap}%)")
        print(f"{workload}: bench.tracing_overhead_pct = "
              f"{res['metrics']['bench.tracing_overhead_pct']['value']:.2f}\n", flush=True)

    for f in failures:
        print("FAIL", f)
    print("OK" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
