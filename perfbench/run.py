#!/usr/bin/env python3
"""Build and run the Rader end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/main.exe from source with
dune into .bench_build/ and runs it; the last line of standard output is
the result JSON. Exits non-zero without a result when the build or a run
fails.

An untraced run (--trace 0) splits --seconds over PROCESSES sequential
main.exe processes and reports the medians of their pooled samples, so
that no one process's heap and memory layout sets the figures.
A traced run (--trace 1) is one process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ["fine-grain", "wide-sync-races"]
RUN_TIMEOUT_S = 170
PROCESSES = 2


def build():
    env = dict(os.environ)
    # keep every build artefact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    env["DUNE_BUILD_DIR"] = BUILD_DIR
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return proc.returncode == 0 and os.path.exists(EXE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
        "--expected", os.path.join(ROOT, "perfbench", "expected.txt"),
    ]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, f"trace-{args.workload}-seed{args.seed}.json")]
        outs = run_processes(cmd, 1, args.seconds)
        if outs is None:
            return 1
        print(outs[0])
        return 0
    outs = run_processes(cmd, PROCESSES, args.seconds / PROCESSES)
    if outs is None:
        return 1
    print(pool(outs))
    return 0


def run_processes(cmd, n, seconds):
    """Run n main.exe processes in sequence; their stdouts, or None."""
    outs = []
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for _ in range(n):
        try:
            proc = subprocess.run(
                cmd + ["--seconds", str(seconds)], cwd=ROOT, stdout=subprocess.PIPE,
                text=True, timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return None
        out = proc.stdout.rstrip("\n")
        if proc.returncode != 0 or not out:
            sys.stderr.write(out + "\n")
            print(f"perfbench: main.exe exited with {proc.returncode}", file=sys.stderr)
            return None
        outs.append(out)
    return outs


def percentile(xs, q):
    s = sorted(xs)
    return s[max(0, min(len(s) - 1, round(q * (len(s) - 1))))]


def pool(outs):
    """One result from several untraced processes' outputs."""
    samples, results = {}, []
    for out in outs:
        lines = out.splitlines()
        for line in lines[:-1]:
            if line.startswith("samples "):
                for k, v in json.loads(line[len("samples "):]).items():
                    samples.setdefault(k, []).extend(v)
            else:
                print(line)
        results.append(json.loads(lines[-1]))
    units = results[0]["metrics"]
    metrics = {}
    for name, xs in samples.items():
        # the highest percentile with at least ten samples beyond it
        well = [q for q in (0.99, 0.9, 0.75, 0.5) if len(xs) * (1 - q) >= 10]
        extra = f"  p{round(well[0] * 100)} {percentile(xs, well[0]):.6f}" if well else ""
        print(f"{name:14s} median {statistics.median(xs):.6f}  "
              f"p25 {percentile(xs, 0.25):.6f}  p75 {percentile(xs, 0.75):.6f}  "
              f"n={len(xs)}{extra}")
        metrics[name] = {"value": statistics.median(xs), "unit": units[name]["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


if __name__ == "__main__":
    sys.exit(main())
