#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise it.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1] [--out FILE]
                                  [--workload NAME ...]

Run from the root of a checkout.  For each workload: `--runs` untraced
runs on consecutive seeds, then one traced run.  For every metric it
records the median, the quartiles (statistics.quantiles, n=4) and the
spread (interquartile distance over the median), plus the traced run's
layer table.  Writes the JSON summary to --out (default: stdout).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def one(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr.decode()[-3000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    measured = {}
    for line in lines:
        if line.startswith("measured: "):
            measured = json.loads(line[len("measured: "):])
    return lines, json.loads(lines[-1]), measured


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    result = {}
    for w in args.workload or [x["name"] for x in bench["workloads"]]:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            _, last, measured = one(w, seed, seconds, 0)
            runs.append((last, measured))
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in last["metrics"].items())),
                file=sys.stderr, flush=True)
        names = sorted(runs[0][1])
        entry = {
            "runs": args.runs,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "failed": sum(r[0]["failed"] for r in runs),
            "attempted": sum(r[0]["attempted"] for r in runs),
            "metrics": {n: summary([r[1][n] for r in runs]) for n in names},
        }
        lines, last, _ = one(w, args.first_seed + args.runs, seconds, 1)
        entry["traced"] = {
            "seed": args.first_seed + args.runs,
            "report": [l for l in lines[:-1] if not l.startswith("measured: ")],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()},
        }
        result[w] = entry
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
