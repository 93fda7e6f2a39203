#!/usr/bin/env python3
"""Tiny-scale self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  Every workload runs at a scale of a
few seconds (2 to 6 configurations, one sampled setting, tens of
requests per second), with tracing off and on; each run must pass its
output checks and print every metric BENCHMARK.json names.  Then every
output check is handed a wrong expected value (PERFBENCH_WRONG) and the
run must report the failure.  Exits 0 when all of that holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

# Keys that replace config.json's for the tiny scale; the rest is read
# from config.json.  A tiny train has an artifact of its own, whose
# version id is recorded here.
TINY = {
    "store_fill": {"REPRO_UARCHS": 2},
    "server_starts": 2,
    "rounds": 1,
    "step_share": {"low": 0.2, "mid": 0.1, "high": 0.1, "probe": 0.1},
    "climb": {"factor": 1.5, "bisections": 1, "probe_samples": 20},
    "workloads": {
        "train-cold": {"REPRO_UARCHS": 2, "REPRO_OPTS": 1, "trains": 1, "hot_set": 8,
                       "rates": {"low": 50, "mid": 100, "high": 150},
                       "version_id": "84b83c28f70db990"},
        "train-warm": {"REPRO_UARCHS": 6, "REPRO_OPTS": 1, "trains": 2,
                       "rates": {"low": 50, "mid": 100, "high": 150},
                       "version_id": "4370865bdf098868"},
        "serve-mixed": {"REPRO_UARCHS": 6, "REPRO_OPTS": 1, "trains": 1, "hot_set": 8,
                        "rates": {"low": 50, "mid": 100, "high": 150},
                        "version_id": "4370865bdf098868"},
    },
}

# Each output check, and a workload whose run exercises it.
CHECKS = [
    ("version", "train-cold", 0),
    ("store", "train-cold", 0),
    ("warm", "train-warm", 0),
    ("reply", "serve-mixed", 0),
    ("served-model", "serve-mixed", 0),
    ("replay", "train-cold", 1),
    ("replay-model", "serve-mixed", 1),
    ("warm-replay", "train-warm", 1),
    ("report", "train-cold", 1),
]


def run(workload, trace, wrong=""):
    env = dict(os.environ, PERFBENCH_CONFIG=CONFIG, PERFBENCH_WRONG=wrong)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out = proc.stdout.decode()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode()[-3000:])
        raise SystemExit("selfcheck: %s (trace %d) exited %d" % (workload, trace, proc.returncode))
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for w in TINY["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            got = run(w, trace)
            names = {m["name"] for m in bench[kind]}
            ok = set(got["metrics"]) == names
            if not ok:
                failures.append("%s trace %d: metrics differ from BENCHMARK.json: missing %s" % (
                    w, trace, sorted(names - set(got["metrics"]))))
            if not got["correct"] or got["failed"] or got["attempted"] < 1:
                ok = False
                failures.append("%s trace %d: %d of %d checks failed" % (
                    w, trace, got["failed"], got["attempted"]))
            print("%-4s %-12s trace %d: %d metrics, %d checks" % (
                "ok" if ok else "FAIL", w, trace, len(got["metrics"]), got["attempted"]))
    for check, w, trace in CHECKS:
        got = run(w, trace, wrong=check)
        ok = not got["correct"] and got["failed"] > 0
        if not ok:
            failures.append("check %s did not fail on a wrong expected value" % check)
        print("%-4s check %-12s on a wrong expected value: %d failed" % (
            "ok" if ok else "FAIL", check, got["failed"]))
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


CONFIG = os.path.join(ROOT, ".bench_build", "perfbench-selfcheck.json")

if __name__ == "__main__":
    os.makedirs(os.path.dirname(CONFIG), exist_ok=True)
    with open(CONFIG, "w") as f:
        json.dump(TINY, f)
    sys.exit(main())
