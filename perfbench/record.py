#!/usr/bin/env python3
"""Measure every workload and append one point to perfbench/trajectory.jsonl.

    python3 perfbench/record.py --label "parent of change X"

For each workload in BENCHMARK.json: SEEDS untraced runs (seeds 1..SEEDS) give
each end-to-end metric's median and quartile spread (IQR / median, as
statistics.quantiles(n=4) gives the quartiles), and one traced run (seed 1)
gives the per-layer ledger. Any wrong run aborts without appending.
"""
import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every point uses the same seeds, so points are comparable.
SEEDS = 10


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if p.returncode != 0 or not result.get("correct"):
        sys.exit("record: %s seed %d trace %d failed (exit %d)\n%s"
                 % (workload, seed, trace, p.returncode, p.stderr[-4000:]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def host():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                         model)
    except OSError:
        pass
    return "%s, %d CPUs" % (model, os.cpu_count() or 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    point = {"label": args.label,
             "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%MZ"),
             "host": host(), "run_seconds": bench["run_seconds"], "seeds": SEEDS,
             "end_to_end": {}, "ledger": {}}
    for w in bench["workloads"]:
        name = w["name"]
        values = {}
        for seed in range(1, SEEDS + 1):
            for k, v in run(name, seed, bench["run_seconds"], 0).items():
                values.setdefault(k, []).append(v)
        summary = {}
        for k, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
            summary[k] = {"median": med, "iqr_frac": (q[2] - q[0]) / med if med else 0.0}
            print("%-16s %-16s median %-12.6g IQR/median %.4f" % (name, k, med,
                                                                  summary[k]["iqr_frac"]))
        point["end_to_end"][name] = summary
        point["ledger"][name] = run(name, 1, bench["run_seconds"], 1)

    with open(os.path.join(HERE, "trajectory.jsonl"), "a") as f:
        f.write(json.dumps(point, sort_keys=True) + "\n")
    print("appended to perfbench/trajectory.jsonl")


if __name__ == "__main__":
    main()
