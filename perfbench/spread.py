#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report spreads.

For each workload and end-to-end metric, prints the median of the runs
and their spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. A spread above a
third of the metric's bound is flagged. Each workload's line of
host_steal_frac gives the share of CPU time the hypervisor gave to
other guests during each run: a high share marks runs slowed by the
host, not the program. --save writes the medians; --compare reads such
a file and flags every metric whose median got worse by more than its
bound.

Usage:
    python3 perfbench/spread.py [--workloads a,b] [--seeds 10]
        [--first-seed 1] [--save FILE] [--compare FILE]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("spread: %s seed %d exited %d" %
                         (workload, seed, out.returncode))
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["facts"], json.loads(lines[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    before = {}
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)

    medians, flagged = {}, 0
    for w in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        steal = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            facts, got = run(w, seed, spec["run_seconds"])
            steal.append(facts.get("host_steal_frac", float("nan")))
            for name in values:
                values[name].append(got[name]["value"])
        medians[w] = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            medians[w][m["name"]] = med
            note = ""
            if spread > m["bound"] / 3:
                note = "  SPREAD > bound/3 (%.3f)" % (m["bound"] / 3)
                flagged += 1
            old = before.get(w, {}).get(m["name"])
            if old:
                worse = (old - med) / old if m["better"] == "higher" \
                    else (med - old) / old
                if worse > m["bound"]:
                    note += "  WORSE by %.3f" % worse
                    flagged += 1
            print("%-16s %-18s median %-14.6g spread %.4f%s" %
                  (w, m["name"], med, spread, note))
            print("    runs: " + " ".join("%.5g" % x for x in v))
        print("%-16s host_steal_frac    runs: %s" %
              (w, " ".join("%.3f" % x for x in steal)))
        sys.stdout.flush()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
