#!/usr/bin/env python3
"""Smoke check of the benchmark at reduced size.

Runs every workload in BENCHMARK.json once untraced and once traced at
SCALE of the full work per round with --seconds 1, and fails unless
each run:
  - exits 0 with a result line of exactly correct/attempted/failed/metrics,
    correct true and nothing failed;
  - reports every end-to-end (untraced) or per-layer (traced) metric
    named in BENCHMARK.json, with its unit, and no end-to-end metric 0;
  - in the traced run, reports exactly the per-layer metrics of the
    layers the workload calls (LAYER_METRICS), none of them 0 unless it
    counts failures (MAY_BE_ZERO);
  - shows the same modeled cycles and result checksum in both modes.

Usage: python3 perfbench/smoke.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCALE = 0.05
SEED = 7

# Per-layer metrics every workload reports: the caller's pipeline spans,
# the engine ladder, modeled cycles and the trace overhead.
COMMON = [
    "pipeline.tickets", "pipeline.submit_s", "pipeline.caller_wait_s",
    "pipeline.efficiency", "systolic.lane_cells_per_s",
    "systolic.lane_fill_frac", "systolic.scalar_cells_per_s",
    "systolic.fill_s", "systolic.traceback_s", "systolic.cells",
    "systolic.modeled_cycles", "trace.overhead_frac",
]
# The layers each workload calls (perfbench/README.md, per-layer table).
LAYER_METRICS = {
    "align_batch": COMMON + [
        "seq.parse_s", "seq.records", "core.format_s",
        "pipeline.deadline_misses", "pipeline.cache_hit_frac",
    ],
    "map_reads": COMMON + [
        "mapper.index_s", "mapper.plan_s", "mapper.finish_s",
        "mapper.candidates_per_read", "mapper.useful_ext_frac",
        "tiling.busy_s", "tiling.reads",
    ],
    "basecall_stream": COMMON + [
        "chunk_io.decode_s", "basecaller.classify_s",
        "basecaller.abandon_frac", "basecaller.samples_skipped_frac",
        "basecaller.device_wait_s",
    ],
    "serve_load": COMMON + [
        "serve.encode_s", "serve.decode_s", "serve.bytes_per_pair",
        "serve.window_wait_s", "serve.rejects.deadline",
        "serve.rejects.quota", "serve.rejects.undispatchable",
        "serve.rejects.malformed", "pipeline.deadline_misses",
        "serve.efficiency",
    ],
}
# Failure counts: 0 on a correct run.
MAY_BE_ZERO = {
    "pipeline.deadline_misses", "serve.rejects.deadline",
    "serve.rejects.quota", "serve.rejects.undispatchable",
    "serve.rejects.malformed",
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--scale", str(SCALE)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.stderr.write(out.stderr)
        raise SystemExit("smoke: %s trace=%d exited %d" %
                         (workload, trace, out.returncode))
    return json.loads(lines[-2])["facts"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        applies = set(LAYER_METRICS.get(name, ()))
        facts = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            facts[trace], result = run(name, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (name, sorted(result)))
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                problems.append("%s trace=%d: output check failed" %
                                (name, trace))
            for m in spec[kind]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append("%s: %s missing or wrong unit" %
                                    (name, m["name"]))
                elif got["value"] == 0 and m["name"] not in MAY_BE_ZERO \
                        and (trace == 0 or m["name"] in applies):
                    problems.append("%s: %s is 0" % (name, m["name"]))
            if trace == 1:
                reported = {m["name"] for m in spec[kind]} - \
                    set(facts[1]["layer_metrics_not_reported"])
                for m in sorted(applies - reported):
                    problems.append("%s: %s not reported" % (name, m))
                for m in sorted(reported - applies):
                    problems.append("%s: %s reported but not in "
                                    "LAYER_METRICS" % (name, m))
            print("smoke: %-16s trace=%d %3d metrics ok" %
                  (name, trace, len(result["metrics"])))
        for key in ("modeled_cycles_per_round", "result_checksum"):
            if facts[0][key] != facts[1][key]:
                problems.append("%s: %s differs traced vs untraced" %
                                (name, key))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
