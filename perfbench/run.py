#!/usr/bin/env python3
"""Wall-clock benchmark of the dphls host program.

Builds the benchmark binary and the dphls_serve daemon from the source
tree into .bench_build/ (incrementally), runs one workload for one seed,
checks that every metric it reported is named in BENCHMARK.json with
that unit and that every end-to-end metric came back, and prints two
JSON lines: the run's facts (seed, work size, nproc, ISA tier, compiler,
source revision, sample counts, failed_frac, modeled cycles, result
checksum, the share of CPU time the hypervisor gave to other guests
during the run, and in traced runs the per-layer metrics the workload
did not report, which read 0), then the result.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--scale F]

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--scale shrinks the work per round (the smoke check uses it).

Exit status: 0 when the output check passed, 1 when it failed (the
result line says correct: false), 2 when no result could be produced.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(".bench_build", "run")  # relative: short socket paths
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no dphls source tree at " + ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--parallel", str(nproc()),
           "--target", "perfbench", "dphls_serve"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sha256:" + digest.hexdigest()[:16]


def cpu_jiffies():
    """The machine's CPU time by state (/proc/stat), [] if unreadable."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests meanwhile."""
    if len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def run_binary(args):
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--work-dir", WORK_DIR,
           "--serve-bin", os.path.join(BUILD_DIR, "dphls", "dphls_serve")]
    # Own process group, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    try:  # nothing it started may outlive it
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    lines = out.strip().splitlines()
    if not lines:
        die("perfbench printed nothing (exit %d)" % proc.returncode)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        die("perfbench printed no JSON result (exit %d)" % proc.returncode)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload " + args.workload)
    build()
    jiffies = cpu_jiffies()
    raw = run_binary(args)
    steal = steal_share(jiffies, cpu_jiffies())

    known = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name, got in raw["metrics"].items():
        if known.get(name) != got["unit"]:
            die("metric %s is not in BENCHMARK.json with unit %s"
                % (name, got["unit"]))
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    # A workload reports the per-layer metrics of the layers it calls;
    # the others read 0 and are listed in the facts.
    absent = [n for n in wanted if n not in raw["metrics"]]
    if absent and not args.trace:
        die("end-to-end metrics missing: " + ", ".join(absent))
    metrics = {n: {"value": raw["metrics"][n]["value"] if n not in absent
                   else 0, "unit": u} for n, u in wanted.items()}

    attempted, failed = raw["attempted"], raw["failed"]
    facts = dict(raw["facts"])
    if args.trace:
        facts["layer_metrics_not_reported"] = absent
    if steal is not None:
        facts["host_steal_frac"] = steal
    facts["source"] = source_revision()
    facts["failed_frac"] = {"value": failed / max(1, attempted),
                            "unit": "frac"}
    print(json.dumps({"facts": facts}))
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if raw["correct"] else 1)


if __name__ == "__main__":
    main()
