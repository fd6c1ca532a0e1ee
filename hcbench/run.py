#!/usr/bin/env python3
"""Run one hcbench workload and print its metrics.

    python3 hcbench/run.py --workload batch_shared --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call builds the library and the
benchmark program from source into .bench_build/ (CMake, Release) and
writes the graph snapshots the workloads load; later calls reuse both. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), each as {"value": ..., "unit": ...}. Traced
runs also write a Chrome trace to .bench_build/traces/. The exit status is
0 when every checked output matched its reference, 1 on a verification
mismatch, and 2 when the benchmark could not run (no result line then).
"""

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
DATA_DIR = os.path.join(BUILD_DIR, "data")
TMP_DIR = os.path.join(BUILD_DIR, "tmp")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def die(msg):
    print("hcbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_definition():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        die("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "hcpath", "hcpath.h")):
        die("library sources (src/) not found next to " + BENCH_DIR)
    # Keep the compilers' temporary files inside the checkout too.
    os.makedirs(TMP_DIR, exist_ok=True)
    os.environ["TMPDIR"] = TMP_DIR
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", CMAKE_DIR, "-j4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(cmd))
    return os.path.join(CMAKE_DIR, "hcbench")


def prepare(binary):
    """Writes the graph snapshots once per checkout (untimed)."""
    if all(os.path.isfile(os.path.join(DATA_DIR, g + ".snap")) for g in ("EP", "WT")):
        return
    os.makedirs(DATA_DIR, exist_ok=True)
    res = subprocess.run([binary, "prep", "--data", DATA_DIR],
                         capture_output=True, text=True)
    sys.stdout.write(res.stdout)
    if res.returncode:
        sys.stderr.write(res.stderr)
        die("snapshot preparation failed")


def source_hash():
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.*"), recursive=True))
    files += sorted(glob.glob(os.path.join(BENCH_DIR, "*.*")))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def environment():
    """The run header's environment part: runs whose boxes differ are not
    comparable."""
    cpu, avx2 = "unknown", False
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and cpu == "unknown":
                    cpu = line.split(":", 1)[1].strip()
                if line.startswith("flags"):
                    avx2 = avx2 or " avx2" in line
    except OSError:
        pass
    commit = "none"
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    except OSError:
        pass
    return {
        "commit": commit,
        "source_hash": source_hash(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "avx2": avx2,
        "build_type": BUILD_TYPE,
        "HCPATH_FORCE_SCALAR": os.environ.get("HCPATH_FORCE_SCALAR", ""),
    }


def select(metrics, wanted):
    """Keeps exactly the metrics named in `wanted` (BENCHMARK.json entries)."""
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die("benchmark program did not report %s [%s]" % (m["name"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def tracing_overhead(result_dir, key, traced_e2e):
    """Traced minus untraced end-to-end numbers for the same workload and
    seed, when an untraced run of it was recorded in this checkout."""
    path = os.path.join(result_dir, key + ".untraced.json")
    if not os.path.isfile(path):
        print("tracing overhead: no untraced run of %s recorded yet" % key)
        return
    with open(path) as f:
        base = json.load(f)
    for name, m in traced_e2e.items():
        if name in base and base[name]["value"]:
            d = m["value"] - base[name]["value"]
            print("tracing overhead: %-16s %+.4g %s (%+.1f%%)" % (
                name, d, m["unit"], 100.0 * d / base[name]["value"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-digest", action="store_true",
                    help="self-test: corrupt one reference digest")
    args = ap.parse_args()

    definition = load_definition()
    if args.workload not in [w["name"] for w in definition["workloads"]]:
        die("unknown workload " + args.workload)
    binary = build()
    prepare(binary)

    header = environment()
    header.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace})
    print("run header: " + json.dumps(header, sort_keys=True))

    key = "%s-seed%d" % (args.workload, args.seed)
    trace_dir = os.path.join(BUILD_DIR, "traces")
    result_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(trace_dir, exist_ok=True)
    os.makedirs(result_dir, exist_ok=True)
    cmd = [binary, "run", "--data", DATA_DIR, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace_out", os.path.join(trace_dir, key + ".trace.json")]
    if args.corrupt_digest:
        cmd.append("--corrupt_digest")
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload run exceeded %d s" % RUN_TIMEOUT_S)
    result = None
    for line in res.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    sys.stderr.write(res.stderr)
    if result is None or res.returncode not in (0, 1):
        die("benchmark program exited with %d and no result" % res.returncode)

    if args.trace:
        tracing_overhead(result_dir, key, result["e2e"])
        metrics = select(result["layers"], definition["per_layer"])
    else:
        if result["correct"]:
            with open(os.path.join(result_dir, key + ".untraced.json"), "w") as f:
                json.dump(result["e2e"], f)
        metrics = select(result["e2e"], definition["end_to_end"])
    correct = bool(result["correct"]) and res.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
