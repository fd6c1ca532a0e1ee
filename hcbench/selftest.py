#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the library).

    python3 hcbench/selftest.py [--seconds 2]

Runs every workload of BENCHMARK.json at a seconds-long size, untraced and
traced, and checks that
  * each run exits 0 and reports correct outputs;
  * every end-to-end metric (untraced) and every per-layer metric (traced)
    is emitted by name with its unit, as a finite number;
  * a deliberately corrupted reference digest makes verification fail
    (exit 1, "correct": false) on a batch and a serve workload;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    run.py exits non-zero without printing a result.
Exits 0 when every check passes. Run it from the repository root.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(cwd, workload, seconds, trace, extra=()):
    cmd = [sys.executable, os.path.join(cwd, "hcbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", str(seconds),
           "--trace", str(trace)] + list(extra)
    res = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=900)
    lines = res.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return res.returncode, last, res


def check_metrics(label, result, wanted):
    metrics = result.get("metrics", {}) if result else {}
    check(set(metrics) == {m["name"] for m in wanted},
          label + ": exactly the BENCHMARK.json metric names")
    for m in wanted:
        got = metrics.get(m["name"])
        check(got is not None and got["unit"] == m["unit"] and
              isinstance(got["value"], (int, float)) and
              math.isfinite(got["value"]),
              "%s: %s [%s]" % (label, m["name"], m["unit"]))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        definition = json.load(f)

    for w in definition["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, definition["end_to_end"]),
                              (1, definition["per_layer"])):
            code, result, res = run(ROOT, name, args.seconds, trace)
            label = "%s trace=%d" % (name, trace)
            check(code == 0 and result is not None and result["correct"],
                  label + ": exit 0 and correct")
            if code != 0:
                sys.stderr.write(res.stdout[-2000:] + res.stderr[-2000:])
            check(result is not None and result["attempted"] >= 1 and
                  result["failed"] == 0, label + ": attempted >= 1, none failed")
            check_metrics(label, result, wanted)

    for name in ("batch_index", "serve_updates"):
        code, result, _ = run(ROOT, name, args.seconds, 0, ["--corrupt-digest"])
        check(code == 1 and result is not None and not result["correct"],
              name + ": corrupted digest fails verification")

    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "hcbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run(bare, "batch_index", args.seconds, 0)
    check(code != 0 and result is None,
          "benchmark files alone: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
