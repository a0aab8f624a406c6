#!/usr/bin/env python3
"""Repository benchmark: four LFS workloads, measured from outside lib/.

Run from the repository root:

    python3 perfbench/run.py --workload smallfile --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selfcheck

The benchmark is an OCaml program (perfbench/_src) that drives
Lfs_core.Fs only through public functions.  This script stages it next
to a copy of lib/ under .bench_build/perfbench, builds it there with
dune (so it never joins the repository's own build or tests), runs one
workload, checks the result, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see BENCHMARK.json and perfbench/README.md).  Diagnostics go to stderr.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["smallfile", "overwrite", "mixed", "largefile"]
RUN_LIMIT_S = 175.0
BUILD_LIMIT_S = 850.0


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def stage_and_build():
    """Copy the benchmark and lib/ into a private dune workspace and build."""
    lib = os.path.join(ROOT, "lib")
    src = os.path.join(HERE, "_src")
    if not (os.path.isdir(lib) and os.path.isdir(src)):
        die("run from a full checkout: %s or %s is missing" % (lib, src))
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    ws = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(ws, exist_ok=True)
    staged_lib = os.path.join(ws, "lib")
    if os.path.isdir(staged_lib):
        shutil.rmtree(staged_lib)
    shutil.copytree(lib, staged_lib)
    for name in os.listdir(src):
        shutil.copy2(os.path.join(src, name), os.path.join(ws, name))
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ws, "--profile", "release", "./lfsbench.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
            timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("build failed")
    return os.path.join(ws, "_build", "default", "lfsbench.exe")


def run_binary(exe, workload, seed, seconds, trace, deadline):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die("%s timed out" % workload)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("%s exited with code %d" % (workload, proc.returncode))
    try:
        return json.loads(lines[-1])
    except ValueError:
        die("%s printed no JSON result" % workload)


def declared_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check(result, trace):
    """Problems with the shape of a result (missing or non-finite metrics)."""
    problems = []
    metrics = result["metrics"]
    for name, m in metrics.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("metric %s is not a finite number" % name)
    names = declared_metrics(trace)
    if names is not None:
        for name in names:
            if name not in metrics:
                problems.append("metric %s is missing" % name)
        for name in metrics:
            if name not in names:
                problems.append("metric %s is not declared in BENCHMARK.json" % name)
        if not trace:
            for name in names:
                if name in metrics and metrics[name].get("value") == 0:
                    problems.append("end-to-end metric %s is 0" % name)
    return problems


def report(result):
    for p in result["problems"]:
        print("problem: " + p, file=sys.stderr)
    for f in result["failures"]:
        print("failed op: " + f, file=sys.stderr)
    d = result["detail"]
    print("%s seed %d: %d rounds (%d traced), %d ops, %d failed, correct=%s"
          % (result["workload"], result["seed"], d["rounds"], d["traced_rounds"],
             result["attempted"], result["failed"], result["correct"]), file=sys.stderr)


def run_one(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    exe = stage_and_build()
    result = run_binary(exe, args.workload, args.seed, args.seconds, args.trace, deadline)
    problems = check(result, args.trace)
    if problems:
        for p in problems:
            print("problem: " + p, file=sys.stderr)
        die("result is malformed")
    report(result)
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in result["metrics"].items()}
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


# Everything but host time must repeat exactly for one seed.
DETERMINISTIC = ["alloc_words_per_op", "peak_heap_mb", "sim_ops_per_s", "sim_op_p50_us",
                 "sim_op_p99_us", "write_amp", "read_amp", "space_amp"]


def selfcheck(args):
    """Same seed twice must agree exactly on every simulated metric, the
    allocation and heap figures and the GC counts; another seed must give
    a different op stream of the same shape."""
    exe = stage_and_build()
    ok = True
    for w in WORKLOADS:
        deadline = time.monotonic() + RUN_LIMIT_S
        a = run_binary(exe, w, args.seed, args.seconds, 0, deadline)
        b = run_binary(exe, w, args.seed, args.seconds, 0, deadline)
        c = run_binary(exe, w, args.seed + 1, args.seconds, 0, deadline)

        def det(r):
            return ({k: r["metrics"][k]["value"] for k in DETERMINISTIC}, r["detail"]["gc"],
                    r["detail"]["fingerprint"])

        findings = []
        if det(a) != det(b):
            findings.append("seed %d gave different results twice: %s vs %s" % (args.seed, det(a), det(b)))
        if a["detail"]["fingerprint"] == c["detail"]["fingerprint"]:
            findings.append("seeds %d and %d gave the same op stream" % (args.seed, args.seed + 1))
        if a["detail"]["shape"] != c["detail"]["shape"]:
            findings.append("seeds %d and %d gave different shapes: %s vs %s"
                          % (args.seed, args.seed + 1, a["detail"]["shape"], c["detail"]["shape"]))
        for r in (a, b, c):
            if not r["correct"]:
                findings.append("seed %d run was not correct: %s" % (r["seed"], r["problems"]))
        ok = ok and not findings
        print("%-10s %s" % (w, "ok" if not findings else "FAILED"))
        for i in findings:
            print("  " + i)
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="check determinism on every workload instead of measuring")
    args = ap.parse_args()
    if args.selfcheck:
        selfcheck(args)
    elif args.workload is None:
        ap.error("--workload is required")
    else:
        run_one(args)


if __name__ == "__main__":
    main()
