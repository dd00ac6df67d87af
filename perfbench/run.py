#!/usr/bin/env python3
"""Builds the inflog library and the perfbench harness, runs one workload
and prints its result as the last line of standard output.

  python3 perfbench/run.py --workload batch --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --smoke      # every workload, tiny sizes, seconds

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench-<hash of the checkout path> (default
.bench_build), so two checkouts sharing one $CARGO_TARGET_DIR never share a
build; run records, trace files and the fingerprints of deterministic counts
(one file per workload, seed and source digest) go to
$CARGO_TARGET_DIR/perfbench-runs. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

# The seed runs use unless told otherwise, and one seed kept out of all
# tuning: a later claim is re-checked on the held-out seed.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

HARNESS_TIMEOUT_S = 160
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_digest(root):
    """sha256 over the library and benchmark sources: fingerprints of
    deterministic counts are only compared between identical sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def build(root, build_dir):
    """Configures once and builds (a no-op when up to date), serialised by
    a lock so concurrent runs in one checkout share one build."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        with open(log_path, "a") as log:
            for step in steps:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      cwd=root).returncode
                if code != 0:
                    with open(log_path) as f:
                        tail = f.read()[-4000:]
                    fail("build failed (%s):\n%s" % (" ".join(step), tail))
    harness = os.path.join(build_dir, "perfbench_harness")
    if not os.path.exists(harness):
        fail("build produced no harness binary")
    return harness


def probe(harness, smoke):
    args = [harness, "--probe"] + (["--smoke"] if smoke else [])
    try:
        out = subprocess.run(args, capture_output=True, text=True, timeout=5)
    except subprocess.TimeoutExpired:
        return None
    if out.returncode != 0:
        return None
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_harness(harness, spec, args, runs_dir, digest, smoke):
    """Runs one workload; returns (result, record, stdout lines)."""
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", runs_dir, "--source-digest", digest]
    if smoke:
        cmd.append("--smoke")
    drift_start = probe(harness, smoke)
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s" % HARNESS_TIMEOUT_S)
    drift_end = probe(harness, smoke)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail("harness exited with %d:\n%s%s" % (out.returncode, out.stdout[-2000:],
                                               out.stderr[-2000:]))
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("result keys %s" % sorted(result))
    section = "per_layer" if args.trace else "end_to_end"
    want = [m["name"] for m in spec[section]]
    units = {m["name"]: m["unit"] for m in spec[section]}
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        fail("printed %s metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (section, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, metric in result["metrics"].items():
        if metric["unit"] != units[name]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, metric["unit"], units[name]))
    stem = "run-%s%s-seed%d-trace%d" % (args.workload, "-smoke" if smoke else "",
                                        args.seed, args.trace)
    record_path = os.path.join(runs_dir, stem + ".json")
    with open(record_path) as f:
        record = json.load(f)
    record["context"]["commit"] = commit(os.getcwd())
    record["context"]["drift_probe_ms"] = {"start": drift_start, "end": drift_end}
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
    return result, record, lines[:-1]


def smoke(harness, spec, runs_dir, digest):
    """Every workload at tiny sizes: untraced and traced on the default
    seed (the traced run must reproduce the untraced fingerprint), then
    untraced on the held-out seed. Checks the printed metric names against
    BENCHMARK.json and that every run is correct."""
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed, trace in ((DEFAULT_SEED, 0), (DEFAULT_SEED, 1), (HELD_OUT_SEED, 0)):
            args = argparse.Namespace(workload=workload, seed=seed, seconds=0.5,
                                      trace=trace)
            started = time.time()
            result, record, lines = run_harness(harness, spec, args, runs_dir,
                                                digest, smoke=True)
            extra = ""
            if trace:
                m = result["metrics"]
                extra = " coverage %.3f overhead %.3f" % (
                    m["trace.child_coverage"]["value"], m["trace.overhead"]["value"])
            print("smoke %-9s seed %-5d trace %d: correct=%s attempted=%d failed=%d "
                  "(%.1f s)%s" % (workload, seed, trace, result["correct"],
                                  result["attempted"], result["failed"],
                                  time.time() - started, extra))
            for line in lines:
                print("  " + line)
            ok = ok and result["correct"] and result["failed"] == 0
    print("smoke: " + ("all workloads passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "core", "engine.h")):
        fail("no inflog sources under %s/src; run from a checkout root" % root)
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("no BENCHMARK.json in %s" % root)
    with open(spec_path) as f:
        spec = json.load(f)
    if not args.smoke and args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.join(root, base)
    runs_dir = os.path.join(base, "perfbench-runs")
    os.makedirs(runs_dir, exist_ok=True)
    root_key = hashlib.sha256(os.path.realpath(root).encode()).hexdigest()[:12]
    harness = build(root, os.path.join(base, "perfbench-" + root_key))
    digest = source_digest(root)

    if args.smoke:
        return smoke(harness, spec, runs_dir, digest)
    result, record, lines = run_harness(harness, spec, args, runs_dir, digest,
                                        smoke=False)
    for line in lines:
        print(line)
    print("# context " + json.dumps(record["context"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
