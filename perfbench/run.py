#!/usr/bin/env python3
"""The repository benchmark: builds ddsbench from this checkout and runs it.

  python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --check [--seconds 5]

One run prints the program's report and, as its last stdout line, the
result object BENCHMARK.json defines: {"correct", "attempted", "failed",
"metrics"}, with every end-to-end metric when --trace 0 and every per-layer
metric when --trace 1. A traced run also writes its spans under the build
directory. --record FILE appends the run, with the machine facts, as one
JSON line for perfbench/bench_diff.py.

--check runs every workload on two seeds, untraced and traced, and fails
unless every run is correct. The exit code is nonzero whenever a
correctness gate fails or the program cannot be built.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root. Workload names, metric names and units come from
BENCHMARK.json; every workload parameter is a constant of the program
(perfbench/spec.json documents them).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
CHECK_SEEDS = (1, 2)
# Besides the window, a run spends its setups, the pass running at the
# deadline, the correctness checks and, when traced, the layer probes.
RUN_OVERHEAD_S = 120
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once, then builds ddsbench (a no-op when up to date)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no ddsgraph sources next to perfbench/ (%s)" % ROOT)
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", out, "--target", "ddsbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode))
    return os.path.join(out, "ddsbench")


def run_once(binary, bench, workload, seed, seconds, trace):
    """Runs one workload; returns (result line dict, raw program record)."""
    names = [w["name"] for w in bench["workloads"]]
    if workload not in names:
        fail("unknown workload %r (have %s)" % (workload, ", ".join(names)))
    out = build_dir()
    spans = os.path.join(out, "spans", "%s-seed%d.json" % (workload, seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    scratch = os.path.join(out, "tmp", "%s-%d" % (workload, seed))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch_dir", scratch, "--spans_out", spans if trace else ""]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr,
                              timeout=seconds + RUN_OVERHEAD_S,
                              universal_newlines=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("ddsbench did not finish: %s" % e)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        record = json.loads(lines[-1])
    except ValueError:
        fail("ddsbench printed no result (exit %d)" % done.returncode)

    section, values = (("per_layer", record["layers"]) if trace
                       else ("end_to_end", record["e2e"]))
    known = {m["name"]: m["unit"] for m in bench[section]}
    unknown = sorted(set(values) - set(known))
    if unknown:
        fail("metrics missing from BENCHMARK.json %s: %s"
             % (section, ", ".join(unknown)))
    missing = sorted(set(known) - set(values))
    if missing and not trace:
        fail("end-to-end metrics not measured: " + ", ".join(missing))
    # A layer the workload does not exercise reads 0 (spec.json says which).
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in known.items()}
    correct = bool(record["correct"]) and done.returncode == 0
    result = {"correct": correct, "attempted": int(record["attempted"]),
              "failed": int(record["failed"]), "metrics": metrics}
    return result, record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run to this JSON-lines file")
    parser.add_argument("--check", action="store_true",
                        help="every workload on two seeds, both modes")
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    binary = build()

    if args.check:
        ok = True
        for workload in [w["name"] for w in bench["workloads"]]:
            for seed in CHECK_SEEDS:
                for trace in (0, 1):
                    result, _ = run_once(binary, bench, workload, seed,
                                         seconds, trace)
                    good = result["correct"] and result["failed"] == 0
                    ok = ok and good
                    print("check %-13s seed %d trace %d: %s (%d attempted)"
                          % (workload, seed, trace,
                             "ok" if good else "FAILED", result["attempted"]))
        print(json.dumps({"check": "ok" if ok else "failed"}))
        return 0 if ok else 1

    if not args.workload:
        fail("--workload is required (or --check)")
    result, record = run_once(binary, bench, args.workload, args.seed,
                              seconds, args.trace)
    if args.record:
        entry = {"workload": args.workload, "seed": args.seed,
                 "seconds": seconds, "trace": args.trace,
                 "build_type": BUILD_TYPE,
                 "info": record.get("info", {}), "result": result}
        with open(args.record, "a") as f:
            f.write(json.dumps(entry) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
