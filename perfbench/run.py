#!/usr/bin/env python3
"""Repository benchmark: compile_cold, serve_hotset, execute_engines.

    python3 perfbench/run.py --workload compile_cold --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --all --seconds 3       # smoke, untraced
    python3 perfbench/run.py --workload serve_hotset --trace 1

Builds amos_served and the harness from this checkout's sources into
.bench_build/, runs one workload, checks the outputs, prints every
metric by name and unit, and ends with one JSON line:
{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exits 1 when any output check failed.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pb import layers, tools, workloads  # noqa: E402


def run_one(workload, seed, seconds, trace):
    run_dir = tools.fresh_dir(os.path.join(
        tools.BUILD_ROOT, "runs", "%s-%d-%d" % (workload, seed, os.getpid())))
    try:
        if trace:
            metrics, attempted, failed, notes = workloads.traced(
                run_dir, seed, seconds)
        else:
            metrics, attempted, failed, notes = workloads.WORKLOADS[
                workload](run_dir, seed, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    valid = notes.get("valid", True)
    print("== %s (seed %d, %s s, trace %d)" % (workload, seed, seconds,
                                               trace))
    for key, value in notes.items():
        print("   %s: %s" % (key, value))
    for name in sorted(metrics):
        print("   %-40s %16.6g %s" % (name, metrics[name],
                                      layers.UNITS[name]))
    print("   attempted %d, failed %d%s" % (
        attempted, failed, "" if valid else ", INVALID: generator late"))
    result = {
        "correct": failed == 0 and valid,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": layers.UNITS[name]}
                    for name, value in sorted(metrics.items())},
    }
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    names = sorted(workloads.WORKLOADS) if args.all else [args.workload]
    try:
        tools.build()
        print("fingerprint: " + json.dumps(tools.fingerprint()))
        results = [run_one(name, args.seed, args.seconds, args.trace)
                   for name in names]
    except tools.BenchError as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 2
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
