#!/usr/bin/env python3
"""Runs the repository benchmark (workloads: perfbench/WORKLOADS.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N

Builds perfbench/ and the EEL sources under src/ into .bench_build/ first,
then runs eel-perfbench. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list. --workload all runs every workload in turn and ends
with one combined object whose metric names carry the workload as prefix.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "eel-perfbench"
WORKLOADS = ("large_relayout", "spec_qpt", "serve_mixed")
BUILD_TIMEOUT_S = 850
# A run must end within 180 s, set-up and checks included.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no EEL sources at {ROOT / 'src'}; run from a "
                         "checkout of the repository")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # Runs started together build once; the rest wait for the lock.
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "Makefile").is_file():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                          str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "eel-perfbench", "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(cmd, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                raise BenchError(f"build step failed: {' '.join(cmd)}")


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def validate(result, expected):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        raise BenchError("result line has the wrong keys")
    if not isinstance(result["correct"], bool):
        raise BenchError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise BenchError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise BenchError("no operation was attempted")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        raise BenchError(f"metrics {sorted(got)} do not match "
                         f"BENCHMARK.json's {sorted(expected)}")


def run_workload(workload, seed, seconds, trace, expected):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                str(BUILD_ROOT / f"trace-{workload}-{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = done.stdout.decode().rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        raise BenchError(f"{workload} exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{workload} printed no result line")
    validate(result, expected)
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        end_to_end, per_layer = declared_metrics()
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads(
                (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        expected = per_layer if args.trace else end_to_end
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for name in names:
            lines, result = run_workload(name, args.seed, seconds,
                                         args.trace, expected)
            if len(names) == 1:
                print("\n".join(lines))
                return 0
            print("\n".join(lines[:-1]), flush=True)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
        print(json.dumps(combined))
        return 0
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
