#!/usr/bin/env python3
"""Builds the execution benchmark from source and runs one workload.

    python3 execbench/run.py --workload bert_layers --seed 1 --seconds 20 --trace 0
    python3 execbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root. The first run configures and builds
execbench/ (the SpaceFusion libraries plus sf_execbench) into .bench_build/;
later runs only check that the build is current. sf_execbench prints a
human-readable report and, as its last line, every metric it measured; this
script forwards the report and then prints one JSON line holding the metrics
BENCHMARK.json lists for the mode: the end_to_end ones with --trace 0, the
per_layer ones with --trace 1. Per-program metrics of programs the workload
does not run read 0. The exit code is sf_execbench's (non-zero when any
request or output check failed).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "sf_execbench")
RUN_TIMEOUT_S = 170


def build(env):
    """Configures (once) and builds sf_execbench; returns True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "execbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "--target", "sf_execbench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr, env=env).returncode == 0


def select_metrics(measured, wanted):
    """The metrics named in `wanted`, in its order, as {name: {value, unit}}."""
    selected = {}
    for spec in wanted:
        name = spec["name"]
        if name in measured:
            selected[name] = {"value": measured[name]["value"], "unit": measured[name]["unit"]}
        elif name.count(".") >= 2:
            # <layer>.<metric>.<program> for a program this workload never runs.
            selected[name] = {"value": 0.0, "unit": spec["unit"]}
        else:
            raise KeyError("sf_execbench did not report " + name)
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]

    # Compiler and toolchain temporaries stay inside the checkout.
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(env):
        print("run.py: building sf_execbench failed", file=sys.stderr)
        return 1

    workloads = [args.workload]
    if args.workload == "all":
        workloads = [w["name"] for w in spec["workloads"]]
    failed = [w for w in workloads if run_workload(w, args, wanted, env) != 0]
    return 1 if failed else 0


def run_workload(workload, args, wanted, env):
    """Runs sf_execbench on one workload and prints its report and result."""
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(BUILD, "runs")]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            BUILD, "traces", "%s-seed%d.trace.json" % (workload, args.seed))]
    # Its own process group, so a timeout also stops the toolchain builds it
    # may have running.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print("run.py: sf_execbench did not finish within %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        measured = json.loads(lines[-1])
        metrics = select_metrics(measured["metrics"], wanted)
    except (ValueError, KeyError) as error:
        print(lines[-1], file=sys.stderr)
        print("run.py: no usable result from sf_execbench (exit %d): %s"
              % (process.returncode, error), file=sys.stderr)
        return process.returncode or 1
    print(json.dumps({"correct": measured["correct"], "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": metrics}), flush=True)
    return process.returncode


if __name__ == "__main__":
    sys.exit(main())
