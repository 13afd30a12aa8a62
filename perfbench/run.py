#!/usr/bin/env python3
"""Repository benchmark: build the benchmark program from source, run one workload.

    python3 perfbench/run.py --workload landscape --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload
    python3 perfbench/run.py --manifest                    # rewrite BENCHMARK.json

The benchmark program (perfbench/*.cpp) and the cmesolve library it links are built
with CMake into .bench_build/ at the repository root; later runs reuse that
build. Each workload runs in its own process, so its peak RSS and set-up
time are its own. The last line of standard output is the run's JSON
result; the exit code is non-zero when an output check failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cme_perfbench")
WORKLOADS = ["landscape", "sweep", "serve", "transient"]


def build():
    """Configure and build into .bench_build; output goes to a log file."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "cme_perfbench", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit(f"perfbench: build failed ({' '.join(cmd)}); see {log_path}")


def workload_env():
    env = dict(os.environ)
    # Times are CPU seconds, and an OpenMP team spin-waits between loops, so
    # the CSR kernels' OpenMP loops (serve misses, the transient engine, the
    # untimed output checks) run on one thread; the library's own thread
    # pool sleeps while it waits. In serve the controller's workers are the
    # concurrency; a team would add nproc threads per worker.
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_one(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, env=workload_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--manifest", action="store_true",
                    help="regenerate BENCHMARK.json from the benchmark program's registry")
    args = ap.parse_args()

    build()
    if args.manifest:
        out = subprocess.run([BINARY, "--manifest"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            f.write(out)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    code = 0
    for name in names:
        proc = run_one(name, args.seed, seconds, args.trace)
        lines = proc.stdout.rstrip("\n").split("\n")
        try:
            result = json.loads(lines[-1])
        except (ValueError, IndexError):
            sys.stderr.write(proc.stdout)
            sys.exit(f"perfbench: {name} printed no result (exit {proc.returncode})")
        results[name] = result
        code = code or proc.returncode
        if len(names) == 1:
            sys.stdout.write(proc.stdout)
        else:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if len(names) > 1:
        merged = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{m}": v for w, r in results.items()
                              for m, v in r["metrics"].items()}}
        print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main())
