#!/usr/bin/env python3
"""Builds the perfbench program from this checkout's sources and runs one
workload (or all of them) of the benchmark.

    python3 perfbench/run.py --workload grid|rmat|serve|all --seed N \
        --seconds S --trace 0|1

It works on the checkout it sits in. Everything it writes lives under
.bench_build/ at the checkout's root: the CMake build, the generated
inputs and durable directories of the run (removed when the run ends)
and, with --trace 1, the Chrome trace of the run's spans. The last line
of standard output is the run's JSON result.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("grid", "rmat", "serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_root):
    """Configures and builds the program (a no-op when it is up to date)."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no logcc sources in {root}; run from a full checkout")
    build_dir = build_root / "perfbench"
    build_root.mkdir(parents=True, exist_ok=True)
    log_path = build_root / "perfbench-build.log"
    with open(build_root / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(root / "perfbench"), "-B",
                         str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
        with open(log_path, "w") as log:
            for cmd in steps:
                try:
                    subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   check=True, timeout=BUILD_TIMEOUT_S)
                except (subprocess.CalledProcessError,
                        subprocess.TimeoutExpired) as err:
                    log.flush()
                    sys.stderr.write(log_path.read_text()[-4000:])
                    fail(f"build failed: {err}")
    return build_dir / "perfbench"


def run_one(binary, build_root, workload, args):
    """Runs one workload; returns (exit code, its JSON result or None)."""
    work_dir = build_root / f"work-{workload}-{args.seed}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    body = lines[:-1] if result is not None else lines
    if body:
        print("\n".join(body))
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = Path(__file__).resolve().parent.parent
    build_root = root / ".bench_build"
    binary = build(root, build_root)

    if args.workload != "all":
        code, result = run_one(binary, build_root, args.workload, args)
        if result is None:
            fail(f"{args.workload} printed no result (exit {code})")
        print(json.dumps(result))
        sys.exit(code)

    # One command, every workload: the combined line keys each metric by
    # workload, and any failed operation fails the whole run.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        rc, result = run_one(binary, build_root, workload, args)
        if result is None:
            fail(f"{workload} printed no result (exit {rc})")
        print(f"{workload}: {json.dumps(result)}")
        code = code or rc
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    sys.exit(code)


if __name__ == "__main__":
    main()
