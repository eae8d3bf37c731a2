#!/usr/bin/env python3
"""Runs the maintenance-engine benchmark (see README.md in this directory).

One run of one workload:

    python3 perfbench/run.py --workload bulk|point|lazy --seed N \
        --seconds S --trace 0|1

The benchmark's own test, every workload on tiny inputs with every check,
traced and untraced, in a few seconds:

    python3 perfbench/run.py --smoke

Each call builds the library (from src/) and the driver in Release, in
$CARGO_TARGET_DIR (default .bench_build) under the repository root, clears
every XVM_* environment variable, runs the driver in a fresh work directory
that is removed afterwards, and passes its output through. The last line of
standard output is the run's JSON result. Traced runs also write their
spans to .bench_traces/<workload>-seed<N>.jsonl.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk", "point", "lazy")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/; run from a full checkout")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "perfbench-release")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def revision():
    """The git revision, or a digest of the sources outside a git tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                return done.stdout.strip()[:12]
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("XVM_")}


def pin_to_one_cpu():
    """Keeps the single-threaded driver on one CPU (the highest allowed):
    migrations between CPUs were a large part of the run-to-run spread."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})


def run_one(binary, rev, workload, seed, seconds, trace, smoke):
    """Runs the driver once; returns (exit code, stdout)."""
    work = os.path.join(ROOT, ".bench_run",
                        f"{workload}-{seed}-{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--rev", rev]
    if trace:
        traces = os.path.join(ROOT, ".bench_traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--span-file",
                os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, env=clean_env(), capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S,
                              preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout


def smoke(binary, rev):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_one(binary, rev, workload, 1, 0.3, trace, True)
            label = f"{workload} trace={trace}"
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: no JSON result (exit {code})")
                continue
            missing = [m for m in expected[trace]
                       if m not in result["metrics"]]
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {code}, correct="
                                f"{result['correct']}, failed="
                                f"{result['failed']}")
            if missing:
                problems.append(f"{label}: metrics missing: {missing}")
            print(f"smoke {label}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
    for p in problems:
        print("smoke FAILED: " + p)
    if problems:
        sys.exit(1)
    print("smoke: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on tiny inputs")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    binary = build()
    rev = revision()
    if args.smoke:
        smoke(binary, rev)
        return
    code, out = run_one(binary, rev, args.workload, args.seed, args.seconds,
                        args.trace, False)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
