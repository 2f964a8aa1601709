#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary from the checkout's
sources, runs one workload and prints the result as one JSON line.

    python3 perfbench/run.py --workload campaign_long --seed 1 \
        --seconds 10 --trace 0

Run from anywhere inside a checkout; the build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and every
file a run writes stays under that directory. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("campaign_long", "service_churn", "sweep_large_die")
# Fresh processes measured for setup_s besides the main run's own set-up:
# each one pays the first-call lazy set-up the timed region never sees.
SETUP_SAMPLES = 4
# Hard ceiling on one run, build excluded; the main run measures for
# --seconds and then runs its output checks.
RUN_DEADLINE_S = 170

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def positive_int(text):
    value = int(text)
    if value < 1 or value > 120:
        raise argparse.ArgumentTypeError("want 1..120")
    return value


def seed(text):
    value = int(text)
    if value < 0 or value >= 2**64:
        raise argparse.ArgumentTypeError("want 0..2^64-1")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=seed, default=1)
    parser.add_argument("--seconds", type=positive_int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then (re)builds the benchmark binary; the build log
    goes to stderr so stdout ends with the result line."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources next to perfbench/ (need CMakeLists.txt "
             "and src/ at %s)" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    source = os.path.join(ROOT, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_binary(binary, args, deadline):
    """Runs the binary to completion (killed at the deadline) and returns
    its final JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before " + " ".join(args))
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args))
    if proc.returncode != 0:
        fail("exit code %d: %s" % (proc.returncode, " ".join(args)))
    lines = proc.stdout.rstrip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if not lines:
        fail("no result from " + " ".join(args))
    return json.loads(lines[-1])


def main(argv):
    args = parse_args(argv)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)

    deadline = time.monotonic() + RUN_DEADLINE_S
    scratch_parent = os.path.join(build_dir, "tmp")
    os.makedirs(scratch_parent, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_parent)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--scratch", scratch]
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                result = run_binary(binary, common + ["--setup-only"],
                                    deadline)
                setups.append(result["metrics"]["setup_s"]["value"])
        result = run_binary(
            binary, common + ["--seconds", str(args.seconds),
                              "--trace", str(args.trace)], deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    result["correct"] = bool(result["correct"]) and result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
