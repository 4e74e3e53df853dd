#!/usr/bin/env python3
"""Build and run the StreamLake end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <ingest|analytics|lakehouse_mixed> \
        --seed <n> --seconds <n> --trace <0|1> [--spans-out <path>]

The first run configures and builds perfbench/CMakeLists.txt (the library
from src/ plus the runner, Release) into .bench_build/perfbench; later runs
only rebuild what changed. Build output goes to stderr. The runner's report
goes to stdout, and its last line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 1 the span file is
written to --spans-out (default .bench_out/spans-<workload>-<seed>.jsonl).
"""

import json
import os
import subprocess
import sys

WORKLOADS = ("ingest", "analytics", "lakehouse_mixed")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def positive_int(flag, text):
    if (text is None or not text.isascii() or not text.isdigit()
            or not 0 < int(text) < 2**64):
        fail("%s needs a positive whole number, got %r" % (flag, text))
    return int(text)


def parse_args(argv):
    values = {}
    allowed = ("--workload", "--seed", "--seconds", "--trace", "--spans-out")
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in allowed:
            fail("unknown argument %r" % flag)
        if i + 1 >= len(argv) or argv[i + 1].startswith("--"):
            fail("missing value for " + flag)
        values[flag] = argv[i + 1]
        i += 2
    workload = values.get("--workload")
    if workload not in WORKLOADS:
        fail("unknown workload %r (expected one of %s)"
             % (workload, ", ".join(WORKLOADS)))
    seed = positive_int("--seed", values.get("--seed"))
    seconds = positive_int("--seconds", values.get("--seconds"))
    if seconds > 3600:
        fail("--seconds must be at most 3600")
    trace = values.get("--trace")
    if trace not in ("0", "1"):
        fail("--trace must be 0 or 1, got %r" % trace)
    spans_out = values.get(
        "--spans-out",
        os.path.join(ROOT, ".bench_out",
                     "spans-%s-%d.jsonl" % (workload, seed)))
    if not spans_out:
        fail("missing output path for --spans-out")
    return workload, seed, seconds, trace, spans_out


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: %s: %s" % (cmd[0], err), file=sys.stderr)
        return False
    return done.returncode == 0


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target",
                      "perfbench_runner", "-j", jobs], BUILD_TIMEOUT_S)


def main(argv):
    workload, seed, seconds, trace, spans_out = parse_args(argv)
    if not build():
        fail("build failed", code=1)
    out_dir = os.path.dirname(os.path.abspath(spans_out))
    os.makedirs(out_dir, exist_ok=True)
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", trace,
           "--spans-out", spans_out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("runner exceeded %d s" % RUN_TIMEOUT_S, code=1)
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(stdout)
        fail("runner exited with status %d and no result line"
             % proc.returncode, code=1)
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
