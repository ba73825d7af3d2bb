#!/usr/bin/env python3
"""Builds and runs the pgsim end-to-end benchmark.

Run from the repository root:

  python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>
  python3 e2e_bench/run.py --self-test

The first call configures and builds the library and the benchmark driver
from source with CMake (Release) under .bench_build/; later calls only
rebuild what changed. The driver's output is passed through unchanged: its
last line is the JSON result. The exit code is the driver's (non-zero when a
correctness gate failed), or 1 when the build fails or the run times out.

--self-test runs every workload at a tiny size, checks that every metric
BENCHMARK.json names is printed with its unit, and checks that the
correctness gate trips on an injected answer mismatch.
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
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e_bench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "e2e_work")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns True on success."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "pgsim"))):
        log("e2e_bench: pgsim sources not found next to e2e_bench/")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    result = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                            stdout=sys.stderr)
    return result.returncode == 0 and os.path.isfile(BINARY)


def source_id():
    """The git commit when available, plus a digest of the built sources."""
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "%s+src.%s" % (commit, digest.hexdigest()[:12])


def run_driver(workload, seed, seconds, trace, extra=()):
    """Runs the driver once; returns (exit code, stdout) or (None, "")."""
    command = [BINARY, "--workload=%s" % workload, "--seed=%d" % seed,
               "--seconds=%s" % seconds, "--trace=%d" % trace,
               "--work-dir=%s" % WORK_DIR, "--commit=%s" % source_id()]
    command += list(extra)
    try:
        result = subprocess.run(command, capture_output=True, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("e2e_bench: run exceeded %d s" % RUN_TIMEOUT_S)
        return None, ""
    sys.stderr.write(result.stderr)
    return result.returncode, result.stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, out = run_driver(workload, 1, 2, trace, ["--tiny"])
            result = last_json(out) if code is not None else None
            where = "%s trace=%d" % (workload, trace)
            if code != 0 or not result or result.get("correct") is not True:
                problems.append("%s: run failed (exit %s)" % (where, code))
                continue
            metrics = result["metrics"]
            if set(metrics) != set(expected[trace]):
                problems.append("%s: metric names differ from BENCHMARK.json"
                                % where)
            for name, unit in expected[trace].items():
                got = metrics.get(name, {})
                if got.get("unit") != unit:
                    problems.append("%s: %s unit %r, expected %r"
                                    % (where, name, got.get("unit"), unit))
                if "%s %s " % ("e2e" if trace == 0 else "layer", name) \
                        not in out:
                    problems.append("%s: %s not printed" % (where, name))
                if trace == 0 and not got.get("value"):
                    problems.append("%s: end-to-end %s is 0" % (where, name))
        code, out = run_driver(workload, 1, 2, 0,
                               ["--tiny", "--inject-mismatch"])
        result = last_json(out) if code is not None else None
        tripped = result is not None and result.get("correct") is False
        if code in (0, None) or not tripped:
            problems.append("%s: gate did not trip on an injected mismatch"
                            % workload)
    for problem in problems:
        log("self-test: " + problem)
    print("self-test: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not build():
        log("e2e_bench: build failed")
        return 1
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    code, out = run_driver(args.workload, args.seed, args.seconds, args.trace)
    if code is None:
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
