#!/usr/bin/env python3
"""Builds webcc_bench from this checkout and runs it.

    python3 bench/suite/run.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/suite/run.py --smoke --seed 1
    python3 bench/suite/run.py compare A/ B/

The first call configures bench/suite (a standalone CMake project over the
repository's src/) into build-bench/ at the repository root and builds it;
later calls rebuild only what changed. Build output goes to stderr, so the
last line of stdout stays webcc_bench's JSON summary. For a single
--workload run the summary's metric names are checked against
BENCHMARK.json: end_to_end untraced, per_layer traced.
"""
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def git_sha():
    """HEAD of the repository this file belongs to, or "unknown"."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != \
                os.path.realpath(ROOT):
            return "unknown"
        return git("rev-parse", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def expected_metrics(args):
    """The metric names BENCHMARK.json asks of this run, or None."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if "--workload" not in args or "--smoke" in args or \
            not os.path.exists(spec_path):
        return None
    traced = "--traced" in args or any(
        a == "--trace" and b == "1" for a, b in zip(args, args[1:]))
    with open(spec_path) as spec:
        layer = json.load(spec)["per_layer" if traced else "end_to_end"]
    return {metric["name"] for metric in layer}


def main():
    # Turn SIGTERM into an exception so subprocess.run kills and reaps the
    # benchmark instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = sys.argv[1:]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    env = dict(os.environ, WEBCC_BENCH_GIT_SHA=git_sha())
    run = subprocess.run([os.path.join(BUILD, "webcc_bench"), *args],
                         stdout=subprocess.PIPE, text=True, env=env)
    sys.stdout.write(run.stdout)
    expected = expected_metrics(args)
    if run.returncode == 0 and expected is not None:
        try:
            names = set(json.loads(run.stdout.splitlines()[-1])["metrics"])
        except (IndexError, KeyError, ValueError):
            names = set()
        if names != expected:
            print(f"run.py: metrics {sorted(names)} differ from "
                  f"BENCHMARK.json {sorted(expected)}", file=sys.stderr)
            return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
