#!/usr/bin/env python3
"""KGQAn benchmark runner.

Builds the benchmark package (this directory, which compiles the
repository's ../src) into .bench_build/ under the current directory, then
runs one workload and prints its JSON result as the last stdout line:

    python3 kgqanbench/run.py --workload mag-cold --seed 1 --seconds 15 --trace 0

--selftest builds and runs the benchmark's own tests instead.
Build output goes to stderr.  The exit code is the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def main(argv):
    try:
        if argv == ["--selftest"]:
            return subprocess.run([build("kgqanbench_test")]).returncode
        binary = build("kgqan_bench")
    except (subprocess.CalledProcessError, OSError) as error:
        print("build failed: %s" % error, file=sys.stderr)
        return 1
    try:
        done = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
