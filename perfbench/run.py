#!/usr/bin/env python3
"""Build and run the kgwas benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a kgwas checkout.  Configures and builds the harness
(and the library, from the checkout's own sources) into
.bench_build/perfbench, then runs it with the same arguments from the
checkout root.  The harness's last stdout line is the result JSON; build
output goes to stderr.  Exit status is the harness's, 2 when the build
fails, 3 when the harness overruns its time limit.  See perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "kgwas_bench")
# The harness measures for --seconds (at most 60) plus one pass of
# overshoot and its checks; anything past this is a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the harness; raises on failure."""
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "kgwas_bench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    try:
        return subprocess.run([BINARY] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: harness exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
