#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pingpong|bulk|incast \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (the U-Net libraries
from src/ plus bench.cc, Release, shipped default options) under
$CARGO_TARGET_DIR (default .bench_build); later calls only rebuild what
changed. Build output goes to stderr, so the benchmark's own stdout
ends with its one-line JSON result. With --trace 1 the traced run's
host-time spans are written to <build dir>/spans-<workload>.csv.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def cached_source(build):
    """The source directory a build tree was configured from, if any."""
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no U-Net sources at %s/src" % ROOT)
    cached = cached_source(build)
    if cached is not None and os.path.realpath(cached) != os.path.realpath(HERE):
        shutil.rmtree(build)
        cached = None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if cached is None:
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def main(argv):
    out = build_dir()
    build(out)
    cmd = [os.path.join(out, "perfbench")] + argv
    if "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]:
        workload = argv[argv.index("--workload") + 1] \
            if "--workload" in argv[:-1] else "run"
        cmd += ["--spans", os.path.join(out, "spans-%s.csv" % workload)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
