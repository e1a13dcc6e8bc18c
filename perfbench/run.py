#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --help

The benchmark is a CMake project in this directory that builds the
repository's own libraries (RelWithDebInfo, the repository default) into
.bench_build/perfbench at the repository root, then links the perfbench
binary against them. The first run builds; later runs only check that the
build is current. Build output goes to standard error, so the last line of
standard output stays the run's JSON result. Every argument is passed to
the binary unchanged; see README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configure once, then bring the binary up to date. False on failure."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return False
    return True


def git_state():
    """(sha, dirty) of the checkout, or ("none", "none") outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT] + list(args),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "none", "none"
        sha = git("rev-parse", "HEAD").stdout.strip() or "none"
        dirty = git("status", "--porcelain", "--untracked-files=no").stdout
        return sha, "1" if dirty.strip() else "0"
    except OSError:
        return "none", "none"


def main():
    if not build():
        return 1
    sha, dirty = git_state()
    os.environ["PERFBENCH_GIT_SHA"] = sha
    os.environ["PERFBENCH_GIT_DIRTY"] = dirty
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
