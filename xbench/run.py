#!/usr/bin/env python3
"""End-to-end xpathd benchmark: build, then run one workload.

Run from the root of the source tree:

    python3 xbench/run.py --workload sweep|browse|lookup --seed N \
        --seconds S --trace 0|1

Builds the library, xpathd and the xbench binary from source into the
build directory ($CARGO_TARGET_DIR, default .bench_build), then runs it.
The last line of stdout is the result object; see xbench/README.md for the
workloads and metrics. Exits non-zero without a result when the source
tree is missing or the build fails, and when any response disagrees with
the oracle.
"""
import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def die(message, code=2):
    print(f"xbench: {message}", file=sys.stderr)
    sys.exit(code)


def git_provenance(root):
    """(sha, dirty) of the source tree, or ("unknown", False) outside git."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown", False
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        status = subprocess.run(["git", "-C", root, "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True,
                                check=True).stdout
        return sha, bool(status.strip())
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "xbench",
                  "xpathd", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, cwd=root, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(step), 1)


def die_with_parent():
    # xbench must not outlive this process (PR_SET_PDEATHSIG = 1).
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, signal.SIGKILL)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "browse", "lookup"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--plant-mismatch", action="store_true",
                        help="corrupt one expected answer (self-test)")
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        die("the xpwqo source tree (CMakeLists.txt, src/) is not here")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    build(root, build_dir)

    sha, dirty = git_provenance(root)
    work = os.path.join(root, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [os.path.join(build_dir, "xbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work", work, "--out", os.path.join(root, ".bench_out"),
           "--git-sha", sha, "--git-dirty", "1" if dirty else "0"]
    if args.plant_mismatch:
        cmd.append("--plant-mismatch")
    proc = subprocess.Popen(cmd, cwd=root, preexec_fn=die_with_parent)
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        # The corpus and images of a failed run are left behind otherwise.
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
