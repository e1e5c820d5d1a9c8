#!/usr/bin/env python3
"""Self-test of the benchmark's oracle: a planted wrong answer must fail.

Run from the root of the source tree:

    python3 xbench/selftest.py

Runs one short browse run with --plant-mismatch, which corrupts the
expected answer of the first request the load generator sends, and
asserts that the run exits non-zero and reports correct=false. Then runs
the same seed unplanted and asserts that it passes.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(*extra):
    proc = subprocess.run([sys.executable, RUN, "--workload", "browse",
                           "--seed", "7", "--seconds", "1", "--trace", "0",
                           *extra], capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, proc.stderr


def main():
    code, result, err = run("--plant-mismatch")
    if code == 0 or result is None or result["correct"] is not False:
        sys.exit(f"FAIL: planted mismatch not caught (exit {code}, "
                 f"result {result})\n{err[-2000:]}")
    print("ok: planted mismatch fails the run "
          f"(exit {code}, {result['failed']} failed)")
    code, result, err = run()
    if code != 0 or result is None or result["correct"] is not True:
        sys.exit(f"FAIL: clean run did not pass (exit {code})\n{err[-2000:]}")
    print("ok: the same run without the plant passes")


if __name__ == "__main__":
    main()
