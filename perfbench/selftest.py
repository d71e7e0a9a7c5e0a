#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny size, plain and traced, through run.py and
checks each result: the metric names and units match BENCHMARK.json
(run.py enforces that), the outputs are correct, nothing failed, and every
end-to-end metric is a positive number. Then checks that run.py, in a
directory holding only BENCHMARK.json and perfbench/, exits non-zero without
printing a result. Takes about a minute after the first build.
"""

import json
import math
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            what = "%s --trace %s" % (workload, trace)
            done = run(["--workload", workload, "--seed", "5", "--seconds",
                        "1", "--trace", trace, "--tiny"])
            if done.returncode != 0:
                problems.append("%s exited %d:\n%s" % (what, done.returncode,
                                                       done.stderr[-2000:]))
                continue
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            if not any(line.startswith("host: ") for line in lines):
                problems.append(what + ": no host record")
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correct=%s failed=%d" % (
                    what, result["correct"], result["failed"]))
            if result["attempted"] < 1:
                problems.append(what + ": attempted nothing")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(
                        value):
                    problems.append("%s: %s = %r" % (what, name, value))
                elif trace == "0" and value <= 0:
                    problems.append("%s: %s = %r is not positive" % (
                        what, name, value))
            print("ok: %s (%d metrics)" % (what, len(result["metrics"])))

    # Without the library sources the benchmark must refuse to run.
    bare = os.path.join(ROOT, ".bench_run", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(["--workload", "offline_study", "--seed", "1", "--seconds",
                "1", "--trace", "0"], cwd=bare)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("a bare checkout ran: exit %d, stdout %r" % (
            done.returncode, done.stdout[-200:]))
    else:
        print("ok: a bare checkout exits %d without a result" %
              done.returncode)
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL: " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
