#!/usr/bin/env python3
"""Builds and runs the TrajKit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds
perfbench/CMakeLists.txt (the library from the repository's own build file
plus the driver) into .bench_build/, runs one workload with its files in
.bench_run/, prints one `host:` line describing the machine and the build,
and then, as the last line of stdout, the driver's JSON result. The result
and the host record are also kept in .bench_run/results/.

The metric names and units the driver prints are checked against
BENCHMARK.json; a mismatch fails the run.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_DIR = os.path.join(ROOT, ".bench_run")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("replay_geolife", "serve_paced_short", "offline_study")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds the driver (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/: run from a full checkout")
    env = dict(os.environ)
    # Compiler temporaries stay inside the checkout.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def git_commit():
    """The checked-out commit, read from .git without leaving the tree."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(ROOT, ".git", ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (" + ref + ")"


def source_digest():
    """sha256 over the library sources, the root build file and the
    benchmark: identifies the code measured when there is no commit."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, name) for name in filenames)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record():
    info = subprocess.run([BINARY, "--build_info"], capture_output=True,
                          text=True, check=True)
    record = {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
    }
    record.update(json.loads(info.stdout))
    return record


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are " + ", ".join(sorted(result)))
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = declared_metrics(trace)
    if printed != declared:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (
                 sorted(set(declared) - set(printed)),
                 sorted(set(printed) - set(declared)),
                 sorted(n for n in printed.keys() & declared.keys()
                        if printed[n] != declared[n])))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true",
                        help="small corpora (the smoke self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
    command = [BINARY, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=" + args.trace, "--work_dir=" + RUN_DIR]
    if args.tiny:
        command.append("--tiny")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload,
                                                RUN_TIMEOUT_S))
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("%s exited with %d" % (args.workload, done.returncode))
    result = json.loads(lines[-1])
    check_result(result, args.trace == "1")

    host = host_record()
    name = "%s-seed%d-trace%s.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RUN_DIR, "results", name), "w") as f:
        json.dump({"host": host, "workload": args.workload,
                   "seed": args.seed, "seconds": args.seconds,
                   "trace": int(args.trace), "result": result}, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("host: " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
