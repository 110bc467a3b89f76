#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
library and the benchmark in Release into .bench_build (or
$CARGO_TARGET_DIR); later calls rebuild only what changed. The last line
of standard output is the benchmark's JSON result; build logs go to
standard error. Exits non-zero, without a result, when the build fails or
is not a Release build with failpoints and sanitizers off.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
BUILD_TIMEOUT_S = 850
# At --seconds 40 on a 4-vCPU VM a run took 40-50 s with --trace 0 and
# 33 s (weather) to 56 s (acp) with --trace 1; each run must end within
# 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run(cmd, timeout, **kwargs):
    """subprocess.run that kills the command at `timeout` and exits 2."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout, check=False,
                              **kwargs)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))


def call(cmd, timeout):
    result = run(cmd, timeout, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("command failed: " + " ".join(cmd))


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
              "-DGENCLUS_FAILPOINTS=OFF", "-DGENCLUS_SANITIZE=OFF"],
             BUILD_TIMEOUT_S)
    call(["cmake", "--build", out, "-j", "4", "--target", "perfbench",
          "perfbench_selftest"], BUILD_TIMEOUT_S)
    cache = {}
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    wanted = {"CMAKE_BUILD_TYPE": "Release", "GENCLUS_FAILPOINTS": "OFF",
              "GENCLUS_SANITIZE": "OFF"}
    for key, value in wanted.items():
        if cache.get(key) != value:
            fail("refusing to measure: %s is %r, want %r"
                 % (key, cache.get(key), value))
    return out


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(out, workload, seed, seconds, trace, scale="full"):
    work = os.path.join(out, "work")
    traces = os.path.join(out, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scale", scale, "--work-dir", work,
           "--pins", os.path.join(HERE, "pins.json"),
           "--trace-out", os.path.join(traces, workload + ".json")]
    return run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def selftest(out):
    """Checks the helpers, then runs every workload at tiny scale and checks
    that each emitted name is well formed and declared in BENCHMARK.json."""
    call([os.path.join(out, "perfbench_selftest")], 60)
    spec = declared()
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run_workload(out, w["name"], 3, 2, trace, scale="tiny")
            result = parse_result(proc.stdout)
            where = "%s --trace %d" % (w["name"], trace)
            if proc.returncode != 0 or result is None:
                problems.append("%s exited %d" % (where, proc.returncode))
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: checks failed" % where)
            got = result["metrics"]
            for name, metric in got.items():
                if not NAME_RE.match(name):
                    problems.append("%s: malformed name %r" % (where, name))
                if wanted[trace].get(name) != metric["unit"]:
                    problems.append("%s: %s (%s) not declared"
                                    % (where, name, metric["unit"]))
            for name in set(wanted[trace]) - set(got):
                problems.append("%s: declared %s not emitted" % (where, name))
    for name in ([m["name"] for m in spec["end_to_end"]] +
                 [m["name"] for m in spec["per_layer"]] +
                 [w["name"] for w in spec["workloads"]]):
        if not NAME_RE.match(name):
            problems.append("BENCHMARK.json: malformed name %r" % name)
    for p in problems:
        print("FAIL: " + p, file=sys.stderr)
    print("selftest: %s" % ("ok" if not problems else "%d problem(s)"
                                                       % len(problems)))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no library sources next to perfbench/")
    out = build()
    if args.selftest:
        sys.exit(selftest(out))
    names = [w["name"] for w in declared()["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, names))
    proc = run_workload(out, args.workload, args.seed, args.seconds, args.trace)
    if proc.returncode not in (0, 1) or parse_result(proc.stdout) is None:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited %d" % proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
