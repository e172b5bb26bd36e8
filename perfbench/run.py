#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the Mesh runtime.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Workloads: redis-lru, kv-zipf, xthread-handoff; BENCHMARK.json gates
the first two (xthread-handoff's throughput did not repeat between
runs). spec.json says what each runs and why, how every metric is
defined and which clock times it; STEADINESS.md holds the measured
run-to-run spreads the bounds in BENCHMARK.json were set from.

Builds this directory's CMake project, which compiles the library from
the repository's own sources, into .bench_build/perfbench, then runs
one workload with its inputs generated from --seed (any integer, taken
modulo 2^64). Prints every metric by name with its unit, sample count
and clock, then failed/attempted operations, and as the last line one
JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
--workload all runs the three in turn and ends with one such object per
workload, keyed by name. Exits 0 only when every operation succeeded
and every output checked out. --selftest runs the arithmetic tests and a scaled-down smoke of
every workload, traced and untraced.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("redis-lru", "kv-zipf", "xthread-handoff")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def configured_here():
    """True when BUILD holds a CMake cache made for this source tree."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    home = line.split("=", 1)[1].strip()
                    return os.path.realpath(home) == os.path.realpath(HERE)
    except OSError:
        pass
    return False


def configure_and_build():
    """Configures BUILD unless it is configured for this tree, then
    builds; returns whether both worked. Build output goes to stderr."""
    if not configured_here():
        shutil.rmtree(BUILD, ignore_errors=True)
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs,
           "--target", "perfbench", "perfbench_tests"]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def build():
    """Builds the benchmark and returns the path of its binary.

    Runs started together in one checkout take turns through a lock
    file. A build directory left by an earlier checkout at another path,
    or one that no longer builds, is removed and configured afresh, once.
    """
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(os.path.dirname(BUILD), exist_ok=True)
    with open(BUILD + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        ok = configure_and_build()
        if not ok and os.path.exists(BUILD):
            print("perfbench: build failed; configuring afresh",
                  file=sys.stderr)
            shutil.rmtree(BUILD, ignore_errors=True)
            ok = configure_and_build()
    if not ok:
        shutil.rmtree(BUILD, ignore_errors=True)
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(binary, args):
    """Runs perfbench; returns (exit code, human lines, parsed result)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode < 0:
        fail("perfbench was killed by signal %d" % -proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no output (exit code %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("unparsable result line: " + lines[-1][:200])
    return proc.returncode, lines[:-1], result


def show(result, extra_lines):
    for line in extra_lines:
        print(line)
    print("workload %s  seed %s  %s" % (
        result["workload"], result["seed"],
        "traced (per-layer metrics)" if result["trace"] else
        "untraced (end-to-end metrics)"))
    for name, m in result["metrics"].items():
        value = m["value"]
        shown = "n/a" if value is None else "%.6g" % value
        detail = "n=%d" % m["samples"]
        if m.get("clock"):
            detail += " clock=%s" % m["clock"]
        if m.get("note"):
            detail += " (%s)" % m["note"]
        print("  %-36s %14s %-9s %s" % (name, shown, m["unit"], detail))
    print("operations: %d failed / %d attempted  %s" % (
        result["failed"], result["attempted"],
        " ".join("%s=%d" % kv for kv in result["failures"].items())))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed; any integer, taken modulo 2^64")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    args.seed %= 1 << 64

    binary = build()
    if args.selftest:
        sys.exit(selftest(binary))
    if args.workload != "all":
        record = run_one(binary, args.workload, args)
        print(json.dumps(record))
        sys.exit(0 if record["correct"] else 1)
    records = {w: run_one(binary, w, args) for w in WORKLOADS}
    print(json.dumps(records))
    sys.exit(0 if all(r["correct"] for r in records.values()) else 1)


def run_one(binary, workload, args):
    """Runs and shows one workload; returns its result-line object."""
    cmd = ["--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans-%s.tsv" % workload)
        cmd += ["--spans", spans]
    code, lines, result = run_binary(binary, cmd)
    if code not in (0, 1):
        fail("perfbench exited with %d" % code)
    show(result, lines)
    if args.trace:
        print("spans written to %s" % os.path.relpath(spans, ROOT))

    metrics = result["metrics"]
    declared = declared_metrics(args.trace)
    missing = [n for n in (declared or []) if n not in metrics]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing), 1)
    names = declared if declared is not None else list(metrics)
    return {
        "correct": code == 0 and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in names},
    }


def selftest(binary):
    """Arithmetic tests, then a smoke of every workload in both modes."""
    tests = os.path.join(BUILD, "perfbench_tests")
    bad = subprocess.run([tests]).returncode != 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, _, result = run_binary(binary, [
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
            declared = declared_metrics(trace) or []
            missing = [n for n in declared if n not in result["metrics"]]
            ok = code == 0 and result["failed"] == 0 and not missing
            bad |= not ok
            print("smoke %-16s trace=%d  %s  %d/%d failed%s" % (
                workload, trace, "ok" if ok else "FAILED", result["failed"],
                result["attempted"],
                "  missing: " + ", ".join(missing) if missing else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    main()
