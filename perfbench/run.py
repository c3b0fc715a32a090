#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

Run from the root of a partdb checkout:

    python3 perfbench/run.py --workload kv_closed --seed 1 --seconds 10 --trace 0

Builds partdb and the benchmark binary from the checkout (Release, into
$CARGO_TARGET_DIR or .bench_build), runs the workload in a child process
under a deadline, and prints the child's report followed by one JSON object
on the last line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list. Exits 0 when every output check passed, 1 when
a check failed or the watchdog killed the run, 2 when it cannot build or run
at all (then no result line is printed). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("kv_closed", "tpcc_closed", "kv_group_commit", "kv_remote")
# A run must end within 180 s; the child gets what the build left, minus a
# margin for killing it and reporting.
RUN_BUDGET_S = 175.0
MIN_CHILD_DEADLINE_S = 60.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures once, then builds incrementally. Returns the binary path."""
    log = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(max(1, os.cpu_count() or 1))])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(log) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)  # a failed configure's cache would hide the error
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run_child(cmd, deadline_s, phase_file):
    """Runs `cmd` in its own process group. Returns (returncode, stdout,
    killed, last_phase); on a timeout the whole group is killed and reaped."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=deadline_s)
        return proc.returncode, out, False, read_phase(phase_file)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return proc.returncode, out, True, read_phase(phase_file)


def read_phase(phase_file):
    """(phase, attempted) from the child's progress file, ("start", 0) when
    it wrote none."""
    try:
        with open(phase_file) as f:
            phase, attempted = f.read().split()
        return phase, int(attempted)
    except (OSError, ValueError):
        return "start", 0


def account(child, killed, last_phase):
    """(correct, attempted, failed) of a run. A killed or crashed run fails
    every transaction it attempted (at least one, so the share is defined)."""
    if killed or child is None:
        attempted = max(1, last_phase[1])
        return False, attempted, attempted
    attempted = int(child["attempted"])
    failed = int(child["failed"])
    correct = bool(child["correct"]) and failed == 0 and attempted > 0
    return correct, max(1, attempted), failed


def select_metrics(child_metrics, declared):
    """The declared metrics, in declared order; missing ones are listed."""
    chosen, missing = {}, []
    for m in declared:
        got = child_metrics.get(m["name"])
        if got is None or got.get("value") is None:
            missing.append(m["name"])
            continue
        chosen[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return chosen, missing


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    started = time.monotonic()
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json in %s: %s" % (root, e))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    binary = build(root, build_dir)

    scratch = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    phase_file = os.path.join(scratch, "phase")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch_dir", os.path.join(scratch, "data"), "--phase_file", phase_file]
    deadline = max(MIN_CHILD_DEADLINE_S, RUN_BUDGET_S - (time.monotonic() - started))
    try:
        code, out, killed, last_phase = run_child(cmd, deadline, phase_file)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = out.rstrip("\n").split("\n") if out else []
    child = None
    if not killed and lines:
        try:
            child = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            child = None
    for line in lines:
        print(line)
    if killed:
        print("watchdog: killed %s seed %d after %.0f s in phase %s" %
              (args.workload, args.seed, deadline, last_phase[0]))
    elif child is None:
        print("crashed: %s seed %d exited with %d in phase %s" %
              (args.workload, args.seed, code, last_phase[0]))
    else:
        print("result: " + json.dumps({k: child[k] for k in
                                       ("workload", "seed", "trace", "fingerprint")}))

    correct, attempted, failed = account(child, killed, last_phase)
    metrics = {}
    if child is not None:
        metrics, missing = select_metrics(child["metrics"], declared)
        if missing:
            print("missing metrics: " + ", ".join(missing))
            correct = False
        if code != 0:
            correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
