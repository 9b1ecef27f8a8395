#!/usr/bin/env python3
"""Entry point of the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds the runtime libraries from ./src and
the benchmark program from ./perfbench (Release, in .bench_build/perfbench),
runs one workload, and prints the program's stdout; its last line is the
result object {"correct", "attempted", "failed", "metrics"}. The traced run
(--trace 1) also writes its spans to .bench_out/spans_<workload>.json. The
program's stderr (failure reports, the runtime's metrics table) goes to
.bench_out/<workload>.trace<0|1>.stderr.log.

Exits non-zero, without a result line, when the runtime sources are absent
or the build fails; exits non-zero with correct=false when an output check
fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("spawn_burst", "task_grain", "blocking_handoff", "echo_rpc")
RUN_TIMEOUT_S = 170  # a run (build done) must end within 180 s


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no runtime sources at %s/src; run from a full checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            rc = subprocess.call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                                 stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                die("cmake configure failed; see " + log_path)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        rc = subprocess.call(["cmake", "--build", BUILD, "-j", jobs], stdout=log,
                             stderr=subprocess.STDOUT)
        if rc != 0:
            die("build failed; see " + log_path)


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args):
    os.makedirs(OUT, exist_ok=True)
    err_path = os.path.join(OUT, "%s.trace%d.stderr.log" % (args.workload, args.trace))
    cmd = [os.path.join(BUILD, "lwt_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT]
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, text=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # Ask the program where it is stuck, then end it.
            proc.send_signal(signal.SIGUSR1)
            time.sleep(1)
            proc.kill()
            proc.communicate()
            with open(err_path) as log:
                sys.stderr.writelines(l for l in log if l.startswith("HANG "))
            die("workload %s did not finish within %d s; see %s"
                % (args.workload, RUN_TIMEOUT_S, err_path))
    lines = stdout.strip().splitlines()
    if not lines:
        die("workload %s printed nothing (exit %d); see %s" % (args.workload, proc.returncode,
                                                               err_path))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("workload %s ended without a result line; see %s" % (args.workload, err_path))
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        die("metric names differ from BENCHMARK.json: %s"
            % sorted(set(result["metrics"]) ^ want))
    for line in lines:
        print(line)
    if proc.returncode != 0:
        with open(err_path) as err:
            failures = [l for l in err if l.startswith("FAIL ")]
        sys.stderr.writelines(failures)
    return proc.returncode


def selftest():
    build()
    rc = subprocess.call([os.path.join(BUILD, "perfbench_selftest")])
    import repeat  # noqa: E402  (sits beside this file)
    rc |= repeat.selftest()
    return rc


def main():
    sys.path.insert(0, HERE)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")
    build()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
