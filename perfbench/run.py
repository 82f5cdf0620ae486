#!/usr/bin/env python3
"""Builds and runs the sdaf benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload ladder_pass --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The library, the sdafd daemon and
the benchmark driver are compiled from the checkout's sources into
.bench_build/ (CMake, Release); nothing outside the checkout is read or
written. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run's provenance. Exit status is 0 only when every output matched its
reference and the driver reported a finite value for exactly the metrics
BENCHMARK.json names; the units on the result line come from BENCHMARK.json.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_root():
    """CARGO_TARGET_DIR when it points inside the checkout, else .bench_build."""
    want = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.abspath(os.path.join(ROOT, want))
    if os.path.commonpath([path, ROOT]) != ROOT or path == ROOT:
        path = os.path.join(ROOT, ".bench_build")
    return path


def load_units():
    """BENCHMARK.json is the one list of metric names and units: the driver
    reports values by name, and run.py checks the names and attaches the
    units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}
    return spec, units("end_to_end"), units("per_layer")


def build(out_dir, deadline):
    """Configures and builds; returns the binary directory or None."""
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return None
    bin_dir = os.path.join(out_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        [cmake, "-S", BENCH_DIR, "-B", bin_dir, "-DCMAKE_BUILD_TYPE=Release"],
        [cmake, "--build", bin_dir, "-j", jobs],
    ]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("build timed out")
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace")[-6000:])
            log("build failed: " + " ".join(cmd[1:3]))
            return None
    return bin_dir


def provenance_commit():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark compiles."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             timeout=10)
        if out.returncode == 0:
            return out.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.*"), recursive=True)
                   + glob.glob(os.path.join(BENCH_DIR, "src", "*.*"))
                   + [os.path.join(ROOT, "tools", "sdafd.cpp")])
    for path in files:
        with open(path, "rb") as f:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0" + f.read())
    return "none (sources sha256 %s)" % h.hexdigest()[:16]


def clean_work_dir(work_dir):
    """Removes daemon directories a killed driver could not remove."""
    for d in glob.glob(os.path.join(work_dir, "sdafd.*")):
        shutil.rmtree(d, ignore_errors=True)


class Driver:
    """One driver process; forwards SIGTERM/SIGINT and always reaps it."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)

    def wait(self, timeout):
        try:
            out, _ = self.proc.communicate(timeout=timeout)
            return self.proc.returncode, out.decode(errors="replace")
        except subprocess.TimeoutExpired:
            log("driver exceeded %.0f s; terminating it" % timeout)
            self.stop()
            return None, ""

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def driver_argv(bin_dir, work_dir, workload, seed, seconds, trace, deadline_s,
                extra=()):
    argv = [os.path.join(bin_dir, "perfbench_driver"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--sdafd", os.path.join(bin_dir, "sdaf", "sdafd"),
            "--work-dir", os.path.relpath(work_dir, ROOT),
            "--git-commit", provenance_commit(),
            "--deadline-s", "%.0f" % max(5.0, deadline_s)]
    if trace:
        traces = os.path.join(os.path.dirname(work_dir), "traces")
        os.makedirs(traces, exist_ok=True)
        argv += ["--trace-out", os.path.relpath(
            os.path.join(traces, "%s-seed%s.json" % (workload, seed)), ROOT)]
    return argv + list(extra)


def parse_result(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None, []
    try:
        return json.loads(lines[-1]), lines
    except ValueError:
        return None, lines


def check_result(result, units):
    """Problems with the driver's result object against the metric names of
    BENCHMARK.json (empty = fine)."""
    if result is None:
        return ["no result object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append("metrics missing %s, unexpected %s" % (
            sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))))
    for name, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append("%s has no finite value (%r)" % (name, value))
    return problems


def with_units(result, units):
    """The result line of the benchmark contract: each metric as
    {"value", "unit"}, the unit from BENCHMARK.json."""
    out = dict(result)
    out["metrics"] = {name: {"value": value, "unit": units[name]}
                      for name, value in result["metrics"].items()}
    return json.dumps(out)


def run_once(args, bin_dir, work_dir, units, start):
    remaining = RUN_BUDGET_S - (time.monotonic() - start)
    if args.first_build:
        remaining = max(remaining, 120.0)
    driver = Driver(driver_argv(bin_dir, work_dir, args.workload, args.seed,
                                args.seconds, args.trace, remaining - 3))

    def on_signal(signum, _frame):
        driver.stop()
        clean_work_dir(work_dir)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    code, out = driver.wait(timeout=max(5.0, remaining))
    clean_work_dir(work_dir)
    result, lines = parse_result(out)
    problems = check_result(result, units)
    if code is None or problems:
        for p in problems:
            log("invalid result: " + p)
        return 1
    for line in lines[:-1]:
        print(line)
    print(with_units(result, units))
    return 0 if code == 0 and result["correct"] else 1


def self_test(bin_dir, work_dir, spec, e2e, layers):
    """Tiny runs of every workload: a finite value for every metric
    BENCHMARK.json names, in both modes, a perturbed reference detected,
    and an interrupted wire run leaving no daemon or socket behind."""
    failures = []

    def run(workload, trace, extra=()):
        d = Driver(driver_argv(bin_dir, work_dir, workload, 7, 1, trace, 120,
                               ["--tiny"] + list(extra)))
        code, out = d.wait(timeout=150)
        result, _ = parse_result(out)
        return code, result

    for w in [w["name"] for w in spec["workloads"]]:
        for trace, units in ((0, e2e), (1, layers)):
            code, result = run(w, trace)
            problems = check_result(result, units)
            if code != 0 or problems or not result["correct"]:
                failures.append("%s trace=%d: exit %s %s" % (w, trace, code, problems))
        code, result = run(w, 0, ["--perturb-reference"])
        if code == 0 or result is None or result["correct"] or result["failed"] == 0:
            failures.append("%s: perturbed reference was not detected" % w)

    # Interrupt a wire run mid-flight: the daemon must be gone afterwards.
    d = Driver(driver_argv(bin_dir, work_dir, "wire_mix", 7, 30, 0, 120))
    time.sleep(2.0)
    d.stop()
    leftovers = glob.glob(os.path.join(work_dir, "sdafd.*"))
    marker = os.path.relpath(work_dir, ROOT).encode()
    for cmdline in glob.glob("/proc/[0-9]*/cmdline"):
        try:
            with open(cmdline, "rb") as f:
                if marker in f.read():
                    leftovers.append(cmdline)
        except OSError:
            pass
    if leftovers:
        failures.append("interrupted run left %s" % leftovers)
    clean_work_dir(work_dir)

    for f in failures:
        log("self-test FAILED: " + f)
    if not failures:
        log("self-test ok")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    start = time.monotonic()

    try:
        spec, e2e, layers = load_units()
    except (OSError, ValueError, KeyError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 2
    if not args.self_test:
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            log("--workload must be one of %s" % names)
            return 2

    out_dir = build_root()
    bin_dir = os.path.join(out_dir, "cmake")
    args.first_build = not os.path.exists(os.path.join(bin_dir, "perfbench_driver"))
    bin_dir = build(out_dir, start + BUILD_TIMEOUT_S)
    if bin_dir is None:
        return 2
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    clean_work_dir(work_dir)
    if args.self_test:
        return self_test(bin_dir, work_dir, spec, e2e, layers)
    return run_once(args, bin_dir, work_dir, layers if args.trace else e2e, start)


if __name__ == "__main__":
    sys.exit(main())
