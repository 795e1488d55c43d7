#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

One run, from the root of a source checkout:

    python3 perfbench/run.py --workload suite_sweep --seed 1 --seconds 24 --trace 0

builds the simulator libraries and the wgbench program from source into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench), runs one
workload, and prints its metrics; the last line of standard output is
the JSON result object.

Steadiness evidence: run every workload (or the --workload ones) on
--repeat consecutive seeds, --sets times, and print per-metric median,
quartiles, IQR/median and CV per set, plus the drift of each later
set's median from the first's, and the same for the two host
calibration loops every run prints (fixed CPU-bound and memory-bound
controls):

    python3 perfbench/run.py --repeat 10 --sets 2 --seconds 24

Helper unit tests: python3 perfbench/run.py --unit-tests
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["suite_sweep", "event_trace", "served_mix", "checkpoint_chain"]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850
CALIBRATION = re.compile(r"# host calibration: cpu ([0-9.]+) ms before, "
                         r"([0-9.]+) ms after; memory ([0-9.]+) ms before, "
                         r"([0-9.]+) ms after")
CALIBRATE_TIMEOUT_S = 60


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    """Configure (once) and build @targets; all output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + ROOT +
             "; run from the root of a source checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                    "--target"] + targets)
    return bdir


def run_build_step(cmd):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def calibrate(bdir):
    """(cpu ms, memory ms) of the host calibration loops, in a process
    of their own so their memory stays out of the run's peak."""
    try:
        done = subprocess.run([os.path.join(bdir, "wgbench"),
                               "--calibrate", "1"], stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=CALIBRATE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("calibration timed out")
    fields = done.stdout.split()
    if done.returncode != 0 or len(fields) != 6:
        fail("calibration failed")
    return float(fields[1]), float(fields[4])


def run_once(bdir, workload, seed, seconds, trace):
    """Run wgbench once, bracketed by the host calibration when
    @trace is 0; return (stdout lines, parsed result)."""
    cmd = [os.path.join(bdir, "wgbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--digests", os.path.join(HERE, "data", "suite_digests.txt"),
           "--spans", os.path.join(bdir, "spans-%s-%d.jsonl" % (workload,
                                                                seed))]
    before = calibrate(bdir) if trace == 0 else None
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail("%s exited with code %d" % (workload, done.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        fail("%s did not end with a JSON result line" % workload)
    if before is not None:
        after = calibrate(bdir)
        lines.insert(-1, "# host calibration: cpu %.3f ms before, %.3f ms "
                     "after; memory %.3f ms before, %.3f ms after"
                     % (before[0], after[0], before[1], after[1]))
    return lines, result


def spread(values):
    """(median, q1, q3, IQR/median, CV) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        cv = statistics.stdev(values) / statistics.mean(values)
    else:
        q1 = q3 = med
        cv = 0.0
    return med, q1, q3, (q3 - q1) / med if med else 0.0, cv


def calibration_ms(lines):
    """{control: [before, after]} of the host calibration a run printed."""
    for line in lines:
        m = CALIBRATION.match(line)
        if m:
            v = [float(g) for g in m.groups()]
            return {"host_cpu_ms": v[0:2], "host_memory_ms": v[2:4]}
    return {}


def repeat(bdir, args):
    """Each workload's sets run back to back, so the sets of one
    workload see the host as close together in time as possible."""
    workloads = args.workload or WORKLOADS
    medians = {}
    for w in workloads:
        for s in range(args.sets):
            values = {}
            units = {}
            failed = 0
            for i in range(args.repeat):
                seed = args.seed + i
                lines, result = run_once(bdir, w, seed, args.seconds,
                                         args.trace)
                failed += 0 if result["correct"] else 1
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
                calib = calibration_ms(lines)
                for name, pair in calib.items():
                    values.setdefault(name, []).extend(pair)
                    units[name] = "ms (control)"
                print("set %d %s seed %d: correct=%s attempted=%d failed=%d %s"
                      " %s"
                      % (s + 1, w, seed, result["correct"],
                         result["attempted"], result["failed"],
                         " ".join("%s=%.4g" % (n, m["value"]) for n, m in
                                  result["metrics"].items()),
                         " ".join("%s=%.1f/%.1f" % (n, p[0], p[1])
                                  for n, p in calib.items())), flush=True)
            print("set %d %s: %d runs, %d incorrect" % (s + 1, w,
                                                       args.repeat, failed))
            print("  %-34s %14s %14s %14s %8s %8s %8s" % (
                "metric", "median", "q1", "q3", "iqr/med", "cv",
                "drift"))
            for name, vals in values.items():
                med, q1, q3, iqr, cv = spread(vals)
                key = (w, name)
                drift = ""
                if key in medians and medians[key]:
                    drift = "%+.4f" % (med / medians[key] - 1.0)
                else:
                    medians[key] = med
                print("  %-34s %14.6g %14.6g %14.6g %8.4f %8.4f %8s  %s" % (
                    name, med, q1, q3, iqr, cv, drift, units[name]),
                    flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs per workload per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--unit-tests", action="store_true")
    args = parser.parse_args()

    if args.unit_tests:
        bdir = build(["wgbench_helpers_test"])
        sys.exit(subprocess.run(
            [os.path.join(bdir, "wgbench_helpers_test")]).returncode)

    bdir = build(["wgbench"])
    if args.repeat > 0:
        repeat(bdir, args)
        return
    if not args.workload or len(args.workload) != 1:
        fail("give exactly one --workload (or --repeat N)")
    lines, _ = run_once(bdir, args.workload[0], args.seed, args.seconds,
                        args.trace)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
