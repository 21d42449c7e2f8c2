#!/usr/bin/env python3
"""End-to-end benchmark of the qudit serving stack: one workload per run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. Builds perfbench (the library from src/
plus the driver in perfbench/src/) into .bench_build/perfbench, then:

  --trace 0  runs a cold one-iteration probe process for peak_rss_mb and
             a timed process for the other end-to-end metrics;
  --trace 1  runs one traced process for the per-layer metrics
             (per-layer metrics of layers the workload never calls read 0).

Human-readable notes (sample counts, intended cancels, check details) go
to stdout as '# ' lines; the last stdout line is the JSON result. Exits
non-zero without a result when the build or a run fails. Workloads,
metrics and the default/held-out seeds are described in
perfbench/README.md.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(BUILD, "noisy_reference.bin")
WORKLOADS = ("scenario-replay", "serve-mix", "noisy-trajectories",
             "reservoir")
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 165  # every perfbench process of one run, after the build


class BenchError(Exception):
    pass


def run(cmd, timeout):
    """Runs `cmd`; returns (code, stdout, stderr). On timeout the child is
    killed and reaped before the error is raised."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    return proc.returncode, proc.stdout, proc.stderr


def check_call(cmd, timeout):
    """Runs a build step; its output is shown only when it fails."""
    code, out, err = run(cmd, timeout)
    if code != 0:
        sys.stderr.write(out + err)
        raise BenchError("failed: " + " ".join(cmd))


def build():
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("no %s in %s: nothing to build" % (need, ROOT))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        check_call(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    check_call(["cmake", "--build", BUILD, "--target", "perfbench", "-j",
                jobs], BUILD_TIMEOUT_S)
    # noisy-trajectories checks against density-matrix populations that
    # take tens of seconds to compute: do it once per build directory.
    check_call([BINARY, "--make-reference", REFERENCE], BUILD_TIMEOUT_S)


def run_binary(args, deadline):
    """Runs perfbench; returns its result object, echoing its notes."""
    cmd = [BINARY] + args
    code, out, err = run(cmd, deadline - time.monotonic())
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError("exit %d: %s" % (code, " ".join(cmd)))
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def expect(metrics, specs):
    """Checks that `metrics` holds exactly the metrics in `specs`."""
    for spec in specs:
        got = metrics.get(spec["name"])
        if got is None:
            raise BenchError("metric %s missing" % spec["name"])
        if got["unit"] != spec["unit"]:
            raise BenchError("metric %s has unit %s, not %s" %
                             (spec["name"], got["unit"], spec["unit"]))
        if not math.isfinite(got["value"]):
            raise BenchError("metric %s is not finite" % spec["name"])
    extra = set(metrics) - {spec["name"] for spec in specs}
    if extra:
        raise BenchError("metrics not in BENCHMARK.json: %s" %
                         ", ".join(sorted(extra)))


def main():
    with open(os.path.join(HERE, "seeds.json")) as f:
        seeds = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=seeds["default"])
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        seconds = (args.seconds if args.seconds is not None
                   else bench["run_seconds"])
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--reference", REFERENCE]
        if args.trace:
            spans = os.path.join(BUILD, "spans-%s-%d.json" %
                                 (args.workload, args.seed))
            runs = [run_binary(common + ["--seconds", str(seconds), "--trace",
                                         "--spans-out", spans], deadline)]
            metrics = runs[0]["metrics"]
            missing = [m for m in bench["per_layer"]
                       if m["name"] not in metrics]
            for m in missing:
                metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
            if missing:
                print("# not on this workload's path (reported as 0): " +
                      ", ".join(m["name"] for m in missing))
            print("# benchmark spans written to " +
                  os.path.relpath(spans, ROOT))
            expect(metrics, bench["per_layer"])
        else:
            runs = [run_binary(common + ["--rss-probe"], deadline),
                    run_binary(common + ["--seconds", str(seconds)], deadline)]
            metrics = dict(runs[1]["metrics"], **runs[0]["metrics"])
            expect(metrics, bench["end_to_end"])
    except (BenchError, OSError, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1

    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
