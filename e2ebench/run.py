#!/usr/bin/env python3
"""End-to-end benchmark of tpset through QueryExecutor.

Builds the library and the e2e_bench binary from this checkout's sources
(CMake, into $CARGO_TARGET_DIR or .bench_build), then runs workloads.

  python3 e2ebench/run.py --workload oneshot_uniform --seed 1 --seconds 30 --trace 0
  python3 e2ebench/run.py --seed 1 --seconds 30 --trace 0     # every workload
  python3 e2ebench/run.py --workload stream_mixed --steadiness 5 --seed 1

A single-workload run prints the binary's output unchanged: notes, every
metric as "name = value unit", and one JSON result line last. It exits
non-zero when any output check failed. --steadiness N runs the workload N
times (seeds seed..seed+N-1) and prints each metric's median, quartiles and
quartile spread as a share of the median. See e2ebench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["oneshot_uniform", "oneshot_skewed_t4", "stream_mixed"]
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
RUN_TIMEOUT_S = 175


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds e2e_bench; returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "e2ebench")
    # The compiler's temporaries stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                ["cmake", "--build", build_dir, "-j", jobs]):
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, env=env,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace")[-8000:])
            fail("build step %s failed (exit %d)" % (cmd[:2], proc.returncode))
    binary = os.path.join(build_dir, "e2e_bench")
    if not os.path.isfile(binary):
        fail("build produced no e2e_bench")
    return binary


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = out.stdout.decode().strip()
    return commit if out.returncode == 0 and commit else "unknown"


def run_once(binary, workload, seed, seconds, trace, commit, echo):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    out = proc.stdout.decode(errors="replace")
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def steadiness(binary, args, commit):
    """Repeats one workload and prints each metric's median and quartiles."""
    values = {}
    units = {}
    worst = 0
    for i in range(args.steadiness):
        seed = args.seed + i
        code, result = run_once(binary, args.workload, seed, args.seconds,
                                args.trace, commit, echo=False)
        if result is None:
            fail("%s seed %d printed no result (exit %d)"
                 % (args.workload, seed, code))
        worst = max(worst, code)
        print("# run %d seed %d correct=%s attempted=%d failed=%d %s" % (
            i + 1, seed, result["correct"], result["attempted"],
            result["failed"], " ".join(
                "%s=%.5g" % (k, m["value"])
                for k, m in result["metrics"].items())), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print("%-34s %12s %12s %12s %9s  unit" % (
        "metric", "median", "q1", "q3", "iqr/med"))
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        print("%-34s %12.6g %12.6g %12.6g %9.4f  %s" % (
            name, med, q1, q3, spread, units[name]))
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: every workload in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", type=int, default=0, metavar="N",
                    help="run --workload N times and print its spread")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    commit = git_commit()
    if args.steadiness > 0:
        if args.workload is None:
            fail("--steadiness needs --workload")
        return steadiness(binary, args, commit)
    if args.workload is not None:
        code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace, commit, echo=True)
        return code
    worst = 0
    for workload in WORKLOADS:
        print("## workload %s" % workload, flush=True)
        code, _ = run_once(binary, workload, args.seed, args.seconds,
                           args.trace, commit, echo=True)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
