#!/usr/bin/env python3
"""Serving benchmark for prodb_server.

Builds the repository's library, prodb_server and the perfbench load
generator from source into .bench_build/, then runs one workload:

  python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

The last line of standard output is the result JSON
({"correct", "attempted", "failed", "metrics"}); --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. The exit code is
non-zero when the build fails, the run cannot be carried out, or an
output check fails.

Two more modes:

  python3 perfbench/run.py --steadiness 5 [--workloads ingest,join]
      runs the workloads repeatedly, interleaved, one seed per round, and
      prints each metric's median, quartiles, min and max (the gated ones
      of the result line and the printed, ungated ones).
  python3 perfbench/run.py --self-test
      builds and runs the benchmark's own tests.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_DIR = os.path.join(BUILD_DIR, "run")
WORKLOADS = ["ingest", "join", "durable", "fire"]
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                   "tools/server_main.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("missing %s: run from a full checkout of the repository"
                 % needed)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_identity():
    """The commit when there is one, and a digest of the sources built."""
    meta = []
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            meta.append("git_sha=" + sha.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    meta.append("source_sha256=" + digest.hexdigest())
    return meta


def stop_group(pgid):
    """Kills whatever is left of a run's process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_once(workload, seed, seconds, trace, meta, capture=False):
    """Runs the load generator; returns (exit code, stdout or None)."""
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--run-dir", RUN_DIR]
    for m in meta:
        cmd += ["--meta", m]
    # Its own process group, so a hung run and the server it spawned can
    # be stopped together.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3, None
    finally:
        stop_group(proc.pid)
    return proc.returncode, out


def steadiness(args, meta):
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}
    failures = []
    for r in range(args.steadiness):
        seed = args.seed + r
        for w in workloads:
            code, out = run_once(w, seed, args.seconds, args.trace, meta,
                                 capture=True)
            lines = (out or "").strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                failures.append("%s seed %d: no result (exit %d)"
                                % (w, seed, code))
                continue
            if code != 0 or not result["correct"] or result["failed"]:
                failures.append("%s seed %d: exit %d, correct=%s, failed=%d"
                                % (w, seed, code, result["correct"],
                                   result["failed"]))
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            # The ungated metrics printed before the result line.
            for line in lines[:-1]:
                fields = line.split()
                if len(fields) != 3 or fields[0] in result["metrics"]:
                    continue
                try:
                    value = float(fields[1])
                except ValueError:
                    continue
                values[w].setdefault(fields[0], []).append(value)
            print("round %d %s seed %d done" % (r, w, seed), file=sys.stderr)
    print("%-8s %-34s %5s %14s %14s %14s %14s %14s %8s"
          % ("workload", "metric", "n", "median", "q1", "q3", "min", "max",
             "iqr/med"))
    for w in workloads:
        for name, vals in values[w].items():
            vals = [v for v in vals if v is not None]
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med * 100 if med else float("nan")
            print("%-8s %-34s %5d %14.6g %14.6g %14.6g %14.6g %14.6g %7.2f%%"
                  % (w, name, len(vals), med, q1, q3, min(vals), max(vals),
                     spread))
    for f in failures:
        print("FAILED " + f)
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="ROUNDS")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    if args.self_test:
        build(["perfbench_test"])
        os.makedirs(RUN_DIR, exist_ok=True)
        test = os.path.join(BUILD_DIR, "perfbench_test")
        if not os.path.isfile(test):
            fail("perfbench_test was not built (GTest not found)")
        proc = subprocess.Popen([test], cwd=RUN_DIR, start_new_session=True)
        try:
            code = proc.wait()
        finally:
            stop_group(proc.pid)
        return code
    if args.steadiness == 0 and args.workload is None:
        p.error("--workload is required")
    build(["perfbench", "prodb_server"])
    meta = source_identity()
    if args.steadiness:
        return steadiness(args, meta)
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace,
                       meta)
    return code


if __name__ == "__main__":
    sys.exit(main())
