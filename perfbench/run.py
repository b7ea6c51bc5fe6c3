#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload echo-udp --seed 1 --seconds 10 --trace 0

builds perfbench/ from source and runs it once. Everything the build and
the run write stays inside the checkout, under .bench_build/ (or under
$CARGO_TARGET_DIR when that is set, relative to the checkout): the Go build
cache, temporary files, WAL directories and span dumps. The last line of
standard output is the run's JSON result.

Repeat mode runs one workload N times, with seeds seed, seed+1, ..., and
prints each metric's median, quartiles, min and max, and the spread
(q3 - q1) / median:

    python3 perfbench/run.py --repeat 10 --workload bank-wal --seed 1 --seconds 20
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170  # a run measures at most 60 s; anything longer is hung


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d)


def go_env(out):
    """The environment for the go tool: caches, temp and config files in
    the checkout, the local toolchain only, and no network."""
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                      ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                      ("XDG_CONFIG_HOME", "config"), ("GOPATH", "gopath")):
        path = os.path.join(out, sub)
        os.makedirs(path, exist_ok=True)
        env[name] = path
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=readonly",
               GOWORK="off", GOENV="off", CGO_ENABLED="0")
    return env


def build(out, env):
    binary = os.path.join(out, "perfbench")
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH_DIR, env=env)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def run_once(binary, env, out, workload, seed, seconds, trace, capture):
    args = [binary, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
            "-trace", str(trace), "-dir", os.path.join(out, "work")]
    return subprocess.run(args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE if capture else None, text=True)


def repeat(binary, env, out, a):
    results = []
    for i in range(a.repeat):
        proc = run_once(binary, env, out, a.workload, a.seed + i, a.seconds, a.trace, True)
        lines = proc.stdout.strip().splitlines()
        # Exit 1 is a run whose checks failed: it still has a result,
        # counted below. Any other failure has none.
        if proc.returncode not in (0, 1) or not lines:
            sys.stdout.write(proc.stdout)
            sys.exit(f"perfbench: run {i + 1} (seed {a.seed + i}) exited {proc.returncode}")
        if proc.returncode == 1:
            sys.stdout.write(proc.stdout)
        res = json.loads(lines[-1])
        results.append(res)
        print(f"run {i + 1}/{a.repeat} seed {a.seed + i}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}", flush=True)
    print(f"\n{a.workload}: {a.repeat} runs of {a.seconds} s, trace={a.trace}")
    print(f"{'metric':30} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'max':>14} {'spread':>8}")
    for name in max((r["metrics"] for r in results), key=len):
        vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:30} {med:14.4f} {q1:14.4f} {q3:14.4f} {min(vals):14.4f} {max(vals):14.4f} {spread:8.4f}")
    if not all(r["correct"] and r["failed"] == 0 for r in results):
        sys.exit("perfbench: a run failed its checks or had failed ops")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, help="run N times with consecutive seeds and summarize")
    a = p.parse_args()

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    env = go_env(out)
    binary = build(out, env)
    if a.repeat > 0:
        repeat(binary, env, out, a)
        return
    sys.stdout.flush()
    proc = run_once(binary, env, out, a.workload, a.seed, a.seconds, a.trace, False)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
