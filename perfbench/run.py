#!/usr/bin/env python3
"""Run one workload of the PAR-TDBHT benchmark and print its metrics.

    python3 perfbench/run.py --workload batched-4k --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first run builds the program and the
benchmark runner from source with sbt (perfbench/build.sbt, which depends on
the repository's build); later runs reuse the build while the sources are
unchanged. The runner (perfbench/src) runs in one JVM, after two that stop
after set-up when --trace is 0 (setup_s is the median of the three), and
writes its measurements as JSON; this script prints them by name with their units
from BENCHMARK.json, keeps a copy with the machine context under
perfbench/target/results, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. The exit code
is non-zero when a run failed a check or the runner could not run.
"""
import argparse
import fcntl
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
HEAP = "2g"  # batched-4k keeps three 4000 x 4000 double matrices (384 MB) live
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170  # for all runner JVMs of one run together
# With --trace 0, setup_s is the median over this many JVMs: SETUPS - 1 that
# stop after set-up, then the full run.
SETUPS = 3
# Work counts derived from the input size, not measured.
COMPUTED = {"correlation.madds", "apsp.relaxations", "apsp.out_bytes"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_child(cmd, timeout, **kw):
    """Run cmd to completion; kill it on timeout or when this script is stopped."""
    child = subprocess.Popen(cmd, **kw)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"{cmd[0]} did not finish within {timeout:.0f} s")


def source_files():
    """Everything the build reads: both build definitions and the main and runner sources."""
    files = [os.path.join(d, f) for d in (ROOT, HERE) for f in ("build.sbt", "project/build.properties")]
    for top in (os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"), os.path.join(HERE, "src")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, f) for f in names if f.endswith((".scala", ".java"))]
    return sorted(files)


def source_hash():
    h = hashlib.sha1()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(src_hash):
    """Compile with sbt unless the build for these sources exists; return the classpath."""
    os.makedirs(TARGET, exist_ok=True)
    stamp = os.path.join(TARGET, "classpath.txt")
    with open(os.path.join(TARGET, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(stamp):
            with open(stamp) as fh:
                built_hash, cp = fh.read().split("\n", 1)
            if built_hash == src_hash:
                return cp.strip()
        env = dict(os.environ)
        env.setdefault("COURSIER_MODE", "offline")
        log = os.path.join(TARGET, "build.log")
        with open(log, "w") as fh:
            code = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
                             BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=fh, stderr=subprocess.STDOUT)
        with open(log) as fh:
            lines = fh.read().strip().splitlines()
        if code != 0 or not lines:
            fail(f"sbt build failed, see {log}")
        cp = lines[-1].strip()
        with open(stamp, "w") as fh:
            fh.write(src_hash + "\n" + cp)
        return cp


def commit_id(src_hash):
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT,
                                  capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return "sources-sha1:" + src_hash


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path) or not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail(f"{ROOT} is not a checkout of the repository (BENCHMARK.json and src/main/scala needed)")
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    src_hash = source_hash()
    cp = build(src_hash)
    work = os.path.join(TARGET, "work")
    results = os.path.join(TARGET, "results")
    for d in (work, results):
        os.makedirs(d, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    def runner(setup_only):
        """One runner JVM: its exit code and its result record."""
        out = os.path.join(work, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}.json")
        cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData", "-cp", cp, "repro.perfbench.Main",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", out, "--setup-only", "1" if setup_only else "0"]
        code = run_child(cmd, deadline - time.monotonic(), cwd=ROOT, stdout=sys.stderr)
        if not os.path.exists(out):
            fail(f"runner exited with {code} and wrote no result")
        with open(out) as fh:
            res = json.load(fh)
        os.remove(out)
        return code, res

    setups = [runner(True) for _ in range(0 if args.trace else SETUPS - 1)]
    code, res = runner(False)
    for c, r in setups:
        code = code or c
        for k in ("attempted", "failed", "problems"):
            res[k] += r[k]
    if not args.trace:
        res["extra"]["setup_runs_s"] = [r["metrics"]["setup_s"] for _, r in setups] + [res["metrics"]["setup_s"]]
        res["metrics"]["setup_s"] = statistics.median(res["extra"]["setup_runs_s"])

    # a metric is missing (null) when every run it depends on failed
    measured = res["metrics"]
    metrics = {m["name"]: {"value": measured.get(m["name"]), "unit": m["unit"]} for m in wanted}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    res["context"].update(commit=commit_id(src_hash), heap=HEAP)
    res["units"] = {m["name"]: m["unit"] for m in wanted}
    res["computed"] = sorted(COMPUTED & set(metrics))
    record = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump(res, fh, indent=1)

    ctx, extra = res["context"], res["extra"]
    print(f"PAR-TDBHT benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("context: " + ", ".join(f"{k}={v}" for k, v in ctx.items()))
    runs = extra["pipeline_samples"]
    tail = (f"p{extra['pipeline_tail_pct']:.0f} {extra['pipeline_tail_s']:.4f} s" if "pipeline_tail_s" in extra
            else "no tail percentile (needs 11 runs)")
    print(f"timed runs: {runs} untraced, median {extra['pipeline_median_s']} s, {tail}")
    print(f"benchmark checks outside setup_s: {extra['harness_s']:.3f} s; "
          f"host calibration {extra['calibration_s']:.5f} s")
    for name, m in metrics.items():
        note = "  (computed, not measured)" if name in COMPUTED else ""
        value = "not measured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:34s} {value:>16s} {m['unit']}{note}")
    print(f"checks: {res['attempted']} runs attempted, {res['failed']} failed, "
          f"failed_runs {res['failed'] / res['attempted']:.3f}, fingerprint {extra['fingerprint']}")
    for p in res["problems"][:10]:
        print(f"  FAILED {p}")
    if len(res["problems"]) > 10:
        print(f"  ... and {len(res['problems']) - 10} more, see {record}")
    correct = res["failed"] == 0 and code == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
