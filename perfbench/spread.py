#!/usr/bin/env python3
"""Check that the benchmark is steady: run every workload of BENCHMARK.json
on seeds 1-10 and compare the spread of each end-to-end metric with its bound.

    python3 perfbench/spread.py [--out perfbench/baseline.json]

For each workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next
to the metric's bound. A spread at or above a third of the bound is flagged;
one above the bound fails the check. Each seed's line also shows the host
calibration time of that run, so host drift can be told from a code effect.
Exits non-zero when a run fails or a spread exceeds its bound.

With --out, it also makes one traced run per workload at seed 1 and appends
the whole set (values, quartiles, calibration times, per-layer medians,
machine context, pass or fail) to the "sets" list of that JSON file.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
ABOUT = ("Ten-seed sets of perfbench/spread.py on the program at each set's commit. "
         "The host's speed drifts by up to 2x within minutes (see calibration_s), so compare "
         "a change with its parent by alternating their runs on one machine, not against these numbers.")


def run(workload, seed, trace, seconds):
    """One benchmark run: its last-line JSON and its full result record, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if res is None or not res["correct"]:
        print(f"{workload} seed {seed} trace {trace}: FAILED (exit {proc.returncode})\n{proc.stdout[-2000:]}")
        return None
    with open(os.path.join(HERE, "target", "results", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return res, json.load(fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default="", help="JSON file to append this set to")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    ok = True
    summary = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        calibration = []
        context = {}
        for seed in SEEDS:
            got = run(w, seed, 0, spec["run_seconds"])
            if got is None:
                ok = False
                continue
            res, record = got
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            calibration.append(record["extra"]["calibration_s"])
            context = record["context"]
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items())
                  + f", calibration_s={calibration[-1]:.5f}", flush=True)
        rows = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < m["bound"] / 3 else ("wide" if spread <= m["bound"] else "OVER")
            ok = ok and flag != "OVER"
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": m["bound"], "values": v}
            print(f"  {w:22s} {m['name']:14s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:6.3f}  bound {m['bound']:.2f}  {flag}")
        summary["workloads"][w] = {"context": context, "end_to_end": rows, "calibration_s": calibration}

    if args.out:
        for w, entry in summary["workloads"].items():
            got = run(w, SEEDS[0], 1, spec["run_seconds"])
            ok = ok and got is not None
            entry["per_layer_seed1"] = got and {k: m["value"] for k, m in got[0]["metrics"].items()}
        summary["passed"] = ok
        doc = {"about": ABOUT, "sets": []}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc["sets"].append(summary)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
