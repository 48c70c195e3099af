#!/usr/bin/env python3
"""Run the end-to-end step benchmark over several seeds and summarize it.

    python3 bench/e2e/calibrate.py [--runs N] [--trace-runs M]
        [--first-seed S] [--workloads W ...] [--baseline FILE]

For each workload, runs `bench/e2e/run.sh --workload W --seed S --seconds T
--trace 0` N times and with `--trace 1` M times, from the repository root,
one seed per run (T is BENCHMARK.json's run_seconds). Every run must be
correct with no failed operation and report exactly the metric names
BENCHMARK.json lists. Prints per end-to-end metric the median, the quartile
spread (IQR / median, from statistics.quantiles(n=4)), the range
(max - min) / median, and the bound that range suggests,
max(5%, 2 x range / median). With --baseline the summaries of both kinds
of run and the host facts are written as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "1" if trace else "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    want = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{workload} seed {seed}: unexpected keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: incorrect or failed\n{proc.stderr}")
    if set(result["metrics"]) != want:
        sys.exit(f"{workload} seed {seed}: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(result['metrics']) ^ want)}")
    print(f"{workload} seed {seed} trace {int(trace)}: {elapsed:.1f} s",
          file=sys.stderr)
    return result["metrics"]


def summarize(values):
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2 and med:
        q1, _, q3 = statistics.quantiles(values, n=4)
        rng = (max(values) - min(values)) / med
        out.update(q1=q1, q3=q3, iqr_frac=(q3 - q1) / med, range_frac=rng,
                   suggested_bound=max(0.05, 2.0 * rng))
    return out


def collect(bench, workloads, seeds, trace):
    summary = {}
    for w in workloads:
        per_metric = {}
        for s in seeds:
            for name, m in run_once(bench, w, s, trace).items():
                per_metric.setdefault(name, []).append(m["value"])
        summary[w] = {k: summarize(v) for k, v in per_metric.items()}
    return summary


def host_facts():
    cache = os.path.join(ROOT, ".bench_build", "e2e", "main", "CMakeCache.txt")
    facts = {"nproc": os.cpu_count(), "machine": platform.machine()}
    if os.path.exists(cache):
        for line in open(cache):
            for key, name in (("CMAKE_BUILD_TYPE:", "build_type"),
                              ("CMAKE_CXX_FLAGS_RELWITHDEBINFO:", "flags"),
                              ("CMAKE_CXX_COMPILER:", "compiler")):
                if line.startswith(key):
                    facts[name] = line.split("=", 1)[1].strip()
    if "compiler" in facts:
        out = subprocess.run([facts["compiler"], "--version"],
                             capture_output=True, text=True).stdout
        facts["compiler_version"] = out.splitlines()[0] if out else ""
    return facts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--baseline", help="write the summary JSON here")
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    trace_seeds = list(range(args.first_seed, args.first_seed + args.trace_runs))

    end_to_end = collect(bench, workloads, seeds, False)
    for w, metrics in end_to_end.items():
        for k, s in metrics.items():
            if "iqr_frac" in s:
                print(f"{w:18} {k:18} median {s['median']:12.6g}  "
                      f"iqr {100 * s['iqr_frac']:6.2f}%  "
                      f"range {100 * s['range_frac']:6.2f}%  "
                      f"bound {100 * s['suggested_bound']:6.2f}%")
    per_layer = collect(bench, workloads, trace_seeds, True)

    if args.baseline:
        doc = {
            "bench": "e2e_step",
            "host": host_facts(),
            "run_seconds": bench["run_seconds"],
            "seeds": seeds,
            "trace_seeds": trace_seeds,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
