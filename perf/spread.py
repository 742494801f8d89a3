#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perf/spread.py --workload serve-cold --seeds 1-10 [--trace 0]

Run it from the repository root. Each run's line shows its metrics and the
share of the host's CPU time stolen by other guests during its timed
window. For every end-to-end metric, and for the client's p99 latency and
the steal share read off the run notes, it then prints the median of the
runs, the first and third quartiles (statistics.quantiles, n=4), and the
interquartile distance as a share of the median beside the metric's bound
from BENCHMARK.json. No run is dropped, retried or re-weighted.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys

P99 = re.compile(r"latency: p99 = ([0-9.]+) ms over n=(\d+)")
STEAL = re.compile(r"^# host steal: ([0-9.]+)")


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", trace]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"seed {seed}: incorrect run: {lines[-1]}")
    values = {name: m["value"] for name, m in res["metrics"].items()}
    for line in lines:
        if m := P99.search(line):
            values["client.op_p99_ms"] = float(m.group(1))
            values["client.p99_samples"] = int(m.group(2))
        if m := STEAL.search(line):
            values["host.steal_frac"] = float(m.group(1))
    return res, values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    for seed in seeds(args.seeds):
        res, vals = run(spec, args.workload, seed, args.trace)
        for name, v in vals.items():
            values.setdefault(name, []).append(v)
        print(f"seed {seed}: steal={vals.get('host.steal_frac', float('nan')):.3f} attempted={res['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, xs in values.items():
        if len(xs) < 2:
            continue
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:32} {med:12.4f} {q1:12.4f} {q3:12.4f} {share:8.3f} {bound if bound is not None else '-':>6}")


if __name__ == "__main__":
    main()
