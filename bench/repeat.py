"""Run workloads several times with different seeds and judge their spread.

    python3 bench/repeat.py --runs 10 --first-seed 100
    python3 bench/repeat.py --runs 10 --trace-runs 1 --write-baseline bench/baseline.json

For each workload and end-to-end metric it prints the median of the
runs and the distance between their first and third quartiles as a
share of the median, next to the metric's bound in BENCHMARK.json. A
spread at or above the bound is marked UNSTEADY. With --write-baseline
it also runs the traced pass and stores every median, with the
machine's details, as the baseline later changes are compared against.

Every traced run measures the same per-layer suite, whatever its
workload, so the baseline keeps those metrics once, pooled over the
traced runs of all workloads. Only the span count and the self times
of the replayed operations are kept per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median

from stats import quartile_spread

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PER_WORKLOAD = ("trace.spans",)  # per-layer metrics of the replay, not of the suite


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{done.stdout}")
    machine = next(line for line in lines if line.startswith("machine = "))
    result["machine"] = json.loads(machine.split(" = ", 1)[1])
    if trace:
        report = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace1.json")
        with open(report, encoding="utf-8") as handle:
            result["self_time_ms"] = json.load(handle)["self_time_ms"]
    return result


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        entry = {"median": median(values), "unit": first["unit"], "values": values}
        if len(values) >= 2:
            entry["spread"] = quartile_spread(values)
        summary[name] = entry
    return summary


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--write-baseline", metavar="PATH")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    baseline = {"run_seconds": args.seconds, "runs": args.runs, "workloads": {}}
    traced_all = []
    steady = True
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run(workload, seed, args.seconds, 0) for seed in seeds]
        baseline.setdefault("machine", results[0]["machine"])
        end_to_end = summarise(results)
        for name, entry in end_to_end.items():
            spread = entry.get("spread", 0.0)
            verdict = "ok" if spread < bounds[name] else "UNSTEADY"
            steady &= verdict == "ok"
            print(f"{workload:13s} {name:16s} median {entry['median']:12.6g} {entry['unit']:4s} "
                  f"spread {spread:6.3f} bound {bounds[name]:.2f} {verdict}", flush=True)
        entry = {"end_to_end": end_to_end, "seeds": list(seeds)}
        if args.trace_runs:
            traced = [run(workload, seed, args.seconds, 1) for seed in seeds[:args.trace_runs]]
            per_layer = summarise(traced)
            entry.update({name: per_layer[name] for name in PER_WORKLOAD})
            entry["self_time_ms"] = traced[0]["self_time_ms"]
            traced_all.extend(traced)
        baseline["workloads"][workload] = entry
    if traced_all:
        suite = summarise(traced_all)
        baseline["per_layer"] = {name: e for name, e in suite.items() if name not in PER_WORKLOAD}

    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=1)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
