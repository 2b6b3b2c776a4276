"""Run workloads over several seeds and report every metric with its spread.

    python3 perfbench/suite.py                         # every workload, seed 1
    python3 perfbench/suite.py --seeds 1-10 --out runs.json
    python3 perfbench/suite.py --workloads convergence --seeds 1-5 --trace 1

Run from the root of a checkout.  Each (workload, seed) is one
``perfbench/run.py`` process, run one after another.  For each workload and
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``),
the spread (quartile distance over the median) and, for end-to-end metrics,
the bound from BENCHMARK.json; ``failed_ratio`` is failed over attempted ops
across all runs of the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance over median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    with open("BENCHMARK.json", "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {}
    for workload in args.workloads.split(","):
        runs = [run_one(workload, seed, args.seconds, args.trace) for seed in _seeds(args.seeds)]
        results[workload] = runs
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, failed_ratio {failed / attempted:.4f} "
              f"({failed}/{attempted} ops), correct {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<30}{'unit':>7}{'median':>13}{'q1':>13}{'q3':>13}{'spread':>8}{'bound':>7}")
        for name, first in runs[0]["metrics"].items():
            median, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            print(f"  {name:<30}{first['unit']:>7}{median:>13.6g}{q1:>13.6g}{q3:>13.6g}{rel:>8.3f}"
                  f"{'' if bound is None else format(bound, '>7.2f')}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
