"""Run the benchmark on several seeds and summarise every metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads gsd-ladder,query-mix]
                               [--trace 0] [--out perfbench/out/sweep.json]

Runs ``perfbench/run.py`` once per (workload, seed), one process at a time,
for the ``run_seconds`` of ``BENCHMARK.json``.  For each workload and metric
it reports the median, the quartiles of ``statistics.quantiles(values, n=4)``
and the spread (Q3 - Q1) / median, next to the metric's bound, and the
longest time one run took.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    info = json.loads(lines[-2].split(" ", 2)[2]) if len(lines) > 1 else {}
    info["elapsed_s"] = elapsed
    return json.loads(lines[-1]), info


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values, infos, failed = {}, [], 0
        for seed in parse_seeds(args.seeds):
            result, info = run_once(workload, seed, bench["run_seconds"], args.trace)
            failed += result["failed"]
            infos.append(info)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {name: {**summarise(v), "values": v} for name, v in values.items()}
        summary[workload] = {"failed": failed, "metrics": rows, "runs": infos}
        print(f"{workload}: failed {failed}, longest run {max(i['elapsed_s'] for i in infos):.1f} s")
        for name, row in rows.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + ("  WIDE" if row["spread"] > bound / 3 else "")
            print(f"  {name:44s} median {row['median']:.6g}  spread {row['spread']:.4f}{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
