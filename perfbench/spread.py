"""Spread mode: repeat one workload over seeds and summarise each metric.

    python3 perfbench/spread.py --workload ny-churn --runs 10 --seconds 10

Runs ``run.py`` untraced once per seed 1..runs, one run at a time, and
prints for every metric its median, first and third quartiles
(``statistics.quantiles`` with n=4) and the quartile distance as a
share of the median, then the failed shares and the wall time of a
run. The README quotes this output to justify each bound in
``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

RUN = pathlib.Path(__file__).with_name("run.py")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args()

    results, walls = [], []
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True, cwd=RUN.parent.parent)
        walls.append(time.perf_counter() - t0)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr, flush=True)

    print(f"{args.workload}: {len(results)} runs, seeds 1..{args.runs}, --seconds {args.seconds}")
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:32s} {med:12.4f} {q1:12.4f} {q3:12.4f} {(q3 - q1) / med:8.3f}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"correct in every run: {all(r['correct'] for r in results)}; failed shares: {shares}")
    print(f"wall time of a run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
