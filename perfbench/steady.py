"""Steadiness check: run workloads over several seeds and report spreads.

    python3 perfbench/steady.py --seeds 1-10 --seconds 20 [--workload NAME ...]

For each (workload, end-to-end metric) it prints the median of the runs
and the distance between the first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
from BENCHMARK.json.  Runs are sequential, one process at a time.
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


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in names:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["elapsed"] = time.perf_counter() - t0
            runs.append(res)
            vals = " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
            print(f"{name} seed={seed} correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} elapsed={res['elapsed']:.1f}s {vals}", flush=True)
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{name} {metric}: median {statistics.median(vals):.4f} "
                  f"spread {(q3 - q1) / statistics.median(vals):.4f} (bound {bound})", flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{name} failed shares: {sorted(shares)}; "
              f"max elapsed {max(r['elapsed'] for r in runs):.1f}s", flush=True)


if __name__ == "__main__":
    main()
