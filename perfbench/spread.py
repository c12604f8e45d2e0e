"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads solve,sweep --seeds 1-10 --seconds 15 --sets 2

For every workload, set and metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``).  With several sets of the same
seeds it also prints how far each later set's median moved from the first
set's, in the metric's worse direction, against the metric's bound in
BENCHMARK.json, and each run's ``proven_optimal_ratio``.  All run results go
to ``perfbench/out/spread-<workload>.json``.  Runs are made one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's result line and the line before it (environment and ratios)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        out[name] = {"median": statistics.median(values), "iqr_share": quartile_spread(values), "values": values}
    return out


def worse_shift(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first if first else 0.0
    return -change if better == "higher" else change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="solve,sweep,ladder,build")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sets", type=int, default=1, help="sets of runs over the same seeds")
    args = ap.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            results, proven = [], []
            for seed in parse_seeds(args.seeds):
                r, info = run_once(workload, seed, args.seconds, args.trace)
                results.append(r)
                proven.append(info["proven_optimal_ratio"])
                print(f"{workload} set {k + 1} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} proven_optimal_ratio={info['proven_optimal_ratio']}",
                      flush=True)
            summary = summarize(results)
            for name, s in summary.items():
                print(f"  {workload:7s} set {k + 1} {name:34s} median {s['median']:.6g}  iqr/median {s['iqr_share']:.3f}")
            sets.append({"runs": results, "proven_optimal_ratio": proven, "summary": summary})
        for k in range(1, len(sets)):
            print(f"  {workload:7s} proven_optimal_ratio repeats in set {k + 1}: "
                  f"{sets[k]['proven_optimal_ratio'] == sets[0]['proven_optimal_ratio']}")
            for name, s in sets[k]["summary"].items():
                if name in spec:
                    shift = worse_shift(sets[0]["summary"][name]["median"], s["median"], spec[name]["better"])
                    print(f"  {workload:7s} set {k + 1} vs 1 {name:34s} worse by {shift:+.3f} (bound {spec[name]['bound']})")
        with open(os.path.join(HERE, "out", f"spread-{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump({"seeds": args.seeds, "seconds": args.seconds, "sets": sets}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
