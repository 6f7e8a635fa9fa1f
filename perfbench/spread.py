#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs perfbench/run.py once per seed for each workload and reports, per
metric, the median and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. Every spread, setup_s included, must stay below its bound
(aim for a third of it).

  python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--seconds S]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    worst = 0.0
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.monotonic()
            r = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if r.returncode:
                sys.exit(f"{w} seed {seed} failed:\n{r.stderr[-2000:]}")
            lines = r.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            window = [l[2:] for l in lines if l.startswith("# window:")]
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: verification failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items())
                + (f" ({window[0]})" if window else "")
                + f" [{time.monotonic() - started:.1f} s]", flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bounds[name])
            print(f"  {w:16s} {name:12s} median {med:12.6g}  spread "
                  f"{spread:7.4f}  bound {bounds[name]:.2f}", flush=True)
    print(f"worst spread/bound: {worst:.3f}")


if __name__ == "__main__":
    main()
