#!/usr/bin/env python3
"""Benchmark entry point for the BFHRF engine.

Builds perfbench_harness from the checkout (incrementally), generates the
workload's seeded corpus in one process, runs the workload in another, and
prints its verdict and metrics as the last line of stdout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

`--workload all` runs every workload in turn (each in its own process) and
prints one table. Run from the root of a source checkout; the build goes to
$CARGO_TARGET_DIR (default .bench_build). Metric names must match
BENCHMARK.json exactly, or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def workload_names():
    return [w["name"] for w in spec()["workloads"]]


def expected_metrics(trace):
    return {m["name"]: m["unit"]
            for m in spec()["per_layer" if trace else "end_to_end"]}


def require_sources():
    for rel in ("CMakeLists.txt", "src/CMakeLists.txt", "BENCHMARK.json"):
        if not (ROOT / rel).is_file():
            log(f"missing {rel}: run from the root of a full source checkout")
            sys.exit(2)


def build():
    """Configure, then build the harness (both quick when up to date)."""
    out = build_dir()
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "perfbench_harness",
              "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return out / "perfbench_harness"


def identity():
    """Commit (when the checkout is a git repository) and a digest of every
    source file the harness is built from."""
    commit = "none"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or "none"
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return commit, h.hexdigest()[:16]


def run_one(harness, workload, seed, seconds, trace, smoke=False,
            corrupt=False, echo=True):
    """Generate, run and check one workload; returns (result, stdout lines)."""
    data = build_dir() / "perfbench-data" / f"{workload}-{seed}-{os.getpid()}"
    out = build_dir() / "perfbench-out"
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    out.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--dir", str(data)]
    if smoke:
        common.append("--smoke")
    lines = []
    try:
        gen = subprocess.run([str(harness), "generate"] + common,
                             timeout=RUN_TIMEOUT_S)
        if gen.returncode:
            log(f"{workload}: corpus generation failed")
            sys.exit(1)
        commit, digest = identity()
        cmd = [str(harness), "run"] + common + [
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--out", str(out), "--commit", commit, "--digest", digest]
        if corrupt:
            cmd.append("--corrupt")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            for line in proc.stdout:
                lines.append(line.rstrip("\n"))
                if echo and not line.startswith("{"):
                    print(line, end="", flush=True)
            proc.wait(timeout=RUN_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode:
            log(f"{workload}: harness exited with {proc.returncode}")
            sys.exit(1)
    finally:
        shutil.rmtree(data, ignore_errors=True)

    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        log(f"{workload}: metrics differ from BENCHMARK.json "
            f"(missing {missing}, unexpected {extra}, unit mismatch {wrong})")
        sys.exit(1)
    return result, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    require_sources()
    names = workload_names()
    chosen = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in chosen):
        log(f"unknown workload {args.workload!r}; one of {names} or 'all'")
        sys.exit(2)
    harness = build()

    results = {}
    for w in chosen:
        result, _ = run_one(harness, w, args.seed, args.seconds, args.trace)
        attempted, failed = result["attempted"], result["failed"]
        print(f"# {w}: verdict {'PASS' if result['correct'] else 'FAIL'}, "
              f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})",
              flush=True)
        results[w] = result

    if len(chosen) == 1:
        print(json.dumps(results[chosen[0]]), flush=True)
        return
    print("# %-16s %-40s %16s  %s" % ("workload", "metric", "value", "unit"))
    for w, r in results.items():
        for name, m in r["metrics"].items():
            print("# %-16s %-40s %16.6g  %s" % (w, name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }), flush=True)


if __name__ == "__main__":
    main()
