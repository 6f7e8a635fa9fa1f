#!/usr/bin/env python3
"""Self-tests for the benchmark itself (tiny corpora, about a minute):

  1. the same seed generates byte-identical corpora (and another seed not);
  2. two runs of one seed print identical result checksums and pass;
  3. a corrupted expected value drives the failure count above 0;
  4. printed metric names and units match BENCHMARK.json, untraced and
     traced, and a traced run writes its span file.

  python3 perfbench/selftest.py
"""

import filecmp
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

SMOKE_SECONDS = 0.5


def generate(harness, workload, seed, directory):
    subprocess.run([str(harness), "generate", "--workload", workload, "--seed",
                    str(seed), "--dir", str(directory), "--smoke"], check=True)


def same_files(a, b):
    names = sorted(p.name for p in Path(a).iterdir())
    if names != sorted(p.name for p in Path(b).iterdir()) or not names:
        return False
    return all(filecmp.cmp(Path(a) / n, Path(b) / n, shallow=False)
               for n in names)


def checksum(lines):
    return [l for l in lines if l.startswith("# checksum")]


def main():
    run.require_sources()
    harness = run.build()
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    def attempt(workload, **kw):
        try:
            return run.run_one(harness, workload, kw.pop("seed", 11),
                               SMOKE_SECONDS, kw.pop("trace", False),
                               smoke=True, echo=False, **kw)
        except SystemExit:
            return None, []

    for w in run.workload_names():
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            dirs = [Path(tmp) / d for d in ("a", "b", "c")]
            for d in dirs:
                d.mkdir()
            generate(harness, w, 11, dirs[0])
            generate(harness, w, 11, dirs[1])
            generate(harness, w, 12, dirs[2])
            expect(same_files(dirs[0], dirs[1]),
                   f"{w}: seed 11 twice gives byte-identical corpora")
            expect(not same_files(dirs[0], dirs[2]),
                   f"{w}: seeds 11 and 12 give different corpora")

        first, lines1 = attempt(w)
        second, lines2 = attempt(w)
        expect(first is not None and first["correct"] and first["failed"] == 0,
               f"{w}: untraced run passes with BENCHMARK.json metric names")
        expect(bool(checksum(lines1)) and checksum(lines1) == checksum(lines2),
               f"{w}: same seed, identical result checksums")

        corrupt, _ = attempt(w, corrupt=True)
        expect(corrupt is not None and corrupt["failed"] > 0
               and not corrupt["correct"],
               f"{w}: a corrupted expected value is counted as a failure")

        traced, lines = attempt(w, trace=True)
        spans = [l.split(" ", 3)[3] for l in lines
                 if l.startswith("# span file ")]
        expect(traced is not None and traced["correct"],
               f"{w}: traced run passes with BENCHMARK.json per-layer names")
        expect(bool(spans) and Path(spans[0]).stat().st_size > 0,
               f"{w}: traced run writes its span file")

    print(f"{len(failures)} self-test failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
