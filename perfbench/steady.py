#!/usr/bin/env python3
"""Steadiness check for the campaign benchmark.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]

Runs the benchmark command from BENCHMARK.json (with ``--trace 0`` and
its ``run_seconds``) ``--runs`` times per workload with a different
``--seed`` each time, workloads interleaved, and repeats that
``--sets`` times. For every (end-to-end metric, workload) it prints each
set's median and quartiles and the spread: the distance between the
first and third quartile as a share of the median. A check fails when a
spread exceeds the metric's bound, or when a later set's median is
worse than the first set's by more than the bound.
Run from the repository root; exits 1 when a check fails or a run is
not correct.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    if args.runs < 2 or args.sets < 1 or not set(workloads) <= set(names):
        ap.error(f"need --runs >= 2, --sets >= 1 and workloads among {names}")

    values = {}  # (set, workload, metric) -> [value per run]
    ok = True
    for s in range(args.sets):
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for w in workloads:
                t = time.monotonic()
                proc = subprocess.run(
                    [*bench["command"], "--workload", w, "--seed", str(seed),
                     "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                ok &= proc.returncode == 0 and result["correct"]
                print(f"set {s + 1} seed {seed} {w}: exit {proc.returncode}, "
                      f"correct {result['correct']}, {time.monotonic() - t:.1f} s",
                      flush=True)
                for name, m in result["metrics"].items():
                    values.setdefault((s, w, name), []).append(m["value"])

    print(f"\n{'workload':12s} {'metric':18s} set {'median':>12s} {'Q1':>12s} "
          f"{'Q3':>12s} {'spread':>8s} {'bound':>6s}")
    for w in workloads:
        for m in bench["end_to_end"]:
            first = None
            for s in range(args.sets):
                xs = values[(s, w, m["name"])]
                q1, med, q3 = stats.quartiles(xs)
                spread = stats.spread(xs)
                flags = []
                if spread > m["bound"]:
                    flags.append("SPREAD")
                if first is None:
                    first = med
                else:
                    worse = (first - med) / first if m["better"] == "higher" \
                        else (med - first) / first
                    if worse > m["bound"]:
                        flags.append("DRIFT")
                ok &= not flags
                print(f"{w:12s} {m['name']:18s} {s + 1:3d} {med:12.4f} {q1:12.4f} "
                      f"{q3:12.4f} {spread:8.4f} {m['bound']:6.2f} {' '.join(flags)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
