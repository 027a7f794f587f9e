#!/usr/bin/env python3
"""Steadiness self-check: two independent sets of benchmark runs.

    python3 bench/steady.py [--json FILE]

Each set runs `bench/run.py --trace 0` once per seed for every workload in
BENCHMARK.json, for its run_seconds (set k uses seeds k*100+1 .. k*100+10).
Per workload and end-to-end metric it prints each set's median, its spread
(distance between the first and third quartile of
`statistics.quantiles(values, n=4)`, as a share of the median), and
pass/fail against the bounds in BENCHMARK.json:

- each set's spread within the bound, and
- the two medians within the bound of each other, in either direction
  (their difference as a share of the smaller one).

A spread below a third of the bound is the target that leaves room for a
busier host.  A run that exits non-zero or fails its output check stops
the check at once.  --json FILE also writes every run's result.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
SETS = 2


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(cmd: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [*cmd, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its output check:\n{proc.stderr}")
    return res


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", help="write every run's result to this file")
    args = ap.parse_args(argv)

    metrics = spec["end_to_end"]
    results: dict = {}
    for s in range(SETS):
        for workload in (w["name"] for w in spec["workloads"]):
            for i in range(RUNS):
                seed = (s + 1) * 100 + i + 1
                res = run_once(spec["command"], workload, seed, spec["run_seconds"])
                results.setdefault(workload, [[] for _ in range(SETS)])[s].append(res)
                values = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4g}"
                                  for m in metrics)
                print(f"set {s + 1} {workload} seed {seed}: "
                      f"failed={res['failed']}/{res['attempted']} {values}",
                      file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':12s} {'metric':12s} {'median1':>9s} {'spread1':>8s} "
          f"{'median2':>9s} {'spread2':>8s} {'shift':>7s} {'bound':>6s} verdict")
    for workload, sets in results.items():
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds, spreads = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                meds.append(statistics.median(values))
                spreads.append(spread(values))
            failing = []
            if max(spreads) > bound:
                failing.append("spread>bound")
            shift = abs(meds[1] - meds[0]) / min(meds)
            if shift > bound:
                failing.append("median-shift>bound")
            note = "" if max(spreads) <= bound / 3 else " (spread>bound/3)"
            ok = ok and not failing
            cols = " ".join(f"{med:9.4g} {spr:8.3f}" for med, spr in zip(meds, spreads))
            print(f"{workload:12s} {name:12s} {cols:37s} {shift:7.3f} {bound:6.2f} "
                  f"{'FAIL ' + ','.join(failing) if failing else 'pass'}{note}")
        for s, runs in enumerate(sets):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"{workload:12s} set {s + 1}: all {len(runs)} runs correct, "
                  f"{failed}/{attempted} operations failed")
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
