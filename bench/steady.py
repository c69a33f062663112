#!/usr/bin/env python3
"""Steadiness check: run workloads several times and show each metric's spread.

    python3 bench/steady.py --workload cli --runs 10 [--sets 2]

Each run uses its own --seed (first-seed, first-seed + 1, ...). For each
end-to-end metric it prints the median, the quartiles, the spread
(Q3 - Q1) / median and the metric's bound from BENCHMARK.json; a spread
above the bound marks a workload that cannot be held steady. With
--sets 2 the runs are repeated and the second median is compared with
the first. The share of failed operations must be the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(cmd, workload, seed, seconds):
    argv = [*cmd, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload:
        sets = []
        for k in range(args.sets):
            seeds = [args.first_seed + k * args.runs + i for i in range(args.runs)]
            results = [run_once(spec["command"], workload, s,
                                spec["run_seconds"]) for s in seeds]
            sets.append(results)
            shares = {r["failed"] / r["attempted"] for r in results}
            correct = all(r["correct"] for r in results)
            print(f"{workload} set {k + 1}: seeds {seeds[0]}..{seeds[-1]}, "
                  f"correct={correct}, failed shares={sorted(shares)}")
            ok &= correct and len(shares) == 1
            for name in results[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in results]
                unit = results[0]["metrics"][name]["unit"]
                med, q1, q3, spread = summarize(vals)
                bound = bounds[name]
                flag = "" if name == "setup_s" or spread <= bound \
                    else "  SPREAD ABOVE BOUND"
                ok &= not flag
                print(f"  {name:<16} median {med:12.6g} {unit:<3} Q1 {q1:12.6g} "
                      f"Q3 {q3:12.6g} spread {spread:7.2%}  bound {bound:.0%}{flag}")
        if len(sets) == 2:
            for name, bound in bounds.items():
                first, second = (statistics.median(r["metrics"][name]["value"]
                                                   for r in rs) for rs in sets)
                change = second / first - 1.0
                flag = "  WORSE BY MORE THAN BOUND" if change > bound else ""
                ok &= not flag
                print(f"  {name:<16} set 2 vs set 1: {change:+7.2%}  "
                      f"bound {bound:.0%}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
