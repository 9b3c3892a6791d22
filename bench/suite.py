#!/usr/bin/env python3
"""Run every workload several times and summarise the spread of each metric.

    python3 bench/suite.py --seed S [--runs N] [--workload W ...]
                           [--compare bench/out/suite-<seed>.json]

Each workload runs N times untraced, with seeds S, S+1, ..., S+N-1, each
run in a fresh interpreter, and twice traced with seed S.  The script
prints every metric by name with its unit, its median and quartiles, and
the spread (q3 - q1) / median next to the bound in BENCHMARK.json.  It
also checks that the traced counts repeat exactly and gives the overall
correctness verdict.  Results go to ``bench/out/suite-<S>.json``, with
the seed, N, nproc and the Python version.  ``--compare`` checks that
each median is no worse than the one in an earlier results file by more
than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNT_UNITS = ("count", "B")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": first["unit"], "values": values, "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0}
    return out


def worse_by(metric: dict, old: float, new: float) -> float:
    """Share by which `new` is worse than `old` (negative when better)."""
    if not old:
        return 0.0
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else None

    results = {"seed": args.seed, "runs": args.runs, "seconds": seconds,
               "nproc": os.cpu_count(), "python": platform.python_version(), "workloads": {}}
    all_correct, all_repeat, all_within = True, True, True
    for w in workloads:
        runs = [run_once(w, args.seed + i, seconds, 0) for i in range(args.runs)]
        traced = [run_once(w, args.seed, seconds, 1) for _ in range(2)]
        correct = all(r["correct"] for r in runs + traced)
        attempted = sum(r["attempted"] for r in runs + traced)
        failed = sum(r["failed"] for r in runs + traced)
        e2e, layers = summarise(runs), summarise(traced)
        unrepeated = [
            name for name, m in layers.items()
            if m["unit"] in COUNT_UNITS and m["values"][0] != m["values"][1]
        ]
        all_correct &= correct
        all_repeat &= not unrepeated
        print(f"== {w}: {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1}, "
              f"{'correct' if correct else 'INCORRECT'} ({failed} of {attempted} calls failed)")
        for name, m in e2e.items():
            bound = bounds[name]["bound"]
            line = (f"  {name:<20} median {m['median']:<12.6g} {m['unit']:<6} "
                    f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {m['spread']:.4f} (bound {bound})")
            if earlier and w in earlier["workloads"]:
                old = earlier["workloads"][w]["end_to_end"][name]["median"]
                worse = worse_by(bounds[name], old, m["median"])
                m["worse_than_earlier"] = worse
                all_within &= worse <= bound
                line += f" vs earlier {worse:+.4f}"
            print(line)
        for name, m in layers.items():
            print(f"  {name:<32} {m['median']:<14.6g} {m['unit']}")
        print(f"  traced counts repeat exactly: {'yes' if not unrepeated else 'NO ' + ', '.join(unrepeated)}")
        results["workloads"][w] = {"correct": correct, "attempted": attempted, "failed": failed,
                                   "end_to_end": e2e, "per_layer": layers,
                                   "counts_repeat": not unrepeated}
    results["correct"] = all_correct
    results["counts_repeat"] = all_repeat
    out = BENCH / "out" / f"suite-{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"verdict: {'correct' if all_correct else 'INCORRECT'}; "
          f"counts repeat: {'yes' if all_repeat else 'NO'}"
          + (f"; within bounds of earlier: {'yes' if all_within else 'NO'}" if earlier else "")
          + f"; results in {out.relative_to(ROOT)}")
    return 0 if all_correct and all_repeat and all_within else 1


if __name__ == "__main__":
    sys.exit(main())
