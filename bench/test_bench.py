"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m unittest bench/test_bench.py        (from the repository root)

It runs a few cheap recorded ops of each workload, checks the result
schema and metric names against BENCHMARK.json, checks that the traced
counts repeat exactly, that a corrupted expectation is reported as a
failure, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny_plan(workload: str, per_kind: int = 2, max_ms: float = 500.0) -> dict:
    """The first few cheap groups of each op kind, one alternative each."""
    chosen, seen = [], {}
    for group in run.load_plan(workload)["groups"]:
        alt = group[0]
        kind = "+".join(op["kind"] for op in alt)
        if sum(op["ms"] for op in alt) <= max_ms and seen.get(kind, 0) < per_kind:
            seen[kind] = seen.get(kind, 0) + 1
            chosen.append([alt])
    return {"first": [], "groups": chosen}


def tiny_run(workload: str, plan: dict) -> dict:
    report, tally = run.measure(workload, 1, 0.0, plan=plan, min_passes=1)
    return run.result_line(report, tally)


def tiny_trace(workload: str, plan: dict) -> dict:
    report, tally = run.measure_traced(workload, 1, plan=plan, n_ops=4)
    return run.result_line(report, tally)


class HarnessSmokeTest(unittest.TestCase):
    def check_metrics(self, result: dict, declared: list) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(
            {k: m["unit"] for k, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared},
        )
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        json.loads(json.dumps(result))

    def test_every_workload_reports_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                plan = tiny_plan(w["name"])
                self.check_metrics(tiny_run(w["name"], plan), SPEC["end_to_end"])
                self.check_metrics(tiny_trace(w["name"], plan), SPEC["per_layer"])

    def test_traced_counts_repeat_exactly(self):
        plan = tiny_plan("brute")
        first, second = (tiny_trace("brute", plan)["metrics"] for _ in range(2))
        counts = [k for k, m in first.items() if m["unit"] in ("count", "B")]
        self.assertGreater(first["connectors.tuples_visited"]["value"], 0)
        for name in counts:
            self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_corrupted_expectation_is_a_failure(self):
        plan = copy.deepcopy(tiny_plan("rect"))
        op = plan["groups"][0][0][0]
        op["stdout"] = "0" * len(op["stdout"])
        result = tiny_run("rect", plan)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_to_run_without_the_program(self):
        bare = BENCH / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [*SPEC["command"], "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
