#!/usr/bin/env python3
"""skewlgv benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload {sweep,rect,brute} --seed N --seconds S --trace {0,1}

Each workload drives ``skewlgv.cli.main`` in-process, as a closed loop of
one client with no threads, and checks every call's exit code and output
digest against ``bench/expected/<workload>.json`` (written by
``bench/record.py`` from the reference code).  The last line of standard
output is the result object; the lines before it print every metric by
name with its unit.

``--trace 0`` reports the end-to-end metrics.  The seed picks one set of
the workload's ops; after the plan's untimed ``first`` ops the set
repeats until at least ``--seconds`` have passed.  Each op's time is the
median of its repeats, and the timing metrics are scaled to a reference
speed measured in the same run (see ``ref_slice``).  ``--trace 1`` runs
a fixed prefix of the ops twice, untraced and then traced, each time on
a freshly imported program.  It reports the per-layer metrics taken from
spans around the program's public functions (see ``bench/spans.py``).
The traced work does not depend on time, so its counts repeat exactly
for a given seed.

The program is imported from ``src/`` of the checkout that holds this
file.  When it is missing the benchmark exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected"

WORKLOADS = ("sweep", "rect", "brute")
EXIT_GUARD = 3

SETUP_REPEATS = 11
MIN_PASSES = 5
MAX_WALL_S = 150.0
# ops in the traced prefix of the passes; sized so that the untraced and
# the traced pass over it take about one untraced run's time at the seed
TRACE_OPS = {"sweep": 6, "rect": 120, "brute": 400}
JSONL_SLOT = "{jsonl}"
# Speed reference: a fixed pure-Python loop that never touches the
# program, timed in slices between ops (one slice per REF_EVERY_S of op
# time, about 3% of a run).  The timing metrics are scaled by
# REF_NOMINAL_S over the run's median slice time, so they read as on a
# host whose slice takes REF_NOMINAL_S, whatever speed it gives the run.
REF_LOOPS = 10_000
REF_NOMINAL_S = 0.0006
REF_EVERY_S = 0.02


class ProgramMissing(RuntimeError):
    """The checkout does not hold an importable skewlgv under src/."""


def load_program():
    """Import skewlgv.cli from the checkout, discarding earlier imports.

    Every call gives fresh module objects, so the module-level caches start
    empty as they do for a new CLI process.
    """
    for name in [m for m in sys.modules if m == "skewlgv" or m.startswith("skewlgv.")]:
        del sys.modules[name]
    if not (SRC / "skewlgv" / "__init__.py").is_file():
        raise ProgramMissing(f"no skewlgv package under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import skewlgv.cli as cli

    origin = Path(cli.__file__).resolve()
    if SRC not in origin.parents:
        raise ProgramMissing(f"skewlgv was imported from {origin}, not from {SRC}")
    return cli


def load_plan(workload: str) -> dict:
    """Recorded ops of a workload: ``first`` lists ops that open the first
    pass only; in ``groups`` each group lists alternatives, and each
    alternative is a list of ops that run back to back."""
    with open(EXPECTED / f"{workload}.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {"first": doc["first"], "groups": doc["groups"]}


def make_pass(groups: list, rng: random.Random) -> list[dict]:
    """One pass of ops, the op set of a run: every single-alternative
    group in file order, then one seeded pick from each other group,
    shuffled.

    Groups hold ops of similar recorded cost, so every op set has the same
    cost profile whatever the seed picks.
    """
    fixed = [g[0] for g in groups if len(g) == 1]
    picked = [rng.choice(g) for g in groups if len(g) > 1]
    rng.shuffle(picked)
    return [op for alt in fixed + picked for op in alt]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass
class Outcome:
    ok: bool
    seconds: float
    code: int | None
    stdout: str
    jsonl: str | None
    bytes_out: int
    text: str


def call(cli, op: dict) -> Outcome:
    """Run one CLI call and compare it with its recorded expectation."""
    jsonl_path = OUT / f"sweep-{os.getpid()}.jsonl"
    argv = [str(jsonl_path) if a == JSONL_SLOT else a for a in op["argv"]]
    out, err = io.StringIO(), io.StringIO()
    cap = op.get("cap")
    if cap is None:
        os.environ.pop("SKEWLGV_MAX_TUPLES", None)
    else:
        os.environ["SKEWLGV_MAX_TUPLES"] = str(cap)
    code: int | None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            # the status a process would exit with
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed op; keep measuring the rest
            code = None
            trace_text = traceback.format_exc()
        t1 = time.perf_counter()
    os.environ.pop("SKEWLGV_MAX_TUPLES", None)
    if code is None:
        print(f"op {argv} raised:\n{trace_text}", file=sys.stderr)
    stdout = out.getvalue().encode("utf-8")
    bytes_out = len(stdout)
    jsonl = None
    if "jsonl" in op:
        data = jsonl_path.read_bytes() if jsonl_path.exists() else b""
        jsonl_path.unlink(missing_ok=True)
        jsonl = digest(data)
        bytes_out += len(data)
    ok = code == op.get("exit") and digest(stdout) == op.get("stdout") and jsonl == op.get("jsonl")
    return Outcome(ok, t1 - t0, code, digest(stdout), jsonl, bytes_out, out.getvalue())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    units: int = 0
    latencies: list[float] = field(default_factory=list)
    refusals: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    bytes_out: int = 0

    def add(self, op: dict, res: Outcome) -> None:
        self.attempted += 1
        self.busy_s += res.seconds
        self.bytes_out += res.bytes_out
        if not res.ok:
            self.failed += 1
            print(
                f"FAILED {op['argv']} cap={op.get('cap')}: exit {res.code} "
                f"(expected {op['exit']}), stdout {res.stdout} "
                f"(expected {op['stdout']}), jsonl {res.jsonl} "
                f"(expected {op.get('jsonl')})",
                file=sys.stderr,
            )
        elif op["exit"] == EXIT_GUARD:
            self.refusals.append(res.seconds)
        else:
            self.latencies.append(res.seconds)
            self.units += op.get("units", 1)


def run_ops(cli, ops: list[dict], tally: Tally) -> None:
    for op in ops:
        tally.add(op, call(cli, op))


@dataclass
class Setup:
    cli: object
    groups: list
    rng: random.Random
    first: list[dict]
    ops: list[dict]
    seconds: float


def setup(workload: str, seed: int, plan: dict | None = None) -> Setup:
    """Import the program and pick the run's op set."""
    t0 = time.perf_counter()
    cli = load_program()
    plan = plan if plan is not None else load_plan(workload)
    rng = random.Random(seed)
    ops = make_pass(plan["groups"], rng)
    return Setup(cli, plan["groups"], rng, plan["first"], ops, time.perf_counter() - t0)


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by the inclusive method; nan when empty."""
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ref_slice() -> float:
    """Time one slice of the speed reference."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def typical_stats(ops: list[dict], times: list[list[float]]) -> dict:
    """End-to-end statistics from each op's median time over its repeats.

    The median of an op's repeats ignores a slow stretch of the machine
    that covers fewer than half of them; the percentiles are then taken
    over the ops, so they describe the spread of cost between cases.
    """
    typical = [(op, statistics.median(ts)) for op, ts in zip(ops, times) if ts]
    done = [t for op, t in typical if op["exit"] != EXIT_GUARD]
    refused = [t for op, t in typical if op["exit"] == EXIT_GUARD]
    units = sum(op.get("units", 1) for op, _ in typical if op["exit"] != EXIT_GUARD)
    return {
        "throughput_ops_s": units / sum(t for _, t in typical),
        "latency_p50_ms": 1000 * quantile(done, 50),
        "latency_p90_ms": 1000 * quantile(done, 90),
        "refusal_p50_ms": 1000 * quantile(refused, 50),
    }


def measure(workload: str, seed: int, seconds: float, plan: dict | None = None,
            min_passes: int = MIN_PASSES) -> tuple[dict, Tally]:
    """Untraced run: end-to-end metrics from repeated passes over one op set.

    The seed picks the run's op set.  The plan's ``first`` ops run untimed;
    then the op set repeats, in a new seeded order each pass, until
    ``seconds`` have passed and ``min_passes`` whole passes ran.  The
    first pass runs on cold caches, which the per-op medians discount.
    Slices of the speed reference run between the ops.  Every call is
    checked.
    """
    OUT.mkdir(exist_ok=True)
    setups = [setup(workload, seed, plan) for _ in range(SETUP_REPEATS)]
    st = setups[-1]
    warm, total = Tally(), Tally()
    run_ops(st.cli, st.first, warm)
    ops = st.ops
    times: list[list[float]] = [[] for _ in ops]
    slices: list[float] = []
    order: list[int] = []
    passes = 0
    since_ref = REF_EVERY_S
    start = time.perf_counter()
    while True:
        if not order:
            order = list(range(len(ops)))
            st.rng.shuffle(order)
        i = order.pop()
        res = call(st.cli, ops[i])
        total.add(ops[i], res)
        if res.ok:
            times[i].append(res.seconds)
        passes += not order
        since_ref += res.seconds
        if since_ref >= REF_EVERY_S:
            slices.append(ref_slice())
            since_ref = 0.0
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and passes >= min_passes) or elapsed >= MAX_WALL_S:
            break
    raw = typical_stats(ops, times)
    scale = REF_NOMINAL_S / statistics.median(slices)
    scaled = {k: v / scale if k == "throughput_ops_s" else v * scale for k, v in raw.items()}
    metrics = {"setup_s": (statistics.median(s.seconds for s in setups), "s")}
    units = {"throughput_ops_s": "ops/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "refusal_p50_ms": "ms"}
    for name, value in scaled.items():
        metrics[name] = (value, units[name])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    info = {
        "first_s": warm.busy_s,
        "ref_slices": len(slices),
        "ref_slice_s": statistics.median(slices),
        **{f"unscaled_{k}": v for k, v in raw.items()},
        "elapsed_s": elapsed,
        "passes": passes,
        "ops_per_pass": len(ops),
        "completed_ops": len(total.latencies),
        "refusals": len(total.refusals),
        "units": total.units,
        "fail_ratio": (warm.failed + total.failed) / max(warm.attempted + total.attempted, 1),
    }
    total.attempted += warm.attempted
    total.failed += warm.failed
    return {"metrics": metrics, "info": info}, total


def measure_traced(workload: str, seed: int, plan: dict | None = None,
                   n_ops: int | None = None) -> tuple[dict, Tally]:
    """Traced run: the same op prefix untraced, then traced; per-layer metrics."""
    import spans

    OUT.mkdir(exist_ok=True)
    n_ops = TRACE_OPS[workload] if n_ops is None else n_ops
    st = setup(workload, seed, plan)
    ops = st.first + st.ops
    while len(ops) < n_ops:
        ops += make_pass(st.groups, st.rng)
    ops = ops[:n_ops]
    untraced = Tally()
    run_ops(st.cli, ops, untraced)

    cli = load_program()
    tracer = spans.Tracer()
    tracer.install(sys.modules)
    traced = Tally()
    run_ops(cli, ops, traced)
    tracer.write(OUT / f"spans-{workload}.tsv")

    metrics = tracer.layer_metrics(sys.modules)
    metrics["cli.bytes_out"] = (traced.bytes_out, "B")
    metrics["trace.wall_s"] = (traced.busy_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced.busy_s, "s")
    metrics["trace.overhead_ratio"] = (traced.busy_s / untraced.busy_s, "ratio")
    both = Tally(
        attempted=untraced.attempted + traced.attempted,
        failed=untraced.failed + traced.failed,
    )
    info = {"traced_ops": len(ops), "spans": tracer.span_count()}
    return {"metrics": metrics, "info": info}, both


def result_line(report: dict, tally: Tally) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }


def print_report(workload: str, seed: int, report: dict, result: dict) -> None:
    print(f"workload {workload}  seed {seed}  python {platform.python_version()}  nproc {os.cpu_count()}")
    for k, v in report["info"].items():
        print(f"  {k:<28} {v}")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"  {verdict}: {result['failed']} of {result['attempted']} calls failed")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.trace:
            report, tally = measure_traced(args.workload, args.seed)
        else:
            report, tally = measure(args.workload, args.seed, args.seconds)
    except ProgramMissing as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    result = result_line(report, tally)
    print_report(args.workload, args.seed, report, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
