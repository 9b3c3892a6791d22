#!/usr/bin/env python3
"""Record the expected result of every benchmark op by running the code in src/.

    python3 bench/record.py [--workload {sweep,rect,brute}]

Run it only on the commit whose outputs are the reference; it rewrites
``bench/expected/<workload>.json``.  For each op it stores the argv, the
tuple cap (``SKEWLGV_MAX_TUPLES``) if any, the exit code and the sha256
prefix of standard output (and of the JSONL file for sweep).  It also
stores the op's cost at recording time, the smaller of two timings.  Ops
of similar cost are put in one group, and a benchmark pass picks one
alternative from each group (see ``run.make_pass``) to make a run's op
set.  Ops listed under ``first`` run once per run, untimed, before the
op set's passes.

The case pools are fixed here, with a fixed generator seed.  The
benchmark's ``--seed`` only chooses among alternatives and their order.
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

POOL_SEED = 20030495
GROUP = {"rect": 6, "brute": 8}
BRUTE_ANCHORS = 4
SWEEP_CALLS = 12


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


def _record(cli, ops: list[dict]) -> None:
    """Fill in exit code, digests and cost of each op from two runs."""
    costs = {}
    for round_ in range(2):
        for i, op in enumerate(ops):
            res = run.call(cli, op)
            if round_ == 0:
                op["exit"], op["stdout"] = res.code, res.stdout
                if "jsonl" in op:
                    op["jsonl"] = res.jsonl
                    op["units"] = json.loads(res.text)["total"]
            elif (res.code, res.stdout, res.jsonl) != (op["exit"], op["stdout"], op.get("jsonl")):
                raise SystemExit(f"op {op['argv']} is not deterministic")
            costs[i] = min(costs.get(i, res.seconds), res.seconds)
    for i, op in enumerate(ops):
        op["ms"] = round(1000 * costs[i], 3)


def _grouped(alternatives: list[list[dict]], size: int, anchors: int = 0) -> list[list[list[dict]]]:
    """Chunk alternatives of similar total cost into groups of `size`.

    The `anchors` most expensive alternatives get a group of their own, so
    every pass runs them: they set the peak memory of a run.
    """
    alts = sorted(alternatives, key=lambda alt: sum(op["ms"] for op in alt))
    fixed = [[alt] for alt in alts[len(alts) - anchors:]] if anchors else []
    alts = alts[:len(alts) - anchors]
    groups = fixed + [alts[i:i + size] for i in range(0, len(alts), size)]
    if len(groups) > len(fixed) + 1 and len(groups[-1]) == 1:
        groups[-2].extend(groups.pop())
    return groups


def record_sweep(cli) -> tuple[list, list]:
    sweep = {
        "kind": "sweep",
        "argv": ["sweep", "--max-n", "3", "--max-part", "2", "--json", "--jsonl", run.JSONL_SLOT],
        "jsonl": None,
    }
    guard = {"kind": "refuse-sweep-guard", "argv": ["sweep", "--max-n", "6", "--max-part", "2", "--json"]}
    _record(cli, [sweep, guard])
    return [], [[[sweep]], [[guard]]] * SWEEP_CALLS


def _rect_cases():
    """Rectangles m x n, m, n in 4..6, with selections of degree
    sum(B) - sum(A) >= 5 whose rows can be matched (b_i >= a_i).

    The 42 cases on 6 x 6 of degree >= 9 take 0.3-4 s each, so one of
    them would decide a pass's time; they are left out.  Of them only the
    band A = {0,1,2}, B = {4,5,6} runs, once, before the passes: it fills
    the `_mul_monomials` cache to its cap and sets most of the run's peak
    memory.
    """
    for m in (4, 5, 6):
        for n in (4, 5, 6):
            for size in range(n + 2):
                for a in itertools.combinations(range(n + 1), size):
                    for b in itertools.combinations(range(n + 1), size):
                        degree = sum(b) - sum(a)
                        if degree < 5 or any(y < x for x, y in zip(a, b)):
                            continue
                        if m == n == 6 and degree >= 9:
                            continue
                        yield m, n, a, b


def _aitken(m, n, a, b) -> dict:
    return {"kind": "aitken", "argv": ["special", "aitken", "--m", str(m), "--n", str(n),
                                        "--A", _csv(a), "--B", _csv(b), "--json"]}


def record_rect(cli) -> tuple[list, list]:
    from skewlgv.connectors import tuple_count
    from skewlgv.lattice import build_L
    from skewlgv.shape import IndexSelection, rectangle

    band = _aitken(6, 6, (0, 1, 2), (4, 5, 6))
    cases = list(_rect_cases())
    aitken = [_aitken(*c) for c in cases]
    refusals = []
    # every fifth case also runs `verify --brute` on the same rectangle with
    # the cap just below its blue tuple count: both determinants are built
    # before the cap is checked
    for m, n, a, b in cases[::5]:
        blue = tuple_count(build_L(rectangle(m, n), IndexSelection.make(n, a, b)))
        if blue < 2:
            continue
        refusals.append({
            "kind": "refuse-verify-det",
            "argv": ["verify", "--n", str(n), "--alpha", _csv([0] * n), "--beta", _csv([m] * n),
                     "--A", _csv(a), "--B", _csv(b), "--brute", "--json"],
            "cap": blue - 1,
        })
    _record(cli, [band] + aitken + refusals)
    size = GROUP["rect"]
    return [band], _grouped([[op] for op in aitken], size) + _grouped([[op] for op in refusals], size)


def _brute_cases():
    """Row-connected shapes with n in 4..5 and parts <= 5, and selections
    whose larger tuple count (blue or red) lies in 10^2..10^5.

    Wide shapes and selections with A low and B high are drawn more often,
    because uniform draws almost never reach 10^4 tuples.  The pool holds
    a fixed number of distinct cases per decade of the tuple count; the
    top decade is small because few distinct cases reach it (about 80 in
    the whole space, mostly A = {0,1}, B = {4,5} on large shapes).
    """
    from skewlgv.connectors import tuple_count
    from skewlgv.lattice import build_L, build_R
    from skewlgv.shape import IndexSelection, is_row_connected, make_skew, partitions_with

    rng = random.Random(POOL_SEED)
    shapes = []
    for n in (4, 5):
        parts = list(partitions_with(n, 5))
        for beta in parts:
            for alpha in parts:
                if all(x <= y for x, y in zip(alpha, beta)):
                    shape = make_skew(alpha, beta)
                    if is_row_connected(shape):
                        shapes.append((n, alpha, beta, shape))
    weights = [shape.box_count() ** 4 for *_, shape in shapes]

    def draw(k, n, low):
        pool = list(range(n + 1))
        w = [(n + 1 - i) ** 2 if low else (i + 1) ** 2 for i in pool]
        out = []
        for _ in range(k):
            j = rng.choices(range(len(pool)), w)[0]
            out.append(pool.pop(j))
            w.pop(j)
        return tuple(sorted(out))

    want = {2: 1200, 3: 600, 4: 16}
    have = {d: 0 for d in want}
    seen = set()
    while any(have[d] < want[d] for d in want):
        n, alpha, beta, shape = rng.choices(shapes, weights)[0]
        k = rng.randint(2, n - 1)
        a, b = draw(k, n, True), draw(k, n, False)
        key = (alpha, beta, a, b)
        if key in seen:
            continue
        seen.add(key)
        sel = IndexSelection.make(n, a, b)
        blue = tuple_count(build_L(shape, sel))
        red = tuple_count(build_R(shape, sel))
        top = max(blue, red)
        if not 100 <= top <= 100_000:
            continue
        decade = min(len(str(top)) - 1, 4)
        if have[decade] < want[decade]:
            have[decade] += 1
            yield n, alpha, beta, a, b, blue, red


def record_brute(cli) -> tuple[list, list]:
    cases, refusals, ops = [], [], []
    for i, (n, alpha, beta, a, b, blue, red) in enumerate(_brute_cases()):
        common = ["--n", str(n), "--alpha", _csv(alpha), "--beta", _csv(beta), "--A", _csv(a), "--B", _csv(b)]
        verify = {"kind": "verify", "argv": ["verify", *common, "--brute", "--json"]}
        enum = {"kind": "enumerate",
                "argv": ["enumerate", *common, "--flavor", "L", "--disjoint", "--complement", "--json"]}
        cases.append([verify, enum])
        ops += [verify, enum]
        # a fixed share of the cases reruns with the cap below a tuple count;
        # either way the paths are enumerated before the cap is checked
        if i % 4 == 0 and blue >= 2:
            refusals.append({**enum, "kind": "refuse-enumerate", "cap": blue - 1})
        elif i % 4 == 2 and red > blue >= 10:
            # refused on the red side, after every blue tuple was enumerated
            refusals.append({**verify, "kind": "refuse-verify-late", "cap": red - 1})
    ops += refusals
    _record(cli, ops)
    size = GROUP["brute"]
    return [], _grouped(cases, size, anchors=BRUTE_ANCHORS) + _grouped([[op] for op in refusals], size)


RECORDERS = {"sweep": record_sweep, "rect": record_rect, "brute": record_brute}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=run.WORKLOADS, action="append")
    args = ap.parse_args()
    run.OUT.mkdir(exist_ok=True)
    run.EXPECTED.mkdir(exist_ok=True)
    for workload in args.workload or run.WORKLOADS:
        cli = run.load_program()
        first, groups = RECORDERS[workload](cli)
        ops = first + [op for g in groups for alt in g for op in alt]
        doc = {"workload": workload, "python": platform.python_version(), "first": first, "groups": groups}
        path = run.EXPECTED / f"{workload}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
        per_pass = sum(sum(op["ms"] for alt in g for op in alt) / len(g) for g in groups)
        print(f"{workload}: {len(groups)} groups, {len(ops)} ops, "
              f"about {per_pass / 1000:.1f} s per pass at recording")
    return 0


if __name__ == "__main__":
    sys.exit(main())
