"""Command-line front end: verify, enumerate, special, sweep, draw.

Exit codes: 0 success (identity verified, or hypothesis failed without
--strict); 1 falsification (determinants differ although the hypothesis
holds, or any inequality under --strict); 2 input error, including a
--jsonl file that cannot be written; 3 enumeration, sweep or dimension
guard breached.  The dimension guard refuses, before any determinant work,
a verify or special selection whose larger determinant would have more
than DIMENSION_LIMIT rows.  The environment variable SKEWLGV_MAX_TUPLES
(a positive integer) overrides the default path-tuple cap of the
brute-force enumerator.

`main` may be called many times in one process: it builds its parser on
the first call and reuses it.  Every indented JSON output goes through one
writer, `_json_text`.

The lines of `sweep --jsonl` are those `json.dumps` writes for each case's
report payload, without a report: `_sweep_writer` makes a head and a tail
text once per shape and fills in between them the texts of the case's
selection, of its hypothesis check and of its (det_h, det_e) pair, each
memoised by identity.  The sweep interns its minors, so a pair is equal
when its two values are one object.  The memos belong to one `cmd_sweep`
call and are bounded: they are dropped past _SWEEP_TEXTS texts.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
from typing import Sequence

from . import connectors as conn
from . import identity
from .connectors import ComplementError, EnumerationCapError
from .detring import DimensionGuardError
from .lattice import build_L, build_R, render
from .shape import IndexSelection, ShapeError, SkewShape, is_row_connected, make_skew
from .poly import Polynomial

SCHEMA_VERSION = 1

SWEEP_MAX_N = 5
SWEEP_MAX_PART = 5
# detring's row expansion recurses once per row; this stays well below the
# interpreter's default recursion limit of 1000 frames
DIMENSION_LIMIT = 256

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


def _int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _tuple_cap() -> int | None:
    """The cap from SKEWLGV_MAX_TUPLES; None (the enumerator's default)
    when it is unset."""
    raw = os.environ.get("SKEWLGV_MAX_TUPLES")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # refused below with the non-positive values
    if cap <= 0:
        raise ShapeError(f"SKEWLGV_MAX_TUPLES must be a positive integer, got {raw!r}")
    return cap


def _shape(args: argparse.Namespace) -> SkewShape:
    if args.n != len(args.alpha) or args.n != len(args.beta):
        raise ShapeError(
            f"--n {args.n} does not match part counts {len(args.alpha)}/{len(args.beta)}"
        )
    return make_skew(args.alpha, args.beta)


def _selection(args: argparse.Namespace) -> IndexSelection:
    """The row selection; DimensionGuardError when one of its two
    determinants would have more than DIMENSION_LIMIT rows."""
    sel = IndexSelection.make(args.n, args.A, args.B)
    dim = max(sel.l, sel.r)
    if dim > DIMENSION_LIMIT:
        raise DimensionGuardError(
            f"determinant dimension {dim} (--n {args.n}, |A| = {sel.l}) "
            f"exceeds the limit of {DIMENSION_LIMIT}"
        )
    return sel


# report fields renamed in JSON output, and fields left out of it
_JSON_KEYS = {"a_set": "A", "b_set": "B"}
_JSON_OMIT = frozenset({"det_h_staircase", "det_e_staircase"})


@functools.cache
def _json_fields(cls: type) -> tuple[tuple[str, str], ...]:
    """(field, JSON key) pairs of a report dataclass, in declaration order."""
    return tuple(
        (f.name, _JSON_KEYS.get(f.name, f.name))
        for f in dataclasses.fields(cls)
        if f.name not in _JSON_OMIT
    )


def _report_dict(report, kind: str | None = None) -> dict:
    """JSON payload of a report dataclass: the schema (and kind) head, then
    its fields, polynomials as strings, each distinct polynomial formatted
    once.  Tuples stay tuples; json writes them as arrays."""
    payload: dict = {"schema": SCHEMA_VERSION}
    if kind is not None:
        payload["kind"] = kind
    texts: dict[Polynomial, str] = {}
    for name, key in _json_fields(type(report)):
        v = getattr(report, name)
        if isinstance(v, Polynomial):
            v = texts.get(v) or texts.setdefault(v, str(v))
        payload[key] = v
    return payload


# equal minors are new objects after each clear of the sweep's memos, so the
# JSONL writer drops its texts, which would go unread, past this many
_SWEEP_TEXTS = 1 << 12


def _sweep_writer(stream):
    """The sweep's per-shape callback that writes each case's line,
    exactly ``json.dumps(_report_dict(check.report(sel, hypothesis)))``.

    The shape's fields before "A" and after "equal" are the head and the
    tail of its lines, taken from one report.  The fields between them are
    filled in from texts memoised by the id of the selection, of the
    hypothesis check and of the (det_h, det_e) pair.  The objects of each
    kept text are held alive, so that an id is not reused; equal tuples
    need not print alike, since (1,) == (True,).
    """
    texts: dict = {}
    kept: list = []

    def put(key, objs, **fields) -> str:
        kept.append(objs)
        text = texts[key] = json.dumps(fields)[1:-1]
        return text

    def write(check: identity.ShapeCheck, cases: list) -> None:
        if len(texts) > _SWEEP_TEXTS:
            texts.clear()
            kept.clear()
        payload = _report_dict(check.report(*cases[0][:2]))
        keys = list(payload)
        a, eq = keys.index("A"), keys.index("equal")
        head = json.dumps({k: payload[k] for k in keys[:a]})[:-1]
        tail = json.dumps({k: payload[k] for k in keys[eq + 1 :]})[1:]
        get, lines = texts.get, []
        for sel, hyp, dh, de in cases:
            pair = id(dh), id(de)
            lines.append(
                f"{head}, {get(id(sel)) or put(id(sel), sel, A=sel.a_set, B=sel.b_set)}, "
                f"{get(id(hyp)) or put(id(hyp), hyp, hypothesis_ok=hyp.ok, violating_pairs=hyp.violations)}, "
                f"{get(pair) or put(pair, (dh, de), det_h=str(dh), det_e=str(de), equal=dh is de)}, {tail}\n"
            )
        stream.write("".join(lines))

    return write


def _json_text(value) -> str:
    """The text ``json.dumps`` writes at an indent of 2, exactly, for
    dicts with str keys, lists, tuples and JSON scalars.

    Within one call the text of each tuple object is kept per nesting
    level, so a path or node that several connectors share is encoded
    once.  The memo goes by identity: equal tuples need not print alike,
    since (1,) == (True,) == (1.0,).  An int is its repr, as json writes
    it; other scalars and keys go through json.
    """
    memo: dict[tuple[int, int], str] = {}

    def block(items: list[str], brackets: str, level: int) -> str:
        if not items:
            return brackets
        inner = "\n" + "  " * (level + 1)
        return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * level + brackets[1]

    def text(v, level: int) -> str:
        if type(v) is int:
            return int.__repr__(v)
        if isinstance(v, tuple):
            key = (level, id(v))  # v lives in value for the whole call
            out = memo.get(key)
            if out is None:
                out = memo[key] = block([text(x, level + 1) for x in v], "[]", level)
            return out
        if isinstance(v, list):
            return block([text(x, level + 1) for x in v], "[]", level)
        if isinstance(v, dict):
            items = [f"{json.dumps(k)}: {text(x, level + 1)}" for k, x in v.items()]
            return block(items, "{}", level)
        return json.dumps(v)

    return text(value, 0)


def _print_report(report: identity.VerificationReport) -> None:
    print(f"shape: alpha={list(report.alpha)} beta={list(report.beta)}")
    print(f"selection: A={list(report.a_set)} B={list(report.b_set)}")
    status = "holds" if report.hypothesis_ok else "fails"
    print(f"parallelogram hypothesis: {status}")
    if report.violating_pairs:
        pairs = ", ".join(f"(a'={a}, b'={b})" for a, b in report.violating_pairs)
        print(f"violating pairs: {pairs}")
    if report.isolated_points:
        pts = ", ".join(f"({p.i},{p.j})" for p in report.isolated_points)
        print(f"isolated designated points: {pts}")
    print(f"det_h = {report.det_h}")
    print(f"det_e = {report.det_e}")
    if report.brute_blue is not None:
        print(f"brute blue sum = {report.brute_blue}")
        print(f"brute red sum  = {report.brute_red}")
    print(f"determinants equal: {'yes' if report.equal else 'NO'}")


def cmd_verify(args: argparse.Namespace) -> int:
    shape, sel = _shape(args), _selection(args)
    report = identity.verify_main(
        shape, sel, with_brute=args.brute, cap=_tuple_cap()
    )
    if args.json:
        print(_json_text(_report_dict(report)))
    else:
        _print_report(report)
    if report.equal:
        return EXIT_OK
    if report.hypothesis_ok or args.strict:
        return EXIT_FALSIFIED
    return EXIT_OK


def _connector_dict(c: conn.Connector) -> dict:
    return {
        "flavor": c.flavor,
        "paths": [path.nodes for path in c.paths],
        "weight": str(c.weight),
    }


def _print_connector(idx: int, c: conn.Connector, indent: str = "") -> None:
    print(f"{indent}connector {idx}: weight {c.weight}")
    for k, path in enumerate(c.paths, start=1):
        route = " -> ".join(f"({p.i},{p.j})" for p in path.nodes)
        print(f"{indent}  path {k}: {route}")


def cmd_enumerate(args: argparse.Namespace) -> int:
    shape, sel = _shape(args), _selection(args)
    cap = _tuple_cap()
    if args.complement and args.flavor != "L":
        raise ShapeError("--complement requires --flavor L")
    if args.complement and not is_row_connected(shape):
        # checked up front: on such a shape the walk strands short of its
        # sink after some connectors have been printed
        raise ShapeError(
            f"complementary walk failed: shape alpha={list(shape.alpha)} "
            f"beta={list(shape.beta)} is not row-connected"
        )
    lat = build_L(shape, sel) if args.flavor == "L" else build_R(shape, sel)
    r_lat = build_R(shape, sel) if args.complement else None
    items = list(conn.iter_connectors(lat, disjoint_only=args.disjoint, cap=cap))
    # under --disjoint the walk has already cut every crossing tuple
    disjoint = [args.disjoint or c.is_disjoint() for c in items]
    total = Polynomial.sum(c.weight for c, ok in zip(items, disjoint) if ok)
    # every complement is built before anything is printed, so a failed
    # walk leaves stdout empty
    reds = [
        conn.complementary(c, r_lat) if args.complement and ok else None
        for c, ok in zip(items, disjoint)
    ]
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "flavor": args.flavor,
            "disjoint_only": args.disjoint,
            "connectors": [_connector_dict(c) for c in items],
            "disjoint_weight_sum": str(total),
        }
        if args.complement:
            payload["complements"] = [_connector_dict(red) for red in reds if red]
        print(_json_text(payload))
        return EXIT_OK
    for idx, (c, red) in enumerate(zip(items, reds), start=1):
        _print_connector(idx, c)
        if red:
            print("  complementary:")
            _print_connector(idx, red, indent="  ")
    print(f"{len(items)} connectors, disjoint weight sum: {total}")
    return EXIT_OK


# plain-text lines of each special report r before its verdict; a
# polynomial is formatted only when its line is printed
_SPECIAL_TEXT = {
    "binomial": "det(C(b,a)) = {r.lhs}, complement det = {r.rhs}",
    "qbinomial": "lhs = {r.det_lhs}\nrhs = {r.det_rhs}",
    "sympoly": (
        "det_h = {r.det_h}\ndet_e = {r.det_e}\n"
        "staircase route agrees: {agrees}"
    ),
    "aitken": "det_h = {r.det_h}\ndet_e = {r.det_e}",
}


def cmd_special(args: argparse.Namespace) -> int:
    sel = _selection(args)
    kind = args.kind
    if kind == "binomial":
        rep = identity.verify_binomial(args.n, sel)
    elif kind == "qbinomial":
        rep = identity.verify_qbinomial(args.n, sel)
    elif kind == "sympoly":
        rep = identity.verify_sympoly_binomial(args.n, sel)
    else:
        rep = identity.verify_aitken(args.m, args.n, sel)
    # only the sympoly report carries a second check
    agrees = getattr(rep, "routes_agree", True)
    equal = rep.equal and agrees
    if args.json:
        print(_json_text(_report_dict(rep, kind)))
    else:
        print(_SPECIAL_TEXT[kind].format(r=rep, agrees="yes" if agrees else "NO"))
        print(f"equal: {'yes' if equal else 'NO'}")
    return EXIT_OK if equal else EXIT_FALSIFIED


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.max_n < 1 or args.max_part < 0:
        raise ShapeError(
            "sweep needs --max-n >= 1 and --max-part >= 0, "
            f"got --max-n {args.max_n} --max-part {args.max_part}"
        )
    if args.max_n > SWEEP_MAX_N or args.max_part > SWEEP_MAX_PART:
        print(
            f"sweep guard: bounds limited to n <= {SWEEP_MAX_N}, parts <= {SWEEP_MAX_PART}",
            file=sys.stderr,
        )
        return EXIT_GUARD

    try:
        with open(args.jsonl, "w", encoding="utf-8") if args.jsonl else contextlib.nullcontext() as stream:
            summary = identity.run_sweep(
                args.max_n,
                args.max_part,
                hypothesis_only=args.hypothesis_only,
                per_shape=None if stream is None else _sweep_writer(stream),
            )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.json:
        print(_json_text(_report_dict(summary)))
    else:
        print(f"cases: {summary.total}")
        print(f"hypothesis holds, equal:   {summary.holds_equal}")
        print(f"hypothesis fails, equal:   {summary.fails_equal}")
        print(f"hypothesis fails, unequal: {summary.fails_unequal}")
        print(f"hypothesis holds, UNEQUAL: {summary.holds_unequal}")
    return EXIT_FALSIFIED if summary.holds_unequal else EXIT_OK


def cmd_draw(args: argparse.Namespace) -> int:
    shape = _shape(args)
    sel = None
    if args.A is not None or args.B is not None:
        sel = IndexSelection.make(args.n, args.A or [], args.B or [])
    lat = build_L(shape, sel) if args.flavor == "L" else build_R(shape, sel)
    print(render(lat))
    return EXIT_OK


def _add_problem_args(p: argparse.ArgumentParser, *, selection_required: bool) -> None:
    p.add_argument("--n", type=int, required=True, help="number of rows")
    p.add_argument("--alpha", type=_int_list, required=True, help="inner partition, comma list")
    p.add_argument("--beta", type=_int_list, required=True, help="outer partition, comma list")
    p.add_argument("--A", type=_int_list, required=selection_required, default=None, help="row subset A, comma list (may be empty)")
    p.add_argument("--B", type=_int_list, required=selection_required, default=None, help="row subset B, comma list (may be empty)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call (not at import, so the
    `cmd_*` functions it dispatches to are the module's at that time) and
    shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="skewlgv",
        description="Exact checks of the h/e determinant duality on skew-diagram lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check the duality for one shape and selection")
    _add_problem_args(p_verify, selection_required=True)
    p_verify.add_argument("--brute", action="store_true", help="also enumerate connectors")
    p_verify.add_argument("--strict", action="store_true", help="exit 1 on any inequality")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="list connectors with weights")
    _add_problem_args(p_enum, selection_required=True)
    p_enum.add_argument("--flavor", choices=("L", "R"), required=True)
    p_enum.add_argument("--disjoint", action="store_true", help="only vertex-disjoint tuples")
    p_enum.add_argument("--complement", action="store_true", help="also print complementary red connectors")
    p_enum.add_argument("--json", action="store_true")
    p_enum.set_defaults(func=cmd_enumerate)

    p_special = sub.add_parser("special", help="binomial, q-binomial, sympoly, or rectangle checks")
    p_special.add_argument("kind", choices=("binomial", "qbinomial", "sympoly", "aitken"))
    p_special.add_argument("--n", type=int, required=True)
    p_special.add_argument("--m", type=int, default=1, help="rectangle width (aitken only)")
    p_special.add_argument("--A", type=_int_list, required=True)
    p_special.add_argument("--B", type=_int_list, required=True)
    p_special.add_argument("--json", action="store_true")
    p_special.set_defaults(func=cmd_special)

    p_sweep = sub.add_parser("sweep", help="verify every shape/selection up to bounds")
    p_sweep.add_argument("--max-n", type=int, required=True)
    p_sweep.add_argument("--max-part", type=int, required=True)
    p_sweep.add_argument("--hypothesis-only", action="store_true", help="skip cases whose hypothesis fails")
    p_sweep.add_argument("--jsonl", metavar="PATH", help="stream one JSON report per case")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_draw = sub.add_parser("draw", help="render a lattice as monospace text")
    _add_problem_args(p_draw, selection_required=False)
    p_draw.add_argument("--flavor", choices=("L", "R"), required=True)
    p_draw.set_defaults(func=cmd_draw)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ComplementError as exc:
        # cmd_enumerate refuses shapes that strand the walk up front, so
        # reaching this means the walk broke its contract
        print(f"complementary walk failed: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EnumerationCapError as exc:
        print(f"enumeration cap exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except DimensionGuardError as exc:
        print(f"dimension guard: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
