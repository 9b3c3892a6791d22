import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from skewlgv import connectors, identity
from skewlgv.cli import DIMENSION_LIMIT, _json_text, _report_dict, build_parser, main
from skewlgv.poly import Polynomial
from skewlgv.shape import IndexSelection, Node, SkewShape, selections

DATA = Path(__file__).parent / "data"

FOUR_ROW = [
    "--n", "4",
    "--alpha", "1,1,0,0",
    "--beta", "4,3,3,2",
    "--A", "0,1,2",
    "--B", "1,3,4",
]
PROBE = [
    "--n", "3",
    "--alpha", "2,0,0",
    "--beta", "3,3,1",
    "--A", "0,1,2",
    "--B", "1,2,3",
]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_worked_example_json(capsys):
    code, out, _ = run(capsys, ["verify", *FOUR_ROW, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["equal"] is True
    assert payload["hypothesis_ok"] is True
    assert payload["det_h"] == payload["det_e"]


def test_verify_probe_shape_human(capsys):
    code, out, _ = run(capsys, ["verify", *PROBE])
    assert code == 0
    assert "det_h = x1*x2*x3" in out
    assert "det_e = x1*x2*x3" in out
    assert "determinants equal: yes" in out


def test_verify_rejects_bad_partition(capsys):
    code, _, err = run(
        capsys,
        ["verify", "--n", "2", "--alpha", "0,1", "--beta", "2,2", "--A", "0", "--B", "1"],
    )
    assert code == 2
    assert "not weakly decreasing" in err


def test_verify_rejects_length_mismatch(capsys):
    code, _, err = run(
        capsys,
        ["verify", "--n", "3", "--alpha", "1,0", "--beta", "2,2", "--A", "0", "--B", "1"],
    )
    assert code == 2
    assert "part counts" in err


def test_verify_strict_flags_inequality(capsys):
    # smallest case where the hypothesis fails and the determinants differ
    argv = [
        "verify",
        "--n", "2", "--alpha", "3,1", "--beta", "3,3", "--A", "0", "--B", "2",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "determinants equal: NO" in out
    code, _, _ = run(capsys, [*argv, "--strict"])
    assert code == 1


def test_verify_json_roundtrip(capsys):
    code, first, _ = run(capsys, ["verify", *FOUR_ROW, "--json", "--brute"])
    assert code == 0
    payload = json.loads(first)
    argv = [
        "verify",
        "--n", str(payload["n"]),
        "--alpha", ",".join(map(str, payload["alpha"])),
        "--beta", ",".join(map(str, payload["beta"])),
        "--A", ",".join(map(str, payload["A"])),
        "--B", ",".join(map(str, payload["B"])),
        "--json", "--brute",
    ]
    code, second, _ = run(capsys, argv)
    assert code == 0
    assert first == second


@pytest.mark.parametrize(
    "problem",
    [
        PROBE,
        # hypothesis fails, determinants differ
        ["--n", "2", "--alpha", "3,1", "--beta", "3,3", "--A", "0", "--B", "2"],
        # designated points off the diagram, empty selection
        ["--n", "2", "--alpha", "1,1", "--beta", "2,1", "--A", "", "--B", ""],
    ],
)
def test_verify_json_roundtrip_rebuilds_arguments(capsys, problem):
    # violating pairs, isolated points and empty sets all survive the trip
    code, first, _ = run(capsys, ["verify", *problem, "--json"])
    payload = json.loads(first)
    argv = ["verify", "--json"]
    for key in ("n", "alpha", "beta", "A", "B"):
        value = payload[key]
        argv += [f"--{key}", str(value) if key == "n" else ",".join(map(str, value))]
    assert run(capsys, argv) == (code, first, "")


def test_outputs_are_deterministic(capsys):
    _, first, _ = run(capsys, ["verify", *FOUR_ROW, "--json"])
    _, second, _ = run(capsys, ["verify", *FOUR_ROW, "--json"])
    assert first == second


def test_enumerate_totals_match_verify(capsys):
    code, vout, _ = run(capsys, ["verify", *FOUR_ROW, "--json"])
    det_h = json.loads(vout)["det_h"]
    code, eout, _ = run(capsys, ["enumerate", *FOUR_ROW, "--flavor", "L", "--disjoint", "--json"])
    assert code == 0
    payload = json.loads(eout)
    assert payload["disjoint_weight_sum"] == det_h
    assert payload["connectors"]
    first = payload["connectors"][0]
    assert isinstance(first["paths"][0][0], list)


def test_enumerate_single_connector_when_sets_equal(capsys):
    argv = [
        "enumerate",
        "--n", "2", "--alpha", "0,0", "--beta", "2,1",
        "--A", "0,1", "--B", "0,1",
        "--flavor", "L", "--disjoint", "--json",
    ]
    code, out, _ = run(capsys, argv)
    payload = json.loads(out)
    assert len(payload["connectors"]) == 1
    assert payload["connectors"][0]["weight"] == "1"


def test_enumerate_with_complements(capsys):
    code, out, _ = run(
        capsys, ["enumerate", *FOUR_ROW, "--flavor", "L", "--disjoint", "--complement", "--json"]
    )
    payload = json.loads(out)
    assert len(payload["complements"]) == len(payload["connectors"])
    for red in payload["complements"]:
        assert red["flavor"] == "red"


def test_enumerate_complement_matches_golden(capsys):
    argv = ["enumerate", *FOUR_ROW, "--flavor", "L", "--disjoint", "--complement"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == (DATA / "enumerate_complement.txt").read_text()
    code, out, _ = run(capsys, [*argv, "--json"])
    assert code == 0
    assert out == (DATA / "enumerate_complement.json").read_text()


# the costliest enumerate --complement case of the brute benchmark: 595
# connectors on the 5 x 5 square, printed with their complements
SQUARE_COMPLEMENTS = [
    "enumerate",
    "--n", "5",
    "--alpha", "0,0,0,0,0",
    "--beta", "5,5,5,5,5",
    "--A", "0,2",
    "--B", "3,5",
    "--flavor", "L",
    "--disjoint",
    "--complement",
]
SQUARE_COMPLEMENTS_SHA256 = {
    "text": "2eb029d8baaf2489db793b5864a90253700a385912bae50c9f8d2aad5acbe2bd",
    "json": "ca23b94da5ba7aa90be9b1c5b09b5bdc4ee765e29495bd52986bbcc5b5df4357",
}


@pytest.mark.parametrize("mode", ["text", "json"])
def test_large_complement_output_is_pinned(capsys, mode):
    argv = SQUARE_COMPLEMENTS + (["--json"] if mode == "json" else [])
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SQUARE_COMPLEMENTS_SHA256[mode]


def test_enumerate_all_connectors_matches_golden(capsys):
    # without --disjoint each path object recurs in many connectors
    code, out, _ = run(capsys, ["enumerate", *FOUR_ROW, "--flavor", "R", "--json"])
    assert code == 0
    assert out == (DATA / "enumerate_R_all.json").read_text()


def test_enumerate_disjoint_takes_the_walks_word(capsys, monkeypatch):
    # under --disjoint the walk has cut every crossing tuple, so no
    # connector is checked again; the outputs stay the goldens
    monkeypatch.setattr(connectors.Connector, "is_disjoint", _refuse)
    argv = ["enumerate", *FOUR_ROW, "--flavor", "L", "--disjoint", "--complement"]
    assert run(capsys, argv)[:2] == (0, (DATA / "enumerate_complement.txt").read_text())
    code, out, _ = run(capsys, [*argv, "--json"])
    assert (code, out) == (0, (DATA / "enumerate_complement.json").read_text())


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_enumerate_failed_complement_leaves_stdout_empty(capsys, monkeypatch, mode):
    walked = []
    complementary = connectors.complementary

    def fail_second(c, target):
        walked.append(c)
        if len(walked) == 2:
            raise connectors.ComplementError("second walk stranded")
        return complementary(c, target)

    monkeypatch.setattr(connectors, "complementary", fail_second)
    argv = ["enumerate", *FOUR_ROW, "--flavor", "L", "--disjoint", "--complement", *mode]
    code, out, err = run(capsys, argv)
    assert (code, out, len(walked)) == (2, "", 2)
    assert err == "complementary walk failed: second walk stranded\n"


def test_enumerate_complement_on_gapped_shape_exits_cleanly(capsys):
    argv = [
        "enumerate",
        "--n", "2", "--alpha", "3,0", "--beta", "4,2",
        "--A", "0", "--B", "0",
        "--flavor", "L", "--disjoint", "--complement",
    ]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "complementary walk failed" in err


@pytest.mark.parametrize(
    "problem",
    [
        ["--n", "2", "--alpha", "4,3", "--beta", "4,3", "--A", "", "--B", ""],
        ["--n", "2", "--alpha", "3,0", "--beta", "4,2", "--A", "0,1", "--B", "0,2", "--disjoint"],
    ],
)
def test_enumerate_complement_refuses_gapped_shape_up_front(capsys, problem):
    code, out, err = run(capsys, ["enumerate", *problem, "--flavor", "L", "--complement"])
    assert code == 2
    assert out == ""
    assert "not row-connected" in err


def test_enumerate_cap_via_env(capsys, monkeypatch):
    monkeypatch.setenv("SKEWLGV_MAX_TUPLES", "1")
    code, _, err = run(capsys, ["enumerate", *FOUR_ROW, "--flavor", "L", "--disjoint"])
    assert code == 3
    assert "cap" in err


def _refuse(*args, **kwargs):
    raise AssertionError("work done before the tuple cap was checked")


@pytest.mark.parametrize("command", [["verify", "--brute"], ["enumerate", "--flavor", "L"]])
def test_tuple_cap_checked_before_any_work(capsys, monkeypatch, command):
    # C(23, 11) paths cross the 12 x 12 square (column 0 has no descent);
    # none may be built, and no minor function made, before the cap
    # refuses them
    monkeypatch.setenv("SKEWLGV_MAX_TUPLES", "1000")
    monkeypatch.setattr(connectors, "enumerate_paths", _refuse)
    monkeypatch.setattr(connectors, "Path", _refuse)
    monkeypatch.setattr(identity, "minors", _refuse)
    square = ["--n", "12", "--alpha", ",".join(["0"] * 12), "--beta", ",".join(["12"] * 12)]
    code, out, err = run(capsys, [command[0], *square, "--A", "0", "--B", "12", *command[1:]])
    assert code == 3
    assert out == ""
    assert err == "enumeration cap exceeded: 1352078 path tuples exceed the cap of 1000\n"


@pytest.mark.parametrize("command", [["verify", "--brute"], ["enumerate", "--flavor", "L", "--disjoint"]])
def test_tuple_cap_reads_the_product_when_few_tuples_are_disjoint(capsys, monkeypatch, command):
    # 1,000 blue path tuples on the 4 x 4 square but only 10 disjoint ones:
    # the cap bounds the product, whatever the walk would cut
    monkeypatch.setenv("SKEWLGV_MAX_TUPLES", "999")
    monkeypatch.setattr(connectors, "enumerate_paths", _refuse)
    monkeypatch.setattr(connectors, "Path", _refuse)
    monkeypatch.setattr(identity, "minors", _refuse)
    square = ["--n", "4", "--alpha", "0,0,0,0", "--beta", "4,4,4,4"]
    code, out, err = run(capsys, [command[0], *square, "--A", "0,1,2", "--B", "2,3,4", *command[1:]])
    assert code == 3
    assert out == ""
    assert err == "enumeration cap exceeded: 1000 path tuples exceed the cap of 999\n"


def test_default_tuple_cap_is_applied_by_the_enumerator(capsys, monkeypatch):
    # with SKEWLGV_MAX_TUPLES unset the CLI passes no cap, and connectors
    # applies its own default
    monkeypatch.delenv("SKEWLGV_MAX_TUPLES", raising=False)
    monkeypatch.setattr(connectors, "DEFAULT_TUPLE_CAP", 5)
    code, out, err = run(capsys, ["verify", *FOUR_ROW, "--brute"])
    assert code == 3
    assert out == ""
    assert err == "enumeration cap exceeded: 27 path tuples exceed the cap of 5\n"


@pytest.mark.parametrize("raw", ["0", "-5", "many"])
def test_tuple_cap_env_must_be_positive(capsys, monkeypatch, raw):
    monkeypatch.setenv("SKEWLGV_MAX_TUPLES", raw)
    code, out, err = run(capsys, ["enumerate", *FOUR_ROW, "--flavor", "L", "--disjoint"])
    assert code == 2
    assert out == ""
    assert err == f"error: SKEWLGV_MAX_TUPLES must be a positive integer, got {raw!r}\n"


def test_verify_json_golden(capsys):
    argv = ["verify", "--n", "2", "--alpha", "2,0", "--beta", "2,2", "--A", "0", "--B", "1"]
    code, out, _ = run(capsys, [*argv, "--brute", "--json"])
    assert code == 0
    assert out == (DATA / "verify_isolated.json").read_text()


SPECIAL_CASES = {
    "binomial": ["--n", "5", "--A", "0,2,3", "--B", "1,3,5"],
    "qbinomial": ["--n", "4", "--A", "0,2", "--B", "1,3"],
    "sympoly": ["--n", "3", "--A", "0,1", "--B", "1,3"],
    "aitken": ["--m", "3", "--n", "3", "--A", "0,1", "--B", "1,3"],
}


# polynomials each special report shows: the binomial determinants are
# ints, and sympoly's staircase route is not shown
SPECIAL_POLYNOMIALS = {"binomial": 0, "qbinomial": 2, "sympoly": 2, "aitken": 2}


@pytest.mark.parametrize("kind", sorted(SPECIAL_CASES))
def test_special_outputs_match_goldens(capsys, monkeypatch, kind):
    # the text formats each polynomial it shows exactly once, the JSON each
    # distinct one
    calls = []
    text = Polynomial.__str__

    def counted(p):
        calls.append(p)
        return text(p)

    monkeypatch.setattr(Polynomial, "__str__", counted)
    argv = ["special", kind, *SPECIAL_CASES[kind]]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == (DATA / f"special_{kind}.txt").read_text()
    assert len(calls) == SPECIAL_POLYNOMIALS[kind]
    distinct = set(calls)
    calls.clear()
    code, out, _ = run(capsys, [*argv, "--json"])
    assert code == 0
    assert out == (DATA / f"special_{kind}.json").read_text()
    assert len(calls) == len(distinct)


DEEP_SELECTION = [
    "--n", "1000",
    "--A", ",".join(map(str, range(1000))),
    "--B", ",".join(map(str, range(1, 1001))),
]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--alpha", ",".join(["0"] * 1000), "--beta", ",".join(["1"] * 1000)],
        *(["special", kind] for kind in ("binomial", "qbinomial", "sympoly", "aitken")),
    ],
    ids=lambda argv: argv[-1] if argv[0] == "special" else argv[0],
)
def test_dimension_guard_refuses_deep_determinants_up_front(capsys, argv):
    # a row expansion this deep would pass the interpreter's recursion limit
    start = time.perf_counter()
    code, out, err = run(capsys, [*argv, *DEEP_SELECTION])
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err == (
        "dimension guard: determinant dimension 1000 (--n 1000, |A| = 1000) "
        f"exceeds the limit of {DIMENSION_LIMIT}\n"
    )


def test_dimension_guard_admits_its_limit(capsys):
    # empty selections: the e-side determinant has n + 1 rows
    argv = ["special", "aitken", "--m", "1", "--A", "", "--B", ""]
    code, out, _ = run(capsys, [*argv, "--n", str(DIMENSION_LIMIT - 1)])
    assert (code, out) == (0, "det_h = 1\ndet_e = 1\nequal: yes\n")
    code, out, err = run(capsys, [*argv, "--n", str(DIMENSION_LIMIT)])
    assert (code, out) == (3, "")
    assert f"dimension {DIMENSION_LIMIT + 1} " in err


@pytest.mark.parametrize(
    "kind, text",
    [
        ("binomial", "det(C(b,a)) = 1, complement det = 1\n"),
        ("qbinomial", "lhs = 1\nrhs = 1\n"),
    ],
)
def test_dimension_limit_expands_in_one_frame_per_row(capsys, kind, text):
    # empty selections: the complement grid has DIMENSION_LIMIT rows and is
    # triangular, so its expansion is one chain of minors that deep
    argv = ["special", kind, "--n", str(DIMENSION_LIMIT - 1), "--A", "", "--B", ""]
    code, out, _ = run(capsys, argv)
    assert (code, out) == (0, text + "equal: yes\n")


def test_deep_binomial_is_integer_work(capsys):
    # |A| = n/2: a dense 12 x 12 minor on each side, taken over the integers
    argv = ["special", "binomial", "--n", "24"]
    selection = ["--A", ",".join(map(str, range(12))), "--B", ",".join(map(str, range(13, 25)))]
    start = time.perf_counter()
    code, out, _ = run(capsys, [*argv, *selection])
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, "det(C(b,a)) = 1, complement det = 1\nequal: yes\n")


# one row of 1500 boxes: each L path from (0, 0) to (1, 1500) takes 1501
# steps, past the interpreter's default recursion limit of 1000 frames
LONG_ROW = ["--n", "1", "--alpha", "0", "--beta", "1500", "--A", "0", "--B", "1"]


def test_enumerate_walks_paths_longer_than_the_recursion_limit(capsys):
    code, out, _ = run(capsys, ["enumerate", *LONG_ROW, "--flavor", "L"])
    lines = out.splitlines()
    # one connector per descent column, each holding exactly one path
    paths = [line for line in lines if line.startswith("  path ")]
    assert (code, len(paths), lines[-1][:20]) == (0, 1500, "1500 connectors, dis")
    assert all(p.startswith("  path 1: (0,0) -> ") and p.count("->") == 1501 for p in paths)


def test_verify_brute_walks_paths_longer_than_the_recursion_limit(capsys):
    code, out, _ = run(capsys, ["verify", *LONG_ROW, "--brute"])
    sums = {line.split(" = ")[1] for line in out.splitlines() if " = " in line}
    assert sums == {" + ".join(f"x{j}" for j in range(1, 1501))}
    assert (code, out[-24:]) == (0, "determinants equal: yes\n")


# one row of 5000 boxes: det_h and det_e are each the sum of 5000
# variables, one 16-bit field apiece, so each key spans up to 5000 fields
WIDE_ROW = ["--n", "1", "--alpha", "0", "--beta", "5000", "--A", "0", "--B", "1"]


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_verify_prints_a_wide_sparse_polynomial_in_bounded_time(capsys, mode):
    start = time.perf_counter()
    code, out, _ = run(capsys, ["verify", *WIDE_ROW, *mode])
    assert time.perf_counter() - start < 10
    want = " + ".join(f"x{i}" for i in range(1, 5001))
    if mode:
        det_h = json.loads(out)["det_h"]
    else:
        (det_h,) = [line[len("det_h = "):] for line in out.splitlines() if line.startswith("det_h = ")]
    assert (code, det_h) == (0, want)


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(st.sampled_from('ab"\\\n\t/\x00\x7fé€\u2028😀'), max_size=6)
    | st.builds(Node, st.integers(-3, 3), st.integers(-3, 3))
)


def _json_containers(children):
    seqs = st.lists(children, max_size=4)
    return (
        seqs
        | seqs.map(tuple)
        | st.dictionaries(st.text(max_size=3), children, max_size=4)
        # one tuple object at three places, two of them one level deeper
        | seqs.map(tuple).map(lambda t: [t, [t], {"t": t}])
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.recursive(_JSON_SCALARS, _json_containers, max_leaves=40))
@example([(), [], {}, ((),), [[]], {"": {}}])
@example([(1,), (True,), (1.0,), (0,), (False,), (-0.0,)])  # equal, not alike
@example({"a": ([1], {"b": (2,)}), "c": ([1], {"b": (2,)})})  # unhashable tuples
def test_json_text_matches_stdlib_indented_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_json_text_writes_ints_as_the_stdlib_does():
    # ints skip the stdlib encoder; bools, None and floats beside them,
    # and keys that read like them, must not
    value = {
        "ints": [0, 1, -1, 2**63, -(2**63) - 1, 10**40, -(10**40)],
        "mixed": (3, True, 3.0, None, False, -7, 0, -0.0, 1e300, 2**70),
        "1": {"true": 1, "null": None, "0": 0.0},
        "nested": [(1, (True, 1)), [[-5], ()]],
    }
    assert _json_text(value) == json.dumps(value, indent=2)


# sha256 of the stdout of three corollaries whose determinants are deep:
# an upper-Hessenberg h-grid, the flagged sympoly grids, and dense q-grids
COROLLARY_SHA256 = {
    "aitken": (
        ["--m", "1", "--n", "16", "--A", ",".join(map(str, range(16))),
         "--B", ",".join(map(str, range(1, 17)))],
        "559d95306798c0866ab951362a45156208c66a37fc9b7c59c1c211d4c21e9b35",
    ),
    "sympoly": (
        ["--n", "10", "--A", "0,1,2,3,4", "--B", "6,7,8,9,10"],
        "5024b7d0fe3c2cb0e75bc5491ebcdb144ec21905ca6037feec5e305fe97186c7",
    ),
    "qbinomial": (
        ["--n", "14", "--A", "0,1,2,3,4,5,6", "--B", "8,9,10,11,12,13,14"],
        "99f70f8e46dea6da9815b2271ab302bc64e6d000d0df4e131767479981880c8d",
    ),
}


@pytest.mark.parametrize("kind", COROLLARY_SHA256)
def test_deep_corollary_outputs_are_pinned(capsys, kind):
    args, digest = COROLLARY_SHA256[kind]
    code, out, _ = run(capsys, ["special", kind, *args])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_parser_is_built_once_and_keeps_no_state(capsys):
    build_parser.cache_clear()
    golden = ["verify", "--n", "2", "--alpha", "2,0", "--beta", "2,2", "--A", "0", "--B", "1",
              "--brute", "--json"]
    bad_calls = [
        ["verify", "--n", "x", "--alpha", "2,0", "--beta", "2,2", "--A", "0", "--B", "1"],
        ["sweep", "--max-n", "1", "--max-part", "1", "--hypothesis-only", "--all"],
    ]
    for bad in bad_calls:
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        code, out, err = run(capsys, golden)
        assert (code, err) == (0, "")
        assert out == (DATA / "verify_isolated.json").read_text()
    assert build_parser.cache_info().misses == 1


def test_special_binomial(capsys):
    code, out, _ = run(
        capsys, ["special", "binomial", "--n", "2", "--A", "0,1", "--B", "0,1", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lhs"] == payload["rhs"] == 1


def test_special_qbinomial(capsys):
    code, out, _ = run(
        capsys, ["special", "qbinomial", "--n", "4", "--A", "0,1,2", "--B", "1,3,4", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["det_lhs"] == payload["det_rhs"]


def test_special_rejects_negative_n(capsys):
    code, out, err = run(capsys, ["special", "qbinomial", "--n", "-1", "--A", "", "--B", ""])
    assert code == 2
    assert out == ""
    assert "nonnegative" in err
    code, out, _ = run(capsys, ["special", "binomial", "--n", "0", "--A", "0", "--B", "0"])
    assert code == 0
    assert "equal: yes" in out


def test_special_sympoly_and_aitken(capsys):
    code, out, _ = run(
        capsys, ["special", "sympoly", "--n", "3", "--A", "0,1", "--B", "2,3", "--json"]
    )
    assert code == 0
    assert json.loads(out)["routes_agree"] is True
    code, out, _ = run(
        capsys, ["special", "aitken", "--m", "3", "--n", "3", "--A", "0,1", "--B", "2,3", "--json"]
    )
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_sweep_counts_and_stream(capsys, tmp_path):
    stream = tmp_path / "cases.jsonl"
    code, out, _ = run(
        capsys,
        ["sweep", "--max-n", "3", "--max-part", "3", "--jsonl", str(stream), "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["holds_unequal"] == 0
    assert payload["fails_equal"] > 0
    assert payload["total"] == 60 + 1000 + 12250
    lines = stream.read_text().splitlines()
    assert len(lines) == payload["total"]
    # the inverse-pair probe case lands in the holds/equal bucket
    target = None
    for line in lines:
        rec = json.loads(line)
        if (
            rec["alpha"] == [2, 0, 0]
            and rec["beta"] == [3, 3, 1]
            and rec["A"] == [0, 1, 2]
            and rec["B"] == [1, 2, 3]
        ):
            target = rec
            break
    assert target is not None
    assert target["hypothesis_ok"] is True
    assert target["equal"] is True
    assert target["det_h"] == "x1*x2*x3"


# sha256 of the JSONL of sweep --max-n 3 --max-part 3, per mode
SWEEP_3_3_JSONL = {
    "all": "7f98b158146e6e2257cc9dcd3eefbf344e1411cfe96cec8c9b8b616696cd93a5",
    "hypothesis-only": "8f36884b81e4ee09f031cc8eaea7cee02b7804908146903ef4ed77f44d7c967c",
}
SWEEP_MODES = {"all": [], "hypothesis-only": ["--hypothesis-only"]}


def test_sweep_jsonl_golden_repeats_in_one_process(capsys, tmp_path):
    # the modes alternate, so a text kept from one call under a reused
    # object id would show in the next
    stream = tmp_path / "cases.jsonl"
    for mode in [*SWEEP_MODES, *SWEEP_MODES]:
        argv = ["sweep", "--max-n", "3", "--max-part", "3", *SWEEP_MODES[mode], "--jsonl", str(stream)]
        code, _, _ = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(stream.read_bytes()).hexdigest() == SWEEP_3_3_JSONL[mode]


def test_sweep_jsonl_golden_with_small_memo_caps(capsys, monkeypatch, tmp_path):
    # the sweep's minor memos and the writer's texts are dropped many times
    # within one n; every line still reads as recorded
    cleared = []
    real_clear = identity.SharedMinors.clear

    def counted(self):
        cleared.append(len(self.memo))
        real_clear(self)

    monkeypatch.setattr(identity, "SWEEP_MEMO_KEYS", 40)
    monkeypatch.setattr(identity.SharedMinors, "clear", counted)
    monkeypatch.setattr("skewlgv.cli._SWEEP_TEXTS", 30)
    stream = tmp_path / "cases.jsonl"
    code, _, _ = run(capsys, ["sweep", "--max-n", "3", "--max-part", "3", "--jsonl", str(stream)])
    assert code == 0
    assert hashlib.sha256(stream.read_bytes()).hexdigest() == SWEEP_3_3_JSONL["all"]
    assert len(cleared) > 2 * 3 * 2


def _spy_reference_lines(monkeypatch) -> list[str]:
    """Lines that run_sweep's per_case receives the reports of, each as
    ``json.dumps(_report_dict(report))``."""
    lines: list[str] = []
    real = identity.run_sweep

    def spy(*args, per_case=None, **kwargs):
        def both(report):
            lines.append(json.dumps(_report_dict(report)))
            per_case(report)

        return real(*args, per_case=None if per_case is None else both, **kwargs)

    monkeypatch.setattr(identity, "run_sweep", spy)
    return lines


def _jsonl_lines(path) -> list[str]:
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines.pop() == ""
    return lines


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_sweep_jsonl_lines_are_stdlib_dumps_of_each_report(capsys, monkeypatch, tmp_path, mode):
    want = _spy_reference_lines(monkeypatch)
    stream = tmp_path / "cases.jsonl"
    argv = ["sweep", "--max-n", "3", "--max-part", "3", *SWEEP_MODES[mode], "--jsonl", str(stream)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert len(want) == int(out.splitlines()[0].removeprefix("cases: "))
    assert _jsonl_lines(stream) == want


def test_sweep_jsonl_lines_follow_each_report(capsys, monkeypatch, tmp_path):
    # two shapes that share one alpha tuple object, their cases interleaved;
    # then sets that are equal but print apart, (1,) == (True,)
    alpha = (1, 0)
    shapes = [SkewShape(alpha, (2, 1)), SkewShape(alpha, (2, 2))]
    assert shapes[0].alpha is shapes[1].alpha
    want: list[str] = []

    def fake_run_sweep(max_n, max_part, hypothesis_only=False, per_case=None):
        checks = [identity.ShapeCheck(shape) for shape in shapes]
        sels = [*selections(2), *(IndexSelection(2, tuple([x]), tuple([x])) for x in (1, True, 1))]
        summary = identity.SweepSummary(max_n, max_part, hypothesis_only)
        for sel in sels:
            for check in checks:
                report = check.report(sel)
                summary.bucket(report)
                want.append(json.dumps(_report_dict(report)))
                per_case(report)
        return summary

    monkeypatch.setattr(identity, "run_sweep", fake_run_sweep)
    stream = tmp_path / "cases.jsonl"
    code, _, _ = run(capsys, ["sweep", "--max-n", "2", "--max-part", "2", "--jsonl", str(stream)])
    assert code == 0
    got = _jsonl_lines(stream)
    assert got == want
    assert [json.loads(line)["A"] for line in got[-6::2]] == [[1], [True], [1]]


def test_report_payload_formats_each_distinct_polynomial_once(capsys, monkeypatch):
    formatted = []
    real = Polynomial.__str__

    def counting(p):
        formatted.append(p)
        return real(p)

    monkeypatch.setattr(Polynomial, "__str__", counting)
    code, out, _ = run(capsys, ["verify", *FOUR_ROW, "--brute", "--json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["det_h"] == payload["det_e"] == payload["brute_blue"] == payload["brute_red"]
    assert len(formatted) == 1


def test_sweep_jsonl_open_failure_is_input_error(capsys, tmp_path):
    target = tmp_path / "missing" / "cases.jsonl"
    code, out, err = run(
        capsys, ["sweep", "--max-n", "1", "--max-part", "1", "--jsonl", str(target)]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_sweep_jsonl_write_failure_is_input_error(capsys):
    code, out, err = run(
        capsys, ["sweep", "--max-n", "1", "--max-part", "1", "--jsonl", "/dev/full"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_sweep_without_jsonl_passes_no_writer(capsys, monkeypatch):
    calls = []
    real = identity.run_sweep

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(identity, "run_sweep", spy)
    code, out, _ = run(capsys, ["sweep", "--max-n", "2", "--max-part", "1"])
    assert code == 0
    assert out.startswith("cases: ")
    assert len(calls) == 1
    assert calls[0].get("per_case") is None


def test_sweep_hypothesis_only(capsys):
    code, out, _ = run(
        capsys, ["sweep", "--max-n", "2", "--max-part", "2", "--hypothesis-only", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fails_equal"] == payload["fails_unequal"] == 0


@pytest.mark.parametrize(
    "mode, golden",
    [([], "sweep_2_2.json"), (["--hypothesis-only"], "sweep_2_2_hypothesis_only.json")],
)
def test_sweep_json_golden(capsys, mode, golden):
    code, out, _ = run(capsys, ["sweep", "--max-n", "2", "--max-part", "2", *mode, "--json"])
    assert code == 0
    assert out == (DATA / golden).read_text()


def test_sweep_guard(capsys):
    code, _, err = run(capsys, ["sweep", "--max-n", "7", "--max-part", "2"])
    assert code == 3
    assert "guard" in err


@pytest.mark.parametrize(
    "bounds", [["--max-n", "2", "--max-part", "-3"], ["--max-n", "0", "--max-part", "2"]]
)
def test_sweep_rejects_bounds_below_range(capsys, monkeypatch, bounds):
    monkeypatch.setattr(identity, "run_sweep", _refuse)
    code, out, err = run(capsys, ["sweep", *bounds])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_sweep_accepts_zero_max_part(capsys):
    code, out, _ = run(capsys, ["sweep", "--max-n", "1", "--max-part", "0", "--json"])
    assert code == 0
    assert json.loads(out)["total"] > 0


def test_draw_matches_golden(capsys):
    code, out, _ = run(capsys, ["draw", *FOUR_ROW, "--flavor", "R"])
    assert code == 0
    assert out == (DATA / "four_row_R.txt").read_text()
    code, out, _ = run(capsys, ["draw", *FOUR_ROW, "--flavor", "L"])
    assert out == (DATA / "four_row_L.txt").read_text()


def test_draw_unit_square(capsys):
    code, out, _ = run(
        capsys,
        ["draw", "--n", "1", "--alpha", "0", "--beta", "1", "--A", "0", "--B", "0", "--flavor", "L"],
    )
    assert code == 0
    assert out == (DATA / "unit_square_L.txt").read_text()


def test_draw_without_selection(capsys):
    code, out, _ = run(capsys, ["draw", "--n", "1", "--alpha", "0", "--beta", "1", "--flavor", "L"])
    assert code == 0
    assert "o" not in out and "x" not in out


def test_draw_descent_positions_match_box_count(capsys):
    # one weighted descent per box: 24 of them for this six-row diagram
    argv = [
        "draw",
        "--n", "6",
        "--alpha", "2,1,1,0,0,0",
        "--beta", "6,6,5,4,4,3",
        "--flavor", "L",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.count("|") == 24
    code, out, _ = run(capsys, [*argv[:-1], "R"])
    assert out.count("\\") == 24


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "skewlgv.cli", "verify", *PROBE],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "determinants equal: yes" in proc.stdout
