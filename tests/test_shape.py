from collections import Counter

import pytest

import skewlgv.shape as shape_module
from skewlgv.shape import (
    IndexSelection,
    ShapeError,
    SkewShape,
    is_row_connected,
    line_runs,
    make_skew,
    parallelogram_clause,
    parallelogram_hypothesis,
    partitions_with,
    rectangle,
    selections,
    skew_shapes,
    staircase,
)
from support import composition_shapes, is_partition_pair


def near_staircase_check(parts: tuple[int, ...]) -> bool:
    """True when each part is at most 1 less than the preceding part."""
    return all(a - b <= 1 for a, b in zip(parts, parts[1:]))


def test_make_skew_valid():
    s = make_skew([1, 1, 0, 0], [4, 3, 3, 2])
    assert s.n == 4
    assert s.box_count() == 3 + 2 + 3 + 2
    s6 = make_skew([2, 1, 1, 0, 0, 0], [6, 6, 5, 4, 4, 3])
    assert s6.n == 6
    assert s6.box_count() == 24


def test_make_skew_rejects_non_partition():
    with pytest.raises(ShapeError, match="not weakly decreasing"):
        make_skew([0, 1], [2, 2])


def test_make_skew_rejects_negative_part():
    with pytest.raises(ShapeError, match="negative"):
        make_skew([0, -1], [1, 0])


def test_make_skew_rejects_containment_violation():
    with pytest.raises(ShapeError, match="containment"):
        make_skew([3, 0], [2, 2])


def test_make_skew_rejects_length_mismatch():
    with pytest.raises(ShapeError, match="length"):
        make_skew([1, 0], [2, 2, 1])


def test_make_skew_accepts_empty_rows():
    s = make_skew([2, 2], [2, 2])
    assert s.box_count() == 0


def test_skew_shape_allows_non_monotone():
    s = SkewShape([0, 2], [1, 3])
    assert not is_partition_pair(s)
    with pytest.raises(ShapeError):
        SkewShape([2, 0], [1, 3])


def test_skew_shape_derives_n_from_its_parts():
    s = SkewShape([0, 2], [1, 3])
    assert (s.alpha, s.beta, s.n) == ((0, 2), (1, 3), 2)
    assert repr(s) == "SkewShape(alpha=(0, 2), beta=(1, 3), n=2)"
    # lists are stored as tuples, so the shape hashes
    assert hash(s) == hash(SkewShape((0, 2), (1, 3)))
    with pytest.raises(TypeError):
        SkewShape(alpha=(0,), beta=(1,), n=3)


@pytest.mark.parametrize(
    "alpha, beta, message",
    [
        ((3,), (1,), "containment violated at row 1: 3 > 1"),
        ((0, 1), (1,), "length mismatch"),
        ((), (), "at least one row"),
        ((0, -1), (1, 0), "negative"),
        ((0.5,), (1,), "parts must be ints"),
        ((0,), ("1",), "parts must be ints"),
    ],
)
def test_skew_shape_refuses_malformed_pairs(alpha, beta, message):
    with pytest.raises(ShapeError, match=message):
        SkewShape(alpha, beta)


def test_boundary_part_interpretations():
    s = make_skew([1, 1, 0, 0], [4, 3, 3, 2])
    assert s.alpha_part(5) == s.alpha_part(4) == 0
    assert s.beta_part(0) == s.beta_part(1) == 4


# --- parallelogram condition -------------------------------------------------


def test_part_accessors_refuse_indices_outside_their_range():
    s = make_skew([2, 1, 0], [3, 3, 1])
    assert [s.alpha_part(i) for i in range(1, 5)] == [2, 1, 0, 0]
    assert [s.beta_part(i) for i in range(4)] == [3, 3, 3, 1]
    # one past each end; a negative index would wrap round to the last row
    for part, i in ((s.alpha_part, 0), (s.alpha_part, 5), (s.beta_part, -1), (s.beta_part, 4)):
        with pytest.raises(ShapeError, match="outside"):
            part(i)


def test_hypothesis_example_near_staircase():
    shape = make_skew([1, 1, 0, 0], [4, 3, 3, 2])
    sel = IndexSelection.make(4, [0, 1, 2], [1, 3, 4])
    assert sel.a_comp == (3, 4)
    assert sel.b_comp == (0, 2)
    assert parallelogram_hypothesis(shape, sel).ok


def test_hypothesis_example_inverse_pair_probe_shape():
    shape = make_skew([2, 0, 0], [3, 3, 1])
    sel = IndexSelection.make(3, [0, 1, 2], [1, 2, 3])
    check = parallelogram_hypothesis(shape, sel)
    assert check.ok
    assert check.violations == ()


def test_hypothesis_violation_reported():
    shape = make_skew([0, 0], [3, 1])
    sel = IndexSelection.make(2, [0, 1], [1, 2])
    assert sel.a_comp == (2,) and sel.b_comp == (0,)
    check = parallelogram_hypothesis(shape, sel)
    assert not check.ok
    assert check.violations == ((2, 0),)
    # the breaking row: beta_1 - beta_2 = 2 > i - b' - 1 = 1 at i = 2
    assert not parallelogram_clause(shape, 2, 0)


def test_clause_memo_computes_each_pair_once(monkeypatch):
    # every selection of one shape reads the shape's clause table, so each
    # (a', b') clause is computed once however many selections ask for it
    clause, calls = shape_module.parallelogram_clause, Counter()

    def counted(shape, a_p, b_p):
        calls[a_p, b_p] += 1
        return clause(shape, a_p, b_p)

    monkeypatch.setattr(shape_module, "parallelogram_clause", counted)
    shape = make_skew([2, 1, 0], [3, 3, 1])
    for sel in selections(3):
        pairs = [(a_p, b_p) for a_p in sel.a_comp for b_p in sel.b_comp]
        violations = tuple(p for p in pairs if not clause(shape, *p))
        assert parallelogram_hypothesis(shape, sel) == (not violations, violations)
    assert len(calls) == 16 and max(calls.values()) == 1


def test_selections_with_the_same_failing_pairs_share_one_check():
    # on this shape only the clause at (a', b') = (2, 0) fails
    shape = make_skew([0, 0], [3, 1])
    first = parallelogram_hypothesis(shape, IndexSelection.make(2, [0, 1], [1, 2]))
    again = parallelogram_hypothesis(shape, IndexSelection.make(2, [1], [1]))
    assert first == (False, ((2, 0),))
    assert again is first
    by_violations = {}
    for sel in selections(2):
        check = parallelogram_hypothesis(shape, sel)
        assert by_violations.setdefault(check.violations, check) is check


# --- special partitions ------------------------------------------------------


def test_near_staircase_check():
    assert near_staircase_check((4, 3, 3, 2))
    assert not near_staircase_check((2, 0, 0))
    assert near_staircase_check((0, 0, 0))


def test_staircase_and_rectangle():
    s = staircase(3)
    assert s.alpha == (2, 1, 0)
    assert s.beta == (3, 3, 3)
    r = rectangle(2, 3)
    assert r.alpha == (0, 0, 0)
    assert r.beta == (2, 2, 2)
    s1 = staircase(1)
    assert s1.alpha == (0,) and s1.beta == (1,)


@pytest.mark.parametrize("n", range(1, 6))
def test_special_shapes_validate(n):
    staircase(n)
    for m in range(1, 5):
        rectangle(m, n)


def test_special_shapes_reject_bad_sizes():
    with pytest.raises(ShapeError):
        staircase(0)
    with pytest.raises(ShapeError):
        rectangle(0, 1)


# --- selections ---------------------------------------------------------------


def test_selection_complements_partition_universe():
    for n in range(1, 5):
        for sel in selections(n):
            assert len(sel.a_set) + len(sel.a_comp) == n + 1
            assert sorted(sel.a_set + sel.a_comp) == list(range(n + 1))
            assert sorted(sel.b_set + sel.b_comp) == list(range(n + 1))
            assert sel.l + sel.r == n + 1


def test_selection_validation():
    with pytest.raises(ShapeError):
        IndexSelection.make(2, [0, 3], [0, 1])
    with pytest.raises(ShapeError):
        IndexSelection.make(2, [0], [0, 1])
    with pytest.raises(ShapeError):
        IndexSelection(2, (1, 0), (0, 1))


@pytest.mark.parametrize(
    "n, a_set, b_set, message",
    [
        (4, [0.5], [1], r"n, A and B must be ints: 4, \(0.5,\), \(1,\)"),
        (4, [0], ["1"], "n, A and B must be ints"),
        (2.0, [0], [1], "n, A and B must be ints: 2.0"),
    ],
)
def test_selection_refuses_non_int_data(n, a_set, b_set, message):
    with pytest.raises(ShapeError, match=message):
        IndexSelection.make(n, a_set, b_set)


# --- near-staircase shapes satisfy the hypothesis everywhere -----------------


def test_near_staircase_implies_hypothesis_exhaustive():
    for n in range(1, 5):
        sels = list(selections(n))
        for shape in skew_shapes(n, 4):
            if not (
                near_staircase_check(shape.alpha)
                and near_staircase_check(shape.beta)
            ):
                continue
            for sel in sels:
                assert parallelogram_hypothesis(shape, sel).ok, (
                    shape.alpha,
                    shape.beta,
                    sel.a_set,
                    sel.b_set,
                )


# --- generators and connectivity ---------------------------------------------


def test_partitions_with_counts():
    assert len(list(partitions_with(4, 4))) == 70
    assert all(
        all(a >= b for a, b in zip(p, p[1:])) for p in partitions_with(3, 3)
    )


def test_skew_shapes_are_dominated_pairs():
    shapes = list(skew_shapes(2, 2))
    assert all(
        all(a <= b for a, b in zip(s.alpha, s.beta)) for s in shapes
    )
    assert len(shapes) == len({(s.alpha, s.beta) for s in shapes})


def test_composition_shapes_include_non_partitions():
    shapes = list(composition_shapes(2, 1))
    assert any(not is_partition_pair(s) for s in shapes)


def test_line_runs_and_connectivity():
    connected = make_skew([1, 0], [2, 1])
    assert is_row_connected(connected)
    # row 1 holds a single far-right box, row 2 two far-left boxes: line 1
    # splits into two runs and the same-row path count formulas break there
    disconnected = make_skew([3, 0], [4, 2])
    assert line_runs(disconnected, 1) == [(0, 2), (3, 4)]
    assert not is_row_connected(disconnected)
    # empty diagram with distinct designated endpoints on line 1
    assert not is_row_connected(make_skew([4, 3], [4, 3]))
