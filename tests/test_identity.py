import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from skewlgv import identity
from skewlgv.detring import det, det_naive, int_det, matmul
from skewlgv.identity import (
    VerificationReport,
    build_e_matrix,
    build_full_E,
    build_full_H,
    build_h_matrix,
    entry_e,
    entry_h,
    run_sweep,
    verify_aitken,
    verify_binomial,
    verify_main,
    verify_qbinomial,
    verify_sympoly_binomial,
)
from skewlgv.lattice import Node
from skewlgv.poly import Polynomial, e_poly, h_poly, qbinom
from skewlgv.shape import (
    IndexSelection,
    ShapeError,
    SkewShape,
    make_skew,
    parallelogram_hypothesis,
    rectangle,
    selections,
    skew_shapes,
    staircase,
)
from support import identity_matrix, is_partition_pair

ONE = Polynomial.one()
ZERO = Polynomial.zero()
Q = Polynomial.q()

FOUR_ROW_SHAPE = make_skew([1, 1, 0, 0], [4, 3, 3, 2])
FOUR_ROW_SEL = IndexSelection.make(4, [0, 1, 2], [1, 3, 4])

PROBE_SHAPE = make_skew([2, 0, 0], [3, 3, 1])
PROBE_SEL = IndexSelection.make(3, [0, 1, 2], [1, 2, 3])


def test_h_matrix_of_worked_example():
    m = build_h_matrix(FOUR_ROW_SHAPE, FOUR_ROW_SEL)
    # rows are read at A = (0, 1, 2), columns at B = (1, 3, 4)
    assert [len(row) for row in m] == [3, 3, 3]
    for r, a in enumerate((0, 1, 2)):
        for c, b in enumerate((1, 3, 4)):
            assert m[r][c] == entry_h(FOUR_ROW_SHAPE, a, b)
    expected = [
        [h_poly(1, 2, 4), h_poly(3, 2, 3), h_poly(4, 2, 2)],
        [ONE, h_poly(2, 2, 3), h_poly(3, 2, 2)],
        [ZERO, h_poly(1, 1, 3), h_poly(2, 1, 2)],
    ]
    for r in range(3):
        for c in range(3):
            assert m[r][c] == expected[r][c]


def test_e_matrix_of_worked_example():
    m = build_e_matrix(FOUR_ROW_SHAPE, FOUR_ROW_SEL)
    # rows are read at A^c = (3, 4), columns at B^c = (0, 2)
    assert [len(row) for row in m] == [2, 2]
    for r, a_p in enumerate((3, 4)):
        for c, b_p in enumerate((0, 2)):
            assert m[r][c] == entry_e(FOUR_ROW_SHAPE, a_p, b_p)
    expected = [
        [e_poly(3, 1, 4), e_poly(1, 1, 3)],
        [e_poly(4, 1, 4), e_poly(2, 1, 3)],
    ]
    for r in range(2):
        for c in range(2):
            assert m[r][c] == expected[r][c]


def test_h_matrix_of_probe_shape():
    m = build_h_matrix(PROBE_SHAPE, PROBE_SEL)
    expected = [
        [h_poly(1, 3, 3), h_poly(2, 3, 3), ZERO],
        [ONE, h_poly(1, 1, 3), h_poly(2, 1, 1)],
        [ZERO, ONE, h_poly(1, 1, 1)],
    ]
    for r in range(3):
        for c in range(3):
            assert m[r][c] == expected[r][c]
    e = build_e_matrix(PROBE_SHAPE, PROBE_SEL)
    assert e == ((e_poly(3, 1, 3),),)


def test_full_selection_gives_unit_determinants():
    for n in range(1, 5):
        sel = IndexSelection.make(n, range(n + 1), range(n + 1))
        for shape in skew_shapes(n, 3):
            h = build_h_matrix(shape, sel)
            for i in range(n + 1):
                assert h[i][i] == ONE
                for j in range(i):
                    assert h[i][j] == ZERO
            assert det(h) == ONE
            e = build_e_matrix(shape, sel)
            assert e == ()
            assert det(e) == ONE


def test_verify_main_worked_example():
    rep = verify_main(FOUR_ROW_SHAPE, FOUR_ROW_SEL, with_brute=True)
    assert rep.hypothesis_ok
    assert rep.equal
    assert rep.brute_blue == rep.det_h
    assert rep.brute_red == rep.det_e
    assert rep.row_connected
    assert rep.isolated_points == ()


def test_verify_main_probe_shape():
    rep = verify_main(PROBE_SHAPE, PROBE_SEL)
    x = Polynomial.variable
    assert rep.hypothesis_ok
    assert rep.equal
    assert rep.det_h == x(1) * x(2) * x(3)
    assert rep.det_e == x(1) * x(2) * x(3)


def test_verify_main_reports_hypothesis_violation():
    # determinants still agree although the parallelogram condition fails
    shape = make_skew([0, 0], [3, 1])
    sel = IndexSelection.make(2, [1], [1])
    rep = verify_main(shape, sel)
    assert not rep.hypothesis_ok
    assert (2, 0) in rep.violating_pairs
    assert rep.equal


# --- binomial and q-binomial duality ------------------------------------------


def binomial_lhs_oracle(rows, cols):
    return int_det([[math.comb(b, a) for b in cols] for a in rows])


def binomial_rhs_oracle(rows, cols):
    return int_det([[math.comb(a, b) for b in cols] for a in rows])


def test_binomial_small():
    sel = IndexSelection.make(2, [0, 1], [0, 1])
    rep = verify_binomial(2, sel)
    assert rep.lhs == rep.rhs == 1
    assert binomial_lhs_oracle([0, 1], [0, 1]) == 1
    assert binomial_rhs_oracle([2], [2]) == 1


def test_binomial_full_selection():
    for n in range(1, 5):
        sel = IndexSelection.make(n, range(n + 1), range(n + 1))
        rep = verify_binomial(n, sel)
        assert rep.lhs == rep.rhs == 1


def test_binomial_example_against_integer_oracle():
    sel = IndexSelection.make(4, [0, 1, 2], [1, 3, 4])
    rep = verify_binomial(4, sel)
    assert rep.equal
    assert rep.lhs == binomial_lhs_oracle([0, 1, 2], [1, 3, 4])
    assert rep.rhs == binomial_rhs_oracle([3, 4], [0, 2])


def test_qbinomial_hand_expansion():
    sel = IndexSelection.make(2, [0], [1])
    rep = verify_qbinomial(2, sel)
    assert rep.det_lhs == qbinom(1, 0) == ONE
    # complement matrix, on rows A^c = {1, 2} and columns B^c = {0, 2}, is
    # [[1, 0], [q, 1]]
    from skewlgv.identity import _qbinom_rhs_entry

    assert sel.a_comp == (1, 2) and sel.b_comp == (0, 2)
    assert _qbinom_rhs_entry(1, 0) == ONE
    assert _qbinom_rhs_entry(1, 2) == ZERO
    assert _qbinom_rhs_entry(2, 0) == Q
    assert _qbinom_rhs_entry(2, 2) == ONE
    assert rep.det_rhs == ONE
    assert rep.equal


def test_qbinomial_equal_selection():
    for n in (2, 3, 4):
        sel = IndexSelection.make(n, [0, n], [0, n])
        rep = verify_qbinomial(n, sel)
        assert rep.det_lhs == rep.det_rhs


def test_qbinomial_example_and_q1_specialisation():
    sel = IndexSelection.make(4, [0, 1, 2], [1, 3, 4])
    rep = verify_qbinomial(4, sel)
    assert rep.equal
    brep = verify_binomial(4, sel)
    assert rep.det_lhs.substitute({0: 1}) == Polynomial.integer(brep.lhs)


def test_binomial_route_matches_qbinomial_at_q1():
    # the integer route and the q-route are computed independently; a seeded
    # sample of selections past the acceptance suite's n <= 5
    rng = random.Random(0xB1)
    for n in (6, 7, 8):
        for sel in rng.sample(list(selections(n)), 50):
            brep = verify_binomial(n, sel)
            qrep = verify_qbinomial(n, sel)
            assert brep.lhs == qrep.det_lhs.evaluate({0: 1}), (n, sel)
            assert brep.rhs == qrep.det_rhs.evaluate({0: 1}), (n, sel)
            assert brep.equal and qrep.equal


# --- initial-segment symmetric polynomial duality ------------------------------


def test_sympoly_trivial_and_example():
    sel = IndexSelection.make(3, [0, 2], [0, 2])
    rep = verify_sympoly_binomial(3, sel)
    assert rep.equal and rep.routes_agree
    sel = IndexSelection.make(3, [0, 1], [2, 3])
    rep = verify_sympoly_binomial(3, sel)
    assert rep.equal
    assert rep.routes_agree
    assert rep.det_h == rep.det_h_staircase


def test_sympoly_routes_agree_exhaustively():
    for n in range(1, 5):
        for sel in selections(n):
            rep = verify_sympoly_binomial(n, sel)
            assert rep.equal
            assert rep.routes_agree, (n, sel.a_set, sel.b_set)


# --- rectangle duality ----------------------------------------------------------


def test_aitken_single_variable():
    sel = IndexSelection.make(2, [0], [2])
    rep = verify_aitken(1, 2, sel)
    x1 = Polynomial.variable(1)
    assert rep.det_h == x1**2
    assert rep.equal


def test_aitken_equal_selection():
    sel = IndexSelection.make(3, [1, 2], [1, 2])
    rep = verify_aitken(2, 3, sel)
    assert rep.det_h == rep.det_e == ONE


def test_aitken_sweep_small():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for sel in selections(n):
                rep = verify_aitken(m, n, sel)
                assert rep.equal, (m, n, sel.a_set, sel.b_set)


# --- full square matrices -------------------------------------------------------


def test_full_matrices_inverse_on_rectangles():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            shape = rectangle(m, n)
            prod = matmul(build_full_E(shape), build_full_H(shape))
            assert prod == identity_matrix(n + 1)


def test_full_matrices_not_inverse_on_probe_shape():
    shape = PROBE_SHAPE
    prod = matmul(build_full_E(shape), build_full_H(shape))
    x = Polynomial.variable
    assert prod[0][2] == x(1) * x(2)
    assert prod != identity_matrix(4)


def test_full_matrices_staircase_regression():
    # frozen: the staircase(2) pair happens to be mutually inverse
    shape = staircase(2)
    prod = matmul(build_full_E(shape), build_full_H(shape))
    assert prod == identity_matrix(3)


# --- differential checks of the matrix assembly ----------------------------------


def _grid():
    """Every shape with n <= 3 and parts <= 3, with its full H and E."""
    for n in range(1, 4):
        for shape in skew_shapes(n, 3):
            yield shape, build_full_H(shape), build_full_E(shape)


def test_h_matrix_is_minor_of_full_H():
    for shape, full_h, _ in _grid():
        for sel in selections(shape.n):
            # the full matrix is indexed by 0..n
            minor = tuple(tuple(full_h[a][b] for b in sel.b_set) for a in sel.a_set)
            assert build_h_matrix(shape, sel) == minor


def test_e_matrix_is_signed_transposed_minor_of_full_E():
    for shape, _, full_e in _grid():
        for sel in selections(shape.n):
            e = build_e_matrix(shape, sel)
            # row r is read at A^c[r], column c at B^c[c]
            assert [len(row) for row in e] == [len(sel.b_comp)] * len(sel.a_comp)
            for r, a_p in enumerate(sel.a_comp):
                for c, b_p in enumerate(sel.b_comp):
                    expected = full_e[b_p][a_p]
                    if (a_p + b_p) % 2:
                        expected = -expected
                    assert e[r][c] == expected


def test_det_agrees_with_int_det_at_random_points():
    # exact at the point; Schwartz 1980 and Zippel 1979 bound how likely a
    # wrong polynomial determinant is to agree there.  det and int_det share
    # one expansion, so this checks the polynomial arithmetic; the expansion
    # itself is checked against the Leibniz oracles in test_detring.py
    rng = random.Random(2024)
    for shape, _, _ in _grid():
        point = {v: rng.randint(-9, 9) for v in range(1, max(shape.beta) + 1)}
        for sel in selections(shape.n):
            for m in (build_h_matrix(shape, sel), build_e_matrix(shape, sel)):
                rows = [[x.evaluate(point) for x in row] for row in m]
                assert det(m).evaluate(point) == int_det(rows)


@st.composite
def shapes_and_selections(draw):
    """A skew shape with n <= 7 rows and parts <= 7, and a selection whose h
    and e matrices both have dimension <= 6."""
    n = draw(st.integers(1, 7))
    beta = sorted(draw(st.lists(st.integers(0, 7), min_size=n, max_size=n)), reverse=True)
    # sorting keeps alpha <= beta: the k-th largest alpha lies below k betas
    alpha = sorted((draw(st.integers(0, b)) for b in beta), reverse=True)
    k = draw(st.integers(max(0, n - 5), min(6, n + 1)))
    rows = st.lists(st.integers(0, n), min_size=k, max_size=k, unique=True)
    return make_skew(alpha, beta), IndexSelection.make(n, draw(rows), draw(rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shapes_and_selections())
def test_det_agrees_with_det_naive_on_random_shapes(problem):
    # beyond the exhaustive n <= 4 grid; the Leibniz sum grows with the
    # entries' terms, so matrices past the budget are left to the point check
    shape, sel = problem
    for m in (build_h_matrix(shape, sel), build_e_matrix(shape, sel)):
        assert len(m) <= 6
        if sum(len(x.terms) for row in m for x in row) <= 120:
            assert det(m) == det_naive(m)


@st.composite
def part_lists(draw):
    """Two lists of at most four small ints, often a skew pair and often
    not: negative parts, unequal lengths, alpha > beta somewhere, and parts
    that rise as well as fall."""
    alpha = draw(st.lists(st.integers(-1, 4), max_size=4))
    if draw(st.booleans()):
        beta = [a + draw(st.integers(-1, 3)) for a in alpha]
    else:
        beta = draw(st.lists(st.integers(-1, 5), max_size=4))
    return alpha, beta


@settings(max_examples=300, deadline=None, derandomize=True)
@given(part_lists(), st.booleans(), st.data())
def test_part_lists_give_a_shape_error_or_a_report(parts, with_brute, data):
    # each constructor refuses with ShapeError or builds a shape, and any
    # valid selection on a built shape verifies to a report, brute-force
    # sums included; no other exception escapes
    shapes = {}
    for build in (SkewShape, make_skew):
        try:
            shape = shapes[build] = build(*parts)
        except ShapeError:
            continue
        n = shape.n
        k = data.draw(st.integers(0, n + 1))
        rows = st.lists(st.integers(0, n), min_size=k, max_size=k, unique=True)
        sel = IndexSelection.make(n, data.draw(rows), data.draw(rows))
        report = verify_main(shape, sel, with_brute=with_brute)
        assert isinstance(report, VerificationReport)
        assert (report.alpha, report.beta) == (shape.alpha, shape.beta)
    # make_skew adds only the partition check to the pair's own checks
    if SkewShape in shapes:
        pair = shapes[SkewShape]
        assert shapes.get(make_skew, pair) == pair
        assert (make_skew in shapes) == is_partition_pair(pair)
    else:
        assert make_skew not in shapes


@pytest.mark.parametrize("with_brute", [False, True])
@pytest.mark.parametrize("sel_n", [1, 3])
def test_verify_main_refuses_a_selection_of_another_size(sel_n, with_brute):
    # a shorter selection would verify another problem, a longer one read
    # lines the shape does not have
    shape = make_skew([1, 0], [2, 1])
    sel = IndexSelection.make(sel_n, [0], [1])
    with pytest.raises(ShapeError, match=f"selection on 0..{sel_n} for a shape of 2 rows"):
        verify_main(shape, sel, with_brute=with_brute)


# --- misc -----------------------------------------------------------------------


def test_isolated_endpoints_flagging():
    assert FOUR_ROW_SHAPE.isolated_points == ()
    shape = make_skew([1, 1], [2, 1])
    assert Node(2, 1) in shape.isolated_points


def test_run_sweep_small_buckets():
    summary = run_sweep(2, 2)
    assert summary.total == 436
    assert summary.holds_unequal == 0
    assert summary.fails_equal > 0
    assert (
        summary.holds_equal + summary.fails_equal + summary.fails_unequal
        == summary.total
    )
    hyp_only = run_sweep(2, 2, hypothesis_only=True)
    assert hyp_only.total == summary.holds_equal


def _sweep_cases(max_n, max_part):
    return [
        (shape, sel)
        for n in range(1, max_n + 1)
        for shape in skew_shapes(n, max_part)
        for sel in selections(n)
    ]


def _sweep_reports(*args, **kwargs):
    """run_sweep's summary and the report of each case it visits, made by
    ``ShapeCheck.report`` in the per-shape callback; each report's
    determinants are the very objects that the sweep compared."""
    reports = []

    def per_shape(check, cases):
        for sel, hypothesis, dh, de in cases:
            rep = check.report(sel, hypothesis)
            assert rep.det_h is dh and rep.det_e is de
            reports.append(rep)

    return run_sweep(*args, per_shape=per_shape, **kwargs), reports


def test_run_sweep_matches_per_case_oracle():
    _check_run_sweep_3_3_against_oracle()


def test_run_sweep_with_a_small_memo_cap_matches_per_case_oracle(monkeypatch):
    clears = []
    real_clear = identity.SharedMinors.clear

    def counted(self):
        clears.append(len(self.memo))
        real_clear(self)

    monkeypatch.setattr(identity, "SWEEP_MEMO_KEYS", 40)
    monkeypatch.setattr(identity.SharedMinors, "clear", counted)
    _check_run_sweep_3_3_against_oracle()
    # past the cap, and not only when each n ends
    assert len(clears) > 2 * 3 * 2 and max(clears) > 40


def _part_reads(side, shape, rows, cols):
    """The parts that the rows and columns of one minor of a side read."""
    alpha, beta = shape.alpha, shape.beta
    if side == "h":
        row_parts, col_parts = alpha + alpha[-1:], beta[:1] + beta
    else:
        row_parts, col_parts = (0,) + alpha, beta + (0,)
    return tuple(row_parts[a] for a in rows), tuple(col_parts[b] for b in cols)


def test_sweep_minors_are_shared_by_shapes_and_interned_per_n():
    _, reports = _sweep_reports(3, 2)
    by_key, by_value, shared = {}, {}, 0
    for rep in reports:
        sel = IndexSelection(rep.n, rep.a_set, rep.b_set)
        shape = SkewShape(rep.alpha, rep.beta)
        for side, det_, rows, cols in (
            ("h", rep.det_h, sel.a_set, sel.b_set), ("e", rep.det_e, sel.a_comp, sel.b_comp)
        ):
            key = (rep.n, side, rows, cols, _part_reads(side, shape, rows, cols))
            first = by_key.setdefault(key, (det_, rep.alpha, rep.beta))
            # shapes that agree on the parts a minor reads get one det object
            assert first[0] is det_, key
            if len(rows) > 1 and first[1:] != (rep.alpha, rep.beta):
                shared += 1
            # equal minors of one n and side are one object, and so are
            # those of the two sides, which share one value table
            assert by_value.setdefault((rep.n, side, det_), det_) is det_
            assert by_value.setdefault((rep.n, det_), det_) is det_
    assert shared > 1000
    # two shapes apart in beta_3 only; rows {0, 1} and columns {1, 2} read
    # alpha_1, alpha_2, beta_1 and beta_2
    a, b = (
        next(r for r in reports if (r.alpha, r.beta, r.a_set, r.b_set) == (alpha, beta, (0, 1), (1, 2)))
        for alpha, beta in (((0, 0, 0), (2, 2, 1)), ((0, 0, 0), (2, 2, 2)))
    )
    assert a.det_h is b.det_h == h_poly(1, 1, 2) ** 2 - h_poly(2, 1, 2) != ZERO


def _check_run_sweep_3_3_against_oracle():
    # the shape-batched sweep against matrices built and expanded per case
    summary, reports = _sweep_reports(3, 3)
    cases = _sweep_cases(3, 3)
    assert summary.total == len(reports) == len(cases) == 13310
    for rep, (shape, sel) in zip(reports, cases):
        hyp = parallelogram_hypothesis(shape, sel)
        dh = det(build_h_matrix(shape, sel))
        de = det(build_e_matrix(shape, sel))
        assert rep == VerificationReport(
            n=shape.n,
            alpha=shape.alpha,
            beta=shape.beta,
            a_set=sel.a_set,
            b_set=sel.b_set,
            hypothesis_ok=hyp.ok,
            violating_pairs=hyp.violations,
            det_h=dh,
            det_e=de,
            equal=dh == de,
            isolated_points=shape.isolated_points,
            row_connected=shape.row_connected,
        ), (shape, sel)
    buckets = Counter((rep.hypothesis_ok, rep.equal) for rep in reports)
    assert (summary.holds_equal, summary.fails_equal, summary.fails_unequal, summary.holds_unequal) == (
        buckets[True, True], buckets[False, True], buckets[False, False], buckets[True, False]
    )
    _, hyp_only = _sweep_reports(3, 3, hypothesis_only=True)
    assert hyp_only == [rep for rep in reports if rep.hypothesis_ok]


@pytest.mark.parametrize("memo_keys", [identity.SWEEP_MEMO_KEYS, 40])
def test_sweep_minors_are_equal_exactly_when_identical(monkeypatch, memo_keys):
    # a sweep case is equal when its two interned minors are one object; a
    # value that escaped the shared table, or outlived one of its clears,
    # would be equal without being identical
    clears = []
    real_clear = identity.SharedMinors.clear

    def counted(self):
        clears.append(len(self.memo))
        real_clear(self)

    monkeypatch.setattr(identity, "SWEEP_MEMO_KEYS", memo_keys)
    monkeypatch.setattr(identity.SharedMinors, "clear", counted)
    seen = Counter()

    def per_shape(check, cases):
        for _, _, dh, de in cases:
            assert (dh is de) == (dh == de), (check.shape, dh, de)
            seen[dh is de] += 1

    summary = run_sweep(3, 3, per_shape=per_shape)
    assert sum(seen.values()) == summary.total == 13310
    assert seen[True] == summary.holds_equal + summary.fails_equal == 10476 + 2041
    if memo_keys == 40:
        assert len(clears) > 2 * 3 * 2


@pytest.mark.parametrize(
    "hypothesis_only, buckets",
    [(False, (13310, 10476, 2041, 793, 0)), (True, (10476, 10476, 0, 0, 0))],
)
def test_sweep_checks_the_hypothesis_once_per_case(monkeypatch, hypothesis_only, buckets):
    calls = []

    def counted(shape, sel):
        calls.append(sel)
        return parallelogram_hypothesis(shape, sel)

    monkeypatch.setattr(identity, "parallelogram_hypothesis", counted)
    s = run_sweep(3, 3, hypothesis_only=hypothesis_only)
    assert len(calls) == 13310
    assert (s.total, s.holds_equal, s.fails_equal, s.fails_unequal, s.holds_unequal) == buckets


def test_hypothesis_only_sweep_reads_no_minor_of_a_failing_case(monkeypatch):
    reads = []

    class SpyCheck(identity.ShapeCheck):
        def __init__(self, shape, *shared):
            super().__init__(shape, *shared)
            for side in ("minor_h", "minor_e"):
                def spy(rows, cols, side=side, minor=getattr(self, side)):
                    reads.append((shape, side, rows, cols))
                    return minor(rows, cols)

                setattr(self, side, spy)

    monkeypatch.setattr(identity, "ShapeCheck", SpyCheck)
    summary = run_sweep(2, 2, hypothesis_only=True)
    failing = set()
    for shape, sel in _sweep_cases(2, 2):
        if not parallelogram_hypothesis(shape, sel).ok:
            a_set, b_set, a_comp, b_comp = sel.masks
            failing |= {(shape, "minor_h", a_set, b_set), (shape, "minor_e", a_comp, b_comp)}
    assert failing
    assert len(reads) == 2 * summary.total
    assert not failing & set(reads)
