import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from skewlgv.detring import (
    DimensionGuardError,
    NonSquareMatrixError,
    SharedMinors,
    SizeMismatchError,
    det,
    det_naive,
    int_det,
    jacobi_check,
    matmul,
    minors,
)
from skewlgv.poly import Polynomial, e_poly, h_poly, qbinom
from support import identity_matrix, int_cofactor_matrix

X1 = Polynomial.variable(1)
X2 = Polynomial.variable(2)
ONE = Polynomial.one()
ZERO = Polynomial.zero()


def P(c):
    return Polynomial.integer(c)


def test_det_empty_matrix_is_one():
    assert det([]) == ONE
    assert det_naive([]) == ONE


def test_det_upper_triangular():
    m = [[P(1), P(1)], [P(0), P(1)]]
    assert det(m) == ONE


def test_det_2x2_formula():
    m = [[X1, X2], [ONE, X1]]
    assert det_naive(m) == X1**2 - X2
    assert det(m) == X1**2 - X2


def test_det_nonsquare_rejected():
    # a wide matrix, then a ragged one with as many rows as its first row
    for m in ([[ONE, ZERO]], [[ONE, ZERO], [ONE]]):
        with pytest.raises(NonSquareMatrixError):
            det(m)
        with pytest.raises(NonSquareMatrixError):
            det_naive(m)
    for rows in ([[1, 0]], [[1, 0], [1]]):
        with pytest.raises(NonSquareMatrixError):
            int_det(rows)


def test_det_naive_dimension_guard():
    n = 9
    m = identity_matrix(n)
    with pytest.raises(DimensionGuardError):
        det_naive(m)


def test_det_inverse_pair_h_matrix():
    # 3x3 matrix whose rows hold shifted h's; its determinant collapses to
    # the top elementary polynomial, checked against the cofactor oracle
    m = [
        [h_poly(1, 3, 3), h_poly(2, 3, 3), ZERO],
        [ONE, h_poly(1, 1, 3), h_poly(2, 1, 1)],
        [ZERO, ONE, h_poly(1, 1, 1)],
    ]
    expected = Polynomial.variable(1) * Polynomial.variable(2) * Polynomial.variable(3)
    assert det_naive(m) == expected
    assert det(m) == expected
    assert det(m) == e_poly(3, 1, 3)


def test_det_naive_2x2_e_matrix():
    m = [
        [e_poly(3, 1, 4), e_poly(1, 1, 3)],
        [e_poly(4, 1, 4), e_poly(2, 1, 3)],
    ]
    expected = e_poly(3, 1, 4) * e_poly(2, 1, 3) - e_poly(1, 1, 3) * e_poly(4, 1, 4)
    assert det_naive(m) == expected
    assert det(m) == expected


def random_sparse_poly(rng, nvars=3, max_terms=3):
    p = ZERO
    for _ in range(rng.randint(0, max_terms)):
        c = rng.randint(-3, 3)
        mono = ONE
        for v in range(1, nvars + 1):
            mono = mono * Polynomial.variable(v) ** rng.randint(0, 2)
        p = p + c * mono
    return p


def random_matrix(rng, n):
    return [[random_sparse_poly(rng) for _ in range(n)] for _ in range(n)]


def test_det_matches_naive_on_random_matrices():
    rng = random.Random(20250810)
    for n in range(6):
        for _ in range(8):
            m = random_matrix(rng, n)
            assert det(m) == det_naive(m)


def test_det_alternating_under_row_swap():
    rng = random.Random(99)
    for n in (3, 4):
        for _ in range(6):
            rows = [[random_sparse_poly(rng) for _ in range(n)] for _ in range(n)]
            d = det(rows)
            rows[0], rows[1] = rows[1], rows[0]
            assert det(rows) == -d


def test_det_commutes_with_integer_specialisation():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(5):
            m = random_matrix(rng, n)
            point = {v: rng.randint(-3, 3) for v in range(1, 4)}
            lhs = det(m).evaluate(point) if det(m) else 0
            rows = []
            for r in range(n):
                rows.append(
                    [
                        m[r][c].evaluate(point) if m[r][c] else 0
                        for c in range(n)
                    ]
                )
            assert lhs == int_det(rows)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).map(lambda e: ((1, e[0]), (2, e[1]))),
    st.integers(-3, 3),
    max_size=3,
).map(Polynomial)


@st.composite
def square_grids(draw):
    """A row-major n x n grid, n <= 5, of small integers or polynomials,
    with the matching ring's one and zero."""
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        return n, draw(st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n)), 1, 0
    return n, draw(st.lists(small_polys, min_size=n * n, max_size=n * n)), ONE, ZERO


@settings(max_examples=60, deadline=None, derandomize=True)
@given(square_grids())
def test_minors_match_det_naive_of_every_submatrix(grid):
    n, entries, one, zero = grid
    minor = minors(entries, n, one, zero)
    assert minor(0, 0) == one
    full = [
        [Polynomial.integer(x) if isinstance(x, int) else x for x in entries[r * n : (r + 1) * n]]
        for r in range(n)
    ]
    for k in range(n + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[full[r][c] for c in cols] for r in rows]
                value = minor(sum(1 << r for r in rows), sum(1 << c for c in cols))
                assert value == det_naive(sub), (rows, cols)


# entries in q, x1 and x2 with signed coefficients, the shared zero and one
# among them
kernel_entries = st.one_of(
    st.sampled_from([ZERO, ONE]),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)).map(
            lambda e: ((0, e[2]), (1, e[0]), (2, e[1]))
        ),
        st.integers(-3, 3),
        max_size=3,
    ).map(Polynomial),
)


@st.composite
def cancelling_grids(draw):
    """A row-major n x n polynomial grid, n <= 5; some rows repeat or
    negate an earlier row, so that many of its minors cancel to zero."""
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(kernel_entries, min_size=n, max_size=n)) for _ in range(n)]
    for r in range(1, n):
        copy = draw(st.sampled_from([None, 1, -1]))
        if copy is not None:
            src = rows[draw(st.integers(0, r - 1))]
            rows[r] = [x if copy > 0 else -x for x in src]
    return n, [x for row in rows for x in row]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cancelling_grids(), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_minors_of_polynomial_grids_match_det_naive(grid, point):
    """Every minor equals the Leibniz sum and, at an integer point, the
    integer determinant of the evaluated submatrix; a nonzero 1 x 1 minor
    is its entry object and a zero minor is the shared zero."""
    n, entries = grid
    minor = minors(entries, n, ONE, ZERO)
    at = dict(enumerate(point))
    for k in range(1, n + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[entries[r * n + c] for c in cols] for r in rows]
                value = minor(sum(1 << r for r in rows), sum(1 << c for c in cols))
                assert value == det_naive(sub), (rows, cols)
                assert value.evaluate(at) == int_det([[x.evaluate(at) for x in row] for row in sub])
                if not value:
                    assert value is ZERO
                elif k == 1:
                    assert value is sub[0][0]


class _BoomAt3(list):
    """A 2 x 2 grid whose entry 3, the minor under entry 0, may not be read."""

    def __getitem__(self, k):
        if k == 3:
            raise AssertionError("read the minor under a zero entry")
        return super().__getitem__(k)


INT_ZEROS = {"literal": 0, "comb": math.comb(2, 3), "difference": 5 - 5, "parsed": int("-0"),
             "big difference": 10**40 - 10**40}
POLY_ZEROS = {
    "integer": lambda: Polynomial.integer(0),
    "x - x": lambda: X1 - X1,
    "no terms": lambda: Polynomial({}),
    "h_poly": lambda: h_poly(2, 3, 2),
    "e_poly": lambda: e_poly(3, 1, 2),
    "qbinom": lambda: qbinom(2, 3),
}


@pytest.mark.parametrize("name", INT_ZEROS)
def test_int_minors_skip_zero_entries(name):
    minor = minors(_BoomAt3([INT_ZEROS[name], 3, 2, None]), 2, 1, 0)
    assert minor(0b11, 0b11) == -6


@pytest.mark.parametrize("name", POLY_ZEROS)
def test_polynomial_minors_skip_zero_entries_by_identity(monkeypatch, name):
    zero = POLY_ZEROS[name]()
    assert zero is ZERO

    def no_truth_test(p):
        raise AssertionError("Polynomial.__bool__ called")

    monkeypatch.setattr(Polynomial, "__bool__", no_truth_test)
    minor = minors(_BoomAt3([zero, P(3), X1, None]), 2, ONE, ZERO)
    assert minor(0b11, 0b11) == -3 * X1


def test_shared_minors_refuse_a_part_wider_than_its_field():
    shared = SharedMinors(2, 2)
    assert shared.pack([3, 1], 0) == 3 | 1 << 2
    with pytest.raises(ValueError, match="do not fit in 2 bits"):
        minors([ONE] * 4, 2, ONE, ZERO, shared, ([1, 4], [0, 0]))


def test_cancelling_minor_is_the_shared_zero():
    assert det([[X1, X2], [X1, X2]]) is ZERO
    assert det([[X1 + X2, ONE], [X1 * X1 + X1 * X2, X1]]) is ZERO


X3 = Polynomial.variable(3)
BIG = X1**20000
PAST_BOUND = "exponent {} of {} exceeds the bound 32767"

# Each grid's determinant has a product past the exponent bound; the error
# names the first such product in expansion order.  In "first of two" a
# later sub-minor passes the bound on its own (its text would name 34000)
# and is never reached.
OVERFLOW_GRIDS = {
    "monomials": ([[BIG, ZERO], [ZERO, BIG]], PAST_BOUND.format(40000, "x1")),
    "sums": ([[BIG + X2, X3], [X2, BIG + X3]], PAST_BOUND.format(40000, "x1")),
    "three rows": (
        [[X1**11000 + X2, X3, ONE], [X2, X1**11000 + X3, X2], [X3, ONE, X1**11000 + ONE]],
        PAST_BOUND.format(33000, "x1"),
    ),
    "q": (
        [[Polynomial.q() ** 20000 + X1, ONE], [X2, Polynomial.q() ** 20000 - X1]],
        PAST_BOUND.format(40000, "q"),
    ),
    "first of two": (
        [[BIG + X2, ONE, ZERO], [X1**17000, X1**13000, ZERO], [ZERO, ZERO, X1**17000]],
        PAST_BOUND.format(50000, "x1"),
    ),
    # the sub-minor's first product is by one, its second is not
    "product by one first": (
        [[X1**32700 * X2**32700, ZERO, ZERO], [ZERO, ONE, X2**100], [ZERO, X3, X1**100]],
        PAST_BOUND.format(32800, "x1"),
    ),
    # in the 3 x 3 sub-minor x1^800 comes, cancels and comes back, after
    # x1^900
    "cancelled and back": (
        [
            [X1**32000, ZERO, ZERO, ZERO],
            [ZERO, X1**800 + X1**900, X1**800 - X2, X1**800 + X3],
            [ZERO, ONE, ONE, ZERO],
            [ZERO, ZERO, ONE, ONE],
        ],
        PAST_BOUND.format(32900, "x1"),
    ),
}


@pytest.mark.parametrize("name", OVERFLOW_GRIDS)
def test_det_past_exponent_bound_names_the_first_product(name):
    grid, text = OVERFLOW_GRIDS[name]
    with pytest.raises(OverflowError) as exc:
        det(grid)
    assert str(exc.value) == text


def test_det_and_matmul_read_int_entries_as_constants():
    grid = [[2, X1, 0], [X1, 1, X2], [-3, X2 * X1, 1]]
    assert det(grid) == det_naive(grid)
    assert det([[5]]) == Polynomial.integer(5)
    assert det([[0]]) is ZERO
    other = [[1, X2, 0], [X1, 0, 2], [0, -1, X2]]
    product = matmul(grid, other)
    assert product == tuple(
        tuple(sum((grid[i][k] * other[k][j] for k in range(3)), ZERO) for j in range(3))
        for i in range(3)
    )
    assert det(product) == det_naive(grid) * det_naive(other)


def test_matmul_identity():
    m = ((X1, X2), (ONE, ZERO))
    i2 = identity_matrix(2)
    assert matmul(m, i2) == m
    assert matmul(i2, [list(r) for r in m]) == m


def test_matmul_size_mismatch():
    i2 = identity_matrix(2)
    with pytest.raises(SizeMismatchError):
        matmul([[ONE, ZERO], [ONE]], i2)  # a short row of a
    with pytest.raises(SizeMismatchError):
        matmul(i2, [[ONE, ZERO], [ONE]])  # a ragged b
    with pytest.raises(SizeMismatchError):
        matmul(i2, [[ONE], [ZERO], [ONE]])  # b has more rows than a has columns


# --- integer utilities and the complementary-minor identity ------------------


def leibniz_int_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        term = sign
        for r in range(n):
            term *= rows[r][perm[r]]
        total += term
    return total


def test_int_det_against_leibniz():
    rng = random.Random(3)
    for n in range(6):
        for bound in (4, 2**80):
            for _ in range(10):
                rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
                assert int_det(rows) == leibniz_int_det(rows)


def test_jacobi_identity_matrix():
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert jacobi_check(m, [0], [0])


def test_jacobi_hand_example():
    # det(M_{A,B}) = 2, det(M)^0 = 1, cofactor matrix [[3,0],[0,2]],
    # complement minor 2, sign +1
    m = [[2, 0], [0, 3]]
    assert int_cofactor_matrix(m) == [[3, 0], [0, 2]]
    assert jacobi_check(m, [0], [0])


def test_jacobi_full_sets_trivial():
    m = [[1, 2], [3, 4]]
    assert jacobi_check(m, [0, 1], [0, 1])


def test_jacobi_random_4x4_size2_subsets():
    rng = random.Random(424242)
    pairs = list(itertools.combinations(range(4), 2))
    for _ in range(100):
        m = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        for a in pairs:
            for b in pairs:
                assert jacobi_check(m, a, b)


def test_jacobi_size_mismatch():
    with pytest.raises(SizeMismatchError):
        jacobi_check([[1, 0], [0, 1]], [0], [0, 1])
    with pytest.raises(SizeMismatchError):
        jacobi_check([[1, 0], [0, 1]], [0], [5])
