import copy
import math
import pickle
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from skewlgv import poly
from skewlgv.poly import (
    MissingVariableError,
    Polynomial,
    e_poly,
    h_poly,
    newton_residual,
    qbinom,
)

X1 = Polynomial.variable(1)
X2 = Polynomial.variable(2)
X3 = Polynomial.variable(3)
Q = Polynomial.q()
ONE = Polynomial.one()
ZERO = Polynomial.zero()


# --- independent oracle: Gaussian coefficient by its product formula -------


def poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of univariate integer coefficient lists."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        assert c % den[-1] == 0
        q = c // den[-1]
        out[k] = q
        for i, d in enumerate(den):
            num[k + i] -= q * d
    assert all(c == 0 for c in num)
    return out


def poly_mul_lists(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def qbinom_oracle(n: int, k: int) -> list[int]:
    """[n choose k]_q as coefficient list, via prod (1-q^(n-k+i))/(1-q^i)."""
    num = [1]
    den = [1]
    for i in range(1, k + 1):
        num = poly_mul_lists(num, [1] + [0] * (n - k + i - 1) + [-1])
        den = poly_mul_lists(den, [1] + [0] * (i - 1) + [-1])
    return poly_divide_exact(num, den)


def coeff_list(p: Polynomial) -> list[int]:
    """Univariate-in-q polynomial as a coefficient list (constant first)."""
    out = [0] * (p.total_degree() + 1)
    for mono, c in p.terms.items():
        if not mono:
            out[0] += c
        else:
            assert len(mono) == 1 and mono[0][0] == 0
            out[mono[0][1]] += c
    return out


# --- arithmetic basics ------------------------------------------------------


def test_add_identity_and_cancellation():
    p = X1 * X2 + 3 * X3
    assert ZERO + p == p
    assert X1 + (-X1) == ZERO
    assert not (X1 - X1)


def test_cancelling_results_are_the_shared_zero():
    assert X1 - X1 is ZERO
    assert (X1 + 2 * X2) + (-2 * X2 - X1) is ZERO
    assert -ZERO is ZERO
    assert -(X1 - X1) is ZERO
    assert ZERO * 3 is ZERO


def test_constructor_without_terms_is_the_shared_zero():
    assert Polynomial({}) is ZERO
    assert Polynomial() is ZERO
    assert Polynomial({((1, 1),): 0}) is ZERO
    # like terms that cancel, the second listing x2 with a zero exponent
    assert Polynomial({((1, 1),): 2, ((1, 1), (2, 0)): -2}) is ZERO
    assert Polynomial({((1, 1),): 2, ((1, 1), (2, 0)): -1}) == X1


@pytest.mark.parametrize("p", [ZERO, ONE, Q * X1 - 3 * X2**2], ids=["zero", "one", "mixed"])
def test_copies_and_pickles_rebuild_through_the_constructor(p):
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and str(twin) == str(p)
        assert (twin is ZERO) == (p is ZERO)
    assert str(ZERO) == "0" and not ZERO


def test_add_merges_coefficients():
    assert (X1 + X2) + X2 == X1 + 2 * X2


def test_mul_basics():
    p = X1 + 2 * X2
    assert ONE * p == p
    assert (X1 + X2) * (X1 - X2) == X1 * X1 - X2 * X2
    assert ZERO * p == ZERO


def test_power():
    assert (X1 + X2) ** 0 == ONE
    assert (X1 + X2) ** 2 == X1**2 + 2 * X1 * X2 + X2**2
    with pytest.raises(ValueError):
        X1 ** (-1)


small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def polynomials(draw):
    nterms = draw(st.integers(min_value=0, max_value=4))
    p = ZERO
    for _ in range(nterms):
        c = draw(small_ints)
        e1 = draw(st.integers(min_value=0, max_value=3))
        e2 = draw(st.integers(min_value=0, max_value=3))
        p = p + c * X1**e1 * X2**e2
    return p


@settings(max_examples=120, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials())
def test_eq_means_term_maps_equal(p, q):
    assert (p == q) == (dict(p.terms) == dict(q.terms))
    if p == q:
        assert hash(p) == hash(q)


@pytest.mark.parametrize("c", [0, 1, -7, 2**70])
def test_constant_hashes_like_its_int(c):
    for p in (Polynomial.integer(c), Polynomial({((1, 0), (3, 0)): c})):
        assert p == c
        assert hash(p) == hash(c)
    assert {c: "found"}[Polynomial.integer(c)] == "found"


def test_equal_polynomials_built_differently_hash_alike():
    built = [
        Polynomial({((2, 1), (1, 2), (1, 1)): 2, ((0, 1), (3, 1)): -1}),
        (2 * X1**3) * X2 - Q * X3,
        X1**3 * X2 + (X1 * X1**2 * X2 - Q * X3),
    ]
    for p in built[1:]:
        assert p == built[0]
        assert hash(p) == hash(built[0])


def test_constructor_canonicalizes_monomials():
    swapped = Polynomial({((2, 1), (1, 1)): 1})
    assert swapped == X1 * X2
    assert hash(swapped) == hash(X1 * X2)
    assert str(swapped) == "x1*x2"
    assert Polynomial({((1, 0),): 3}) == 3
    assert hash(Polynomial({((1, 0),): 3})) == hash(Polynomial.integer(3))
    repeated = Polynomial({((1, 2), (1, 1)): 1})
    assert repeated == X1**3
    assert str(repeated) == "x1^3"
    # monomials that coincide once canonical add, and cancel to zero
    assert Polynomial({((2, 1), (1, 1)): 2, ((1, 1), (2, 1)): 3}) == 5 * X1 * X2
    assert not Polynomial({((1, 1),): 1, ((1, 1), (2, 0)): -1})
    assert Polynomial({(): 0}) == ZERO


@pytest.mark.parametrize("monomial", [((-1, 1),), ((1, -2),)])
def test_constructor_rejects_negative_index_or_exponent(monomial):
    with pytest.raises(ValueError):
        Polynomial({monomial: 1})


@pytest.mark.parametrize("coefficient", [1.5, 2.0, Fraction(1, 2)])
def test_constructor_rejects_non_integer_coefficient(coefficient):
    with pytest.raises(TypeError):
        Polynomial({((1, 1),): coefficient})


@pytest.mark.parametrize("p", [X1 + 2 * X2 * Q, ZERO], ids=["nonzero", "zero"])
def test_product_by_shared_one_is_the_other_operand(p):
    assert p * ONE is p
    assert ONE * p is p


# --- symmetric polynomial constructors --------------------------------------


def test_h_poly_conventions():
    assert h_poly(0, 1, 0) == ONE
    assert h_poly(3, 1, 0) == ZERO
    assert h_poly(-2, 1, 3) == ZERO
    assert h_poly(1, 2, 4) == X2 + X3 + Polynomial.variable(4)
    assert h_poly(2, 2, 2) == X2**2


def test_e_poly_conventions():
    assert e_poly(0, 5, 2) == ONE
    assert e_poly(2, 1, 3) == X1 * X2 + X1 * X3 + X2 * X3
    assert e_poly(4, 1, 3) == ZERO
    assert e_poly(-1, 1, 3) == ZERO


@pytest.mark.parametrize("d", range(6))
@pytest.mark.parametrize("lo,hi", [(1, 1), (1, 3), (2, 5), (3, 7), (1, 5)])
def test_h_term_count_at_ones(d, lo, hi):
    width = hi - lo + 1
    p = h_poly(d, lo, hi)
    ones = {v: 1 for v in p.variables()}
    assert p.evaluate(ones) == math.comb(width + d - 1, d)


@pytest.mark.parametrize("d", range(6))
@pytest.mark.parametrize("lo,hi", [(1, 1), (1, 3), (2, 5), (3, 7), (1, 5)])
def test_e_count_at_ones(d, lo, hi):
    width = hi - lo + 1
    p = e_poly(d, lo, hi)
    ones = {v: 1 for v in p.variables()}
    assert p.evaluate(ones) == math.comb(width, d)


# --- substitution -----------------------------------------------------------


def test_substitute_direct():
    p = X1 + X2
    assert p.substitute({1: 1, 2: Q}) == ONE + Q


@pytest.mark.parametrize("n, k", [(n, k) for n in range(9) for k in range(n + 1)])
def test_substitute_q_powers_gives_gaussian(n, k):
    # the specialisation x_i = q^(i-1) of h_k in n-k+1 variables enumerates
    # k-multisets by weight: an independent definition of [n, k]
    p = h_poly(k, 1, n - k + 1)
    got = p.substitute({i: Q ** (i - 1) for i in range(1, n - k + 2)})
    assert got == qbinom(n, k)
    if (n, k) == (2, 1):
        assert got == ONE + Q


def test_substitute_all_ones_counts_terms():
    p = e_poly(2, 1, 3)
    assert p.substitute({1: 1, 2: 1, 3: 1}) == Polynomial.integer(3)


def test_substitute_missing_variable():
    with pytest.raises(MissingVariableError):
        (X1 + X2).substitute({1: ONE})


# --- Gaussian coefficients ---------------------------------------------------


def test_qbinom_edges():
    for n in range(6):
        assert qbinom(n, 0) == ONE
        assert qbinom(n, n) == ONE
    assert qbinom(3, -1) == ZERO
    assert qbinom(3, 4) == ZERO


def test_qbinom_small_values():
    assert qbinom(2, 1) == ONE + Q
    assert coeff_list(qbinom(2, 1)) == qbinom_oracle(2, 1)
    assert qbinom(4, 2) == ONE + Q + 2 * Q**2 + Q**3 + Q**4
    assert coeff_list(qbinom(4, 2)) == qbinom_oracle(4, 2)


@pytest.mark.parametrize("n", range(13))
def test_qbinom_against_product_oracle(n):
    for k in range(n + 1):
        assert coeff_list(qbinom(n, k)) == qbinom_oracle(n, k)


def test_qbinom_deep_row_narrow_column():
    # [n, k] = [n, n - k] and its degree is k(n - k): a narrow coefficient
    # of a deep row is exact, and one past the exponent bound is refused
    # before the table is filled
    line = sum((Q**i for i in range(400)), ZERO)
    assert qbinom(400, 1) == qbinom(400, 399) == line
    with pytest.raises(OverflowError, match="exponent 32942 of q"):
        qbinom(363, 181)


@pytest.mark.parametrize("n", range(9))
def test_qbinom_at_one_is_binomial(n):
    for k in range(n + 1):
        assert qbinom(n, k).substitute({0: 1}) == Polynomial.integer(math.comb(n, k))


# --- Newton's identity -------------------------------------------------------


def test_newton_residual_examples():
    assert newton_residual(1, 3) == ZERO
    assert newton_residual(4, 2) == ZERO
    assert newton_residual(2, 0) == ZERO


def test_newton_residual_grid():
    for d in range(1, 7):
        for nvars in range(7):
            assert newton_residual(d, nvars) == ZERO


def test_newton_residual_rejects_nonpositive_degree():
    with pytest.raises(ValueError):
        newton_residual(0, 2)


# --- text format -------------------------------------------------------------


def test_str_zero_and_constants():
    assert str(ZERO) == "0"
    assert str(Polynomial.integer(-5)) == "-5"
    assert str(ONE) == "1"


def test_str_golden_example():
    p = X1 * X2 * X3 + 2 * X2**2 - 1
    assert str(p) == "x1*x2*x3 + 2*x2^2 - 1"


def test_str_signs_and_elisions():
    assert str(X1 - X2) == "x1 - x2"
    assert str(-X1 + X2) == "-x1 + x2"
    assert str(2 * Q**2 * X1) == "2*q^2*x1"
    assert str(Q) == "q"


def test_str_graded_lex_order():
    p = X2**2 + X1 * X2 + X1**2 + X1 + 1
    assert str(p) == "x1^2 + x1*x2 + x2^2 + x1 + 1"


# --- packed monomials: exponent bound and a tuple oracle ---------------------

# the documented exponent bound: 16-bit fields, the top bit of each a guard
EXPONENT_BOUND = 2**15 - 1


def test_exponent_bound_is_documented_value():
    assert poly.MAX_EXPONENT == EXPONENT_BOUND


@pytest.mark.parametrize("e", [EXPONENT_BOUND + 1, 70000])
def test_constructor_refuses_exponent_past_bound(e):
    with pytest.raises(OverflowError, match=rf"\b{e}\b.*\b{EXPONENT_BOUND}\b"):
        Polynomial({((1, e),): 1})
    # repeated indices add before the bound applies
    with pytest.raises(OverflowError, match=rf"\b{e}\b"):
        Polynomial({((1, e - 1), (1, 1)): 1})


def test_constructor_accepts_exponent_at_bound():
    p = Polynomial({((1, EXPONENT_BOUND - 1), (1, 1)): 1})
    assert str(p) == f"x1^{EXPONENT_BOUND}"
    assert p == X1**EXPONENT_BOUND


@pytest.mark.parametrize("index", [0, 1, 17, 300])
def test_product_and_power_at_and_past_bound(index):
    x = Polynomial.variable(index)
    name = "q" if index == 0 else f"x{index}"
    at_bound = x**EXPONENT_BOUND
    assert str(at_bound) == f"{name}^{EXPONENT_BOUND}"
    assert x ** (EXPONENT_BOUND // 2) * x ** (EXPONENT_BOUND - EXPONENT_BOUND // 2) == at_bound
    past = rf"\b{EXPONENT_BOUND + 1}\b of {name} .*\b{EXPONENT_BOUND}\b"
    with pytest.raises(OverflowError, match=past):
        at_bound * x
    with pytest.raises(OverflowError, match=past):
        x ** (EXPONENT_BOUND + 1)
    # a field past the bound next to fields well within it
    with pytest.raises(OverflowError, match=past):
        (at_bound * X2 + X3) * (x * X2)


def test_product_of_high_index_variables():
    x300 = Polynomial.variable(300)
    assert str(x300 * x300) == "x300^2"
    assert (x300 * X1) * (x300 * Q) == Polynomial({((0, 1), (1, 1), (300, 2)): 1})


def test_product_near_bound_checks_exact_exponents():
    # the OR of the left operand's keys reaches the bound although no
    # exponent of the product passes it
    p = X1 ** (2**14) + X1 ** (2**14 - 1)
    assert p * X1 == X1 ** (2**14 + 1) + X1 ** (2**14)


def test_h_poly_exponent_bound():
    assert h_poly(EXPONENT_BOUND, 2, 2) == X2**EXPONENT_BOUND
    with pytest.raises(OverflowError, match=rf"\b{EXPONENT_BOUND + 1}\b of x2\b"):
        h_poly(EXPONENT_BOUND + 1, 2, 3)


def oracle_canonical(pairs) -> tuple:
    exps: dict[int, int] = {}
    for v, e in pairs:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def oracle_clean(terms: dict) -> dict:
    return {m: c for m, c in terms.items() if c}


def oracle_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return oracle_clean(out)


def oracle_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = oracle_canonical(m1 + m2)
            out[m] = out.get(m, 0) + c1 * c2
    return oracle_clean(out)


def oracle_pow(a: dict, k: int) -> dict:
    out = {(): 1}
    for _ in range(k):
        out = oracle_mul(out, a)
    return out


def check_against_oracle(compute, expected: dict) -> None:
    """compute() gives the oracle's terms, or raises OverflowError exactly
    when some exponent of the oracle's result passes the bound."""
    if any(e > EXPONENT_BOUND for m in expected for _, e in m):
        with pytest.raises(OverflowError):
            compute()
    else:
        got = compute()
        assert dict(got.terms) == expected
        assert len(got.terms) == len(expected)
        if not expected:
            assert got is ZERO


variable_indices = st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 45))
exponents = st.one_of(
    st.integers(1, 3),
    st.integers(EXPONENT_BOUND // 2 - 2, EXPONENT_BOUND // 2 + 2),
    st.integers(EXPONENT_BOUND - 2, EXPONENT_BOUND),
)
oracle_terms = st.dictionaries(
    st.dictionaries(variable_indices, exponents, max_size=3).map(
        lambda exps: tuple(sorted(exps.items()))
    ),
    st.one_of(small_ints, st.just(2**70)),
    max_size=4,
).map(oracle_clean)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(oracle_terms, oracle_terms, st.integers(0, 3), st.lists(oracle_terms, max_size=5), small_ints)
def test_arithmetic_against_tuple_oracle(a, b, k, summands, c):
    pa, pb = Polynomial(a), Polynomial(b)
    assert dict(pa.terms) == a
    assert Polynomial(pa.terms) == pa
    check_against_oracle(lambda: pa * pb, oracle_mul(a, b))
    check_against_oracle(lambda: pa + pb, oracle_add(a, b))
    check_against_oracle(lambda: pa - pb, oracle_add(a, b, -1))
    check_against_oracle(lambda: pa**k, oracle_pow(a, k))
    # the int forms and negation, each one fold of the sum kernel
    constant = oracle_clean({(): c})
    check_against_oracle(lambda: -pa, oracle_add({}, a, -1))
    check_against_oracle(lambda: c - pa, oracle_add(constant, a, -1))
    check_against_oracle(lambda: pa - c, oracle_add(a, constant, -1))
    check_against_oracle(lambda: c + pa, oracle_add(a, constant))
    check_against_oracle(lambda: pa * c, oracle_mul(a, constant))
    check_against_oracle(lambda: c * pa, oracle_mul(a, constant))
    # many summands into one term map, and a cancelling list among them
    expected = reduce(oracle_add, summands, {})
    check_against_oracle(lambda: Polynomial.sum(map(Polynomial, summands)), expected)
    check_against_oracle(lambda: Polynomial.sum([pa, pb, -pa, -pb]), {})


def test_sum_is_zero_by_identity_and_leaves_its_summands_unchanged():
    assert Polynomial.sum([]) is ZERO
    assert Polynomial.sum(iter([X1, -X1])) is ZERO
    assert Polynomial.sum([ZERO, ZERO]) is ZERO
    p, q, r = 2 * X1 + X2, X1 * X2 - X1, -2 * X1 - Q**3
    before = [(dict(s.terms), str(s)) for s in (p, q, r)]
    total = Polynomial.sum([p, q, r])
    assert str(total) == "-q^3 + x1*x2 - x1 + x2"
    # the first summand is adopted as it stands and copied only when a
    # second one comes
    assert [(dict(s.terms), str(s)) for s in (p, q, r)] == before
    assert Polynomial.sum([p]) is p
    assert Polynomial.sum([ZERO, p, ZERO]) is p


single_terms = st.tuples(
    st.dictionaries(st.integers(0, 45), exponents, max_size=3).map(
        lambda exps: tuple(sorted(exps.items()))
    ),
    st.one_of(st.sampled_from([-1, 2, -3, 2**70, -(2**70)]), st.integers(-999, 999)).filter(
        bool
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(single_terms, single_terms)
@example(((), -2), (((0, 3),), 5))
def test_monomial_product_equals_tuple_form(a, b):
    # one term times one term gives the tuple-form constructor's product;
    # past the bound it names the product's largest exponent, as the
    # general product does
    (m1, c1), (m2, c2) = a, b
    v, e = max(oracle_canonical(m1 + m2), key=lambda ve: ve[1], default=(0, 0))
    if e > EXPONENT_BOUND:
        name = "q" if v == 0 else f"x{v}"
        with pytest.raises(OverflowError, match=rf"^exponent {e} of {name} exceeds"):
            Polynomial({m1: c1}) * Polynomial({m2: c2})
    else:
        assert Polynomial({m1: c1}) * Polynomial({m2: c2}) == Polynomial({m1 + m2: c1 * c2})


def test_monomial_product_at_and_past_bound():
    half = Polynomial({((1, 2**14),): 1})
    assert Polynomial({((1, 2**14 - 1),): 1}) * half == X1**EXPONENT_BOUND
    with pytest.raises(OverflowError) as exc:
        half * half
    assert str(exc.value) == f"exponent {2**15} of x1 exceeds the bound {EXPONENT_BOUND}"
    # the same past a run of 1998 empty fields
    x2000 = Polynomial.variable(2000)
    with pytest.raises(OverflowError) as exc:
        (X1 * x2000 ** 2**14) * x2000 ** 2**14
    assert str(exc.value) == f"exponent {2**15} of x2000 exceeds the bound {EXPONENT_BOUND}"


def test_guard_bits_over_many_fields_near_the_bound():
    # the guard mask is kept per field count; each count finds the guard
    # bits of every one of its fields and no others
    for fields in range(1, 301):
        full = (1 << (fields * poly.FIELD_BITS)) - 1
        assert poly._guard_bits(full) == sum(1 << (16 * v + 15) for v in range(fields))
    # a monomial of 200 fields, each at the bound: one more power of any
    # variable names that variable, through both products
    fields = 200
    below = Polynomial({tuple((v, EXPONENT_BOUND - 1) for v in range(fields)): 1})
    ones = Polynomial({tuple((v, 1) for v in range(fields)): 1})
    at_bound = below * ones
    assert at_bound == Polynomial({tuple((v, EXPONENT_BOUND) for v in range(fields)): 1})
    assert (below + 1) * ones == at_bound + ones
    for v in (0, 1, 100, fields - 1):
        name = "q" if v == 0 else f"x{v}"
        text = f"exponent {EXPONENT_BOUND + 1} of {name} exceeds the bound {EXPONENT_BOUND}"
        for left in (at_bound, at_bound + 1):
            with pytest.raises(OverflowError) as exc:
                left * Polynomial.variable(v)
            assert str(exc.value) == text


# --- text and display order against a tuple oracle ----------------------------


def oracle_sorted_terms(terms) -> list:
    """The terms in display order, from the tuple form alone: descending
    degree, then [(v, -e), ...] ascending."""
    return sorted(
        terms.items(),
        key=lambda t: (-sum(e for _, e in t[0]), [(v, -e) for v, e in t[0]]),
    )


def oracle_str(terms) -> str:
    pieces = []
    for m, c in oracle_sorted_terms(terms):
        body = "*".join(
            ("q" if v == 0 else f"x{v}") + (f"^{e}" if e > 1 else "") for v, e in m
        )
        mag = abs(c)
        if pieces:
            pieces.append(" - " if c < 0 else " + ")
        elif c < 0:
            pieces.append("-")
        pieces.append(str(mag) if not body else body if mag == 1 else f"{mag}*{body}")
    return "".join(pieces) or "0"


text_exponents = st.one_of(
    st.sampled_from([1, 2, 255, 256, EXPONENT_BOUND]), st.integers(1, EXPONENT_BOUND)
)
text_monomials = st.dictionaries(
    # q alone, q with low x's, and keys spanning up to 30 fields
    st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 29)),
    text_exponents,
    max_size=5,
).map(lambda exps: tuple(sorted(exps.items())))
text_coefficients = st.one_of(
    st.sampled_from([1, -1, 2, -2, 10, -10**20, 10**20]), st.integers(-999, 999)
)
text_polynomials = st.dictionaries(text_monomials, text_coefficients, max_size=8).map(
    lambda terms: Polynomial(oracle_clean(terms))
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text_polynomials)
@example(ZERO)
@example(Polynomial.integer(-(10**20)))
@example(Q)
@example(-(Q**2) * X1 + Q * X2**2 + 3)
@example(Polynomial.variable(20) ** 256 - 12 * Q**255 + X1 * X2)
@example(X1**EXPONENT_BOUND * Polynomial.variable(29) - X1**EXPONENT_BOUND)
def test_text_and_order_against_tuple_oracle(p):
    assert p.sorted_terms() == oracle_sorted_terms(p.terms)
    assert str(p) == oracle_str(p.terms)


# a few terms over up to 2001 variables: each key spans up to 2001 fields,
# most of them empty
WIDE = 2000
wide_terms = st.dictionaries(
    st.dictionaries(
        st.one_of(st.integers(0, 3), st.integers(0, WIDE)), st.integers(1, 3), max_size=3
    ).map(lambda exps: tuple(sorted(exps.items()))),
    text_coefficients,
    max_size=6,
).map(oracle_clean)
WIDE_VALUES = {v: v % 7 - 3 for v in range(WIDE + 1)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wide_terms)
@example({((1, 1),): 1, ((WIDE, 2),): -1, ((0, 1), (WIDE, 1)): 5, (): 2})
def test_wide_sparse_polynomials_against_tuple_oracle(terms):
    p = Polynomial(terms)
    order = oracle_sorted_terms(terms)
    assert p.sorted_terms() == order
    assert str(p) == oracle_str(terms)
    assert list(p.terms) == [m for m, _ in order]
    assert dict(p.terms) == terms
    assert p.variables() == {v for m in terms for v, _ in m}
    assert p.total_degree() == max((sum(e for _, e in m) for m in terms), default=0)
    assert p.evaluate(WIDE_VALUES) == sum(
        c * math.prod(WIDE_VALUES[v] ** e for v, e in m) for m, c in terms.items()
    )
    # reversing the variables, q <-> x2000, x1 <-> x1999, ...
    mirror = {v: Polynomial.variable(WIDE - v) for v in range(WIDE + 1)}
    assert p.substitute(mirror) == Polynomial(
        {oracle_canonical((WIDE - v, e) for v, e in m): c for m, c in terms.items()}
    )


# --- the multiply-accumulate kernel -----------------------------------------


def sum_products(triples):
    """The sum of sign * p * q over the triples, folded one at a time."""
    acc = ZERO
    for sign, p, q in triples:
        acc = Polynomial.fold_product(acc, sign, p, q)
    return Polynomial.folded(acc)


def test_fold_product_shares_zero_and_passes_a_first_product_by_one_through():
    p = X1 + 2 * X2 * Q
    assert sum_products([]) is ZERO
    assert sum_products([(1, p, ONE)]) is p
    assert sum_products([(1, ONE, p)]) is p
    assert sum_products([(1, ZERO, X1), (1, ONE, p), (-1, X1, ZERO)]) is p
    assert sum_products([(-1, p, ONE)]) == -p
    assert sum_products([(1, p, ONE), (-1, ONE, p)]) is ZERO
    assert sum_products([(1, p, p), (-1, p, p)]) is ZERO
    assert sum_products([(1, p, ONE), (1, X1, X2)]) == p + X1 * X2
    # a folded term map is updated in place, a polynomial never
    acc = Polynomial.fold_product(ZERO, 1, p, ONE)
    acc = Polynomial.fold_product(acc, 1, X1, X2)
    assert acc is Polynomial.fold_product(acc, -1, p, Q)
    assert p == X1 + 2 * X2 * Q


# an operand: oracle terms, or None for the shared one
kernel_operands = st.one_of(oracle_terms, st.none())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from([1, -1]), kernel_operands, kernel_operands), max_size=4))
def test_fold_product_against_tuple_oracle(triples):
    """The kernel's sum, or OverflowError exactly when some pair's own
    product passes the bound, even where the sum would cancel it."""
    expected: dict = {}
    overflow = False
    for sign, a, b in triples:
        product = oracle_mul({(): 1} if a is None else a, {(): 1} if b is None else b)
        overflow |= any(e > EXPONENT_BOUND for m in product for _, e in m)
        expected = oracle_add(expected, product, sign)
    products = [
        (sign, ONE if a is None else Polynomial(a), ONE if b is None else Polynomial(b))
        for sign, a, b in triples
    ]
    if overflow:
        with pytest.raises(OverflowError):
            sum_products(products)
        return
    got = sum_products(products)
    assert dict(got.terms) == expected
    if not expected:
        assert got is ZERO
