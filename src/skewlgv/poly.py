"""Exact sparse multivariate polynomials over arbitrary-precision integers.

Variable index 0 is reserved for the distinguished variable q used by the
Gaussian binomial coefficients; ordinary variables x1, x2, ... carry
indices 1, 2, ...

A monomial is stored packed into one non-negative int, its key: the
exponent of variable v sits in bits [v*W, (v+1)*W) with W = FIELD_BITS =
16, so the product of two monomials is the sum of their keys.  A key is as
long as its highest variable index needs; there is no fixed number of
fields.  Every exponent is at most MAX_EXPONENT = 2**15 - 1, which keeps
the top bit of every field (its guard bit) clear in every stored key.  A
sum of two keys therefore never carries from one field into the next, and
an operation whose result would pass the bound raises OverflowError, naming
the exponent and the bound, instead of wrapping.

A polynomial maps keys to nonzero integer coefficients, so two polynomials
are equal exactly when their term maps are equal.  All values are
immutable.  Zero is one object: a polynomial built, summed, negated or
multiplied to no terms is `Polynomial.zero()`.

`Polynomial.fold_product`, the one sum loop, adds sign * p * q into a
term map: one map per determinant minor.  Only a pair whose key ORs' sum
sets a guard bit is multiplied apart and checked key by key.  Cancelled
keys leave the map after each pair, so the first key past the bound is
the one a sum of single products names.  Sums, differences, negation and
products by an int fold into it with a factor of one, and
`Polynomial.sum` folds any number of summands into one term map; only
the product of two monomials takes a path of its own.

Outside this module a monomial is a tuple of (variable index, exponent)
pairs, sorted by variable index, with every exponent positive.  The
constructor accepts that form (in any order, repeats adding), and `terms`
and `sorted_terms` return it, in the display order.

Terms display, in text and in `sorted_terms`, in one order: higher total
degree first, and within one degree the exponent vectors (e_q, e_1, e_2,
...) in descending lexicographic order, so a higher power of q, then of
x1, then of x2, and so on, comes first: ``x1^2 + x1*x2 + x2^2 + x1 + 1``.
The order keeps text output stable for golden tests.  One walk, the only
reader of keys, builds both: one pass per key over its nonzero fields
reads its degree, its place in the order and each of its variable powers
together.  The tuple form, and with it `variables`, `total_degree`,
`evaluate` and `substitute`, is read from the same walk.

`h_poly(d, lo, hi)` and `e_poly(d, lo, hi)` take the variable range x_lo,
..., x_hi as two ints and are the one home of the degree conventions that
every h/e entry relies on.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import lru_cache, reduce
from operator import mul, or_

Monomial = tuple[tuple[int, int], ...]

Q_INDEX = 0

FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


class MissingVariableError(ValueError):
    """A substitution did not assign every variable of the polynomial."""


def _overflow(v: int, e: int) -> OverflowError:
    return OverflowError(
        f"exponent {e} of {_var_text(v)} exceeds the bound {MAX_EXPONENT}"
    )


def _power_key(v: int, e: int) -> int:
    """Key of the monomial x_v^e."""
    if e > MAX_EXPONENT:
        raise _overflow(v, e)
    return e << (v * FIELD_BITS)


def _encode(m: Monomial) -> int:
    """Key of a monomial given as (index, exponent) pairs in any order."""
    exps: dict[int, int] = {}
    for v, e in m:
        if v < 0 or e < 0:
            raise ValueError(f"negative variable index or exponent in {m}")
        exps[v] = exps.get(v, 0) + e
    return sum(_power_key(v, e) for v, e in exps.items())


@lru_cache(maxsize=None)
def _guard_mask(fields: int) -> int:
    """The guard bits of the lowest `fields` fields of a key."""
    ones = ((1 << (fields * FIELD_BITS)) - 1) // _FIELD_MASK
    return ones << (FIELD_BITS - 1)


def _guard_bits(key: int) -> int:
    """The guard bits set in key, over as many fields as key spans."""
    return key & _guard_mask(-(-key.bit_length() // FIELD_BITS))


def _check_exponents(terms: dict[int, int]) -> None:
    """Raise OverflowError if some key holds an exponent past the bound;
    the keys must not have carried from one field into the next."""
    for key in terms:
        if _guard_bits(key):
            ((_, _, powers),) = _display_rows({key: 1}, _POWER_PAIRS)
            raise _overflow(*max(powers, key=lambda ve: ve[1]))


def _var_text(v: int) -> str:
    return "q" if v == Q_INDEX else f"x{v}"


def _power_text(v: int, e: int) -> str:
    return _var_text(v) if e == 1 else f"{_var_text(v)}^{e}"


class LazyGrid(dict):
    """Row-major grid of the given width whose entry k is f(row, col),
    computed on first read."""

    def __init__(self, f: Callable[[int, int], object], width: int):
        super().__init__()
        self.f = f
        self.width = width

    def __missing__(self, k: int):
        value = self[k] = self.f(*divmod(k, self.width))
        return value


# the (v, e) pair and the text of each power x_v^e displayed so far, at
# key v << FIELD_BITS | e; one small entry per power, kept for the process
# like the other caches here
_POWER_PAIRS = LazyGrid(lambda v, e: (v, e), 1 << FIELD_BITS)
_POWER_TEXTS = LazyGrid(_power_text, 1 << FIELD_BITS)


def _display_rows(terms: dict[int, int], pieces: Mapping[int, object]) -> list:
    """(rank, coefficient, pieces) of every term, in the display order; the
    only reader of packed keys.

    One pass per key over its nonzero fields, lowest first, reads its total
    degree, its fields in reverse order (q's on top) and, for each power
    x_v^e in it, pieces[v << FIELD_BITS | e]; a run of empty fields is
    skipped in one shift, found from the key's lowest set bit.  The rank is
    the degree above the reversed fields, padded to the polynomial's span,
    so descending ranks are the display order, and no two terms share a
    rank."""
    shift = -(-max(terms, default=0).bit_length() // FIELD_BITS) * FIELD_BITS
    w, mask, step = FIELD_BITS, _FIELD_MASK, 1 << FIELD_BITS
    rows = []
    for key, c in terms.items():
        degree = reversed_key = base = 0
        powers = []
        while key:
            e = key & mask
            if e:
                key >>= w
                reversed_key = reversed_key << w | e
                degree += e
                powers.append(pieces[base | e])
                base += step
            else:
                # the empty fields below the field of the lowest set bit
                run = ((key & -key).bit_length() - 1) // w
                key >>= run * w
                reversed_key <<= run * w
                base += run << w
        pad = shift - (base >> w) * w
        rows.append((degree << shift | reversed_key << pad, c, powers))
    rows.sort(reverse=True)
    return rows


class _TupleTerms(Mapping):
    """Term map of a polynomial with its keys in tuple form, iterated in the
    display order; a lookup refuses a malformed monomial as the
    constructor does."""

    __slots__ = ("_packed",)

    def __init__(self, packed: dict[int, int]):
        self._packed = packed

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self) -> Iterator[Monomial]:
        return (tuple(m) for _, _, m in _display_rows(self._packed, _POWER_PAIRS))

    def __getitem__(self, m: Monomial) -> int:
        return self._packed[_encode(m)]


class Polynomial:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __new__(cls, terms: Mapping[Monomial, int] | None = None):
        """Polynomial with the given terms; a monomial may list variables in
        any order, repeated or with zero exponents, and like terms add.
        Coefficients must be ints; an exponent past MAX_EXPONENT raises
        OverflowError.  No term left is the shared zero."""
        acc: dict[int, int] = {}
        for m, c in (terms or {}).items():
            if not isinstance(c, int):
                raise TypeError(f"coefficient of {m} is not an int: {c!r}")
            key = _encode(m)
            acc[key] = acc.get(key, 0) + c
        return Polynomial.folded({m: c for m, c in acc.items() if c})

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, which never
        # hands out a second zero nor writes into the shared one
        return Polynomial, (dict(self.sorted_terms()),)

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> "Polynomial":
        # internal: terms already canonical, adopted without copying
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return _ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        return _ONE

    @classmethod
    def integer(cls, c: int) -> "Polynomial":
        if c == 0:
            return _ZERO
        return cls._raw({0: c})

    @classmethod
    def variable(cls, index: int) -> "Polynomial":
        if index < 0:
            raise ValueError(f"variable index must be >= 0, got {index}")
        return _variable_cached(index)

    @classmethod
    def q(cls) -> "Polynomial":
        return cls.variable(Q_INDEX)

    @property
    def terms(self) -> Mapping[Monomial, int]:
        return _TupleTerms(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == Polynomial.integer(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        t = self._terms
        # a constant equals its int, so it hashes like it
        if not t or (len(t) == 1 and 0 in t):
            return hash(t.get(0, 0))
        return hash(frozenset(t.items()))

    def _fold(self, sign: int, other: "Polynomial | int") -> "Polynomial":
        """self + sign * other * 1 by `fold_product`; other an int or a Polynomial."""
        if isinstance(other, int):
            other = Polynomial.integer(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.folded(Polynomial.fold_product(self, sign, other, _ONE))

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        return self._fold(1, other)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _ZERO._fold(-1, self)

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        return self._fold(-1, other)

    def __rsub__(self, other: int) -> "Polynomial":
        if not isinstance(other, int):
            return NotImplemented
        return Polynomial.integer(other)._fold(-1, self)

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        # products by the shared one are common (free lattice steps, the
        # last row of a determinant expansion) and cost nothing
        if other is _ONE:
            return self
        if isinstance(other, int):
            return _ZERO._fold(other, self)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self is _ONE:
            return other
        if not self._terms or not other._terms:
            return _ZERO
        a, b = self._terms, other._terms
        if len(a) == 1 == len(b):
            # monomial times monomial, most products of path weights: one
            # key addition, checked like the general product below
            ((m1, c1),) = a.items()
            ((m2, c2),) = b.items()
            m = m1 + m2
            out = {m: c1 * c2}
            if _guard_bits(m):
                _check_exponents(out)
            return Polynomial._raw(out)
        return Polynomial.folded(Polynomial.fold_product(_ZERO, 1, self, other))

    __rmul__ = __mul__

    @staticmethod
    def fold_product(acc, sign: int, p: "Polynomial", q: "Polynomial"):
        """acc + sign * p * q for an int sign; acc is a Polynomial or a
        term map returned here, which is updated in place.  Into the shared
        zero, a product by one with sign 1 is the other factor."""
        a, b = p._terms, q._terms
        if not a or not b:
            return acc
        if type(acc) is not dict:
            if acc is _ZERO and sign == 1:
                if p is _ONE:
                    return q
                if q is _ONE:
                    return p
            acc = dict(acc._terms)
        if len(a) < len(b):
            a, b = b, a
        # a product by one keeps the other factor's keys, all in bounds
        near_bound = q is not _ONE and _guard_bits(reduce(or_, a) + reduce(or_, b))
        out = {} if near_bound else acc
        get = out.get
        for m2, c2 in b.items():
            c2 *= sign
            for m1, c1 in a.items():
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        if near_bound:
            out = {m: c for m, c in out.items() if c}
            _check_exponents(out)
            return Polynomial.fold_product(acc, 1, Polynomial._raw(out), _ONE)
        if not all(acc.values()):
            for m in [m for m, c in acc.items() if not c]:
                del acc[m]
        return acc

    @staticmethod
    def folded(acc) -> "Polynomial":
        """`fold_product`'s sum as a Polynomial."""
        if type(acc) is dict:
            return Polynomial._raw(acc) if acc else _ZERO
        return acc

    @staticmethod
    def sum(items: Iterable["Polynomial"]) -> "Polynomial":
        """The sum of the polynomials, folded into one term map."""
        acc = _ZERO
        for p in items:
            acc = Polynomial.fold_product(acc, 1, p, _ONE)
        return Polynomial.folded(acc)

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative powers are not defined in this ring")
        result = _ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def variables(self) -> set[int]:
        """Indices of all variables that actually occur."""
        return {v for m, _ in self.sorted_terms() for v, _ in m}

    def total_degree(self) -> int:
        """Maximum total degree over the terms; 0 for the zero polynomial."""
        rows = self.sorted_terms()
        # the first term in the display order has the highest degree
        return sum(e for _, e in rows[0][0]) if rows else 0

    def evaluate(self, values: Mapping[int, int]) -> int:
        """Exact integer evaluation; every occurring variable needs a value."""
        total = 0
        for m, c in self.sorted_terms():
            term = c
            for v, e in m:
                if v not in values:
                    raise MissingVariableError(
                        f"no value assigned to {_var_text(v)}"
                    )
                term *= values[v] ** e
            total += term
        return total

    def substitute(
        self, assignment: Mapping[int, "Polynomial | int"]
    ) -> "Polynomial":
        """Replace every variable by the assigned polynomial, exactly.

        Raises MissingVariableError if some occurring variable has no image.
        """
        images: dict[int, Polynomial] = {}
        for v, val in assignment.items():
            images[v] = Polynomial.integer(val) if isinstance(val, int) else val

        @lru_cache(maxsize=None)
        def power(v: int, e: int) -> Polynomial:
            if v not in images:
                raise MissingVariableError(f"no substitution given for {_var_text(v)}")
            return images[v] ** e

        return Polynomial.sum(
            reduce(mul, (power(v, e) for v, e in m), Polynomial.integer(c))
            for m, c in self.sorted_terms()
        )

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in the display order (see the module docstring)."""
        return [(tuple(m), c) for _, c, m in _display_rows(self._terms, _POWER_PAIRS)]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        out: list[str] = []
        for _, c, powers in _display_rows(self._terms, _POWER_TEXTS):
            if c < 0:
                out.append(" - ")
                c = -c
            else:
                out.append(" + ")
            if not powers:
                out.append(str(c))
            elif c == 1:
                out.append("*".join(powers))
            else:
                out.append(f"{c}*{'*'.join(powers)}")
        # the first term's sign stands alone
        out[0] = "-" if out[0] == " - " else ""
        return "".join(out)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


_ZERO = Polynomial._raw({})
_ONE = Polynomial._raw({0: 1})


@lru_cache(maxsize=None)
def _variable_cached(index: int) -> Polynomial:
    return Polynomial._raw({_power_key(index, 1): 1})


@lru_cache(maxsize=None)
def _h_cached(d: int, lo: int, hi: int) -> Polynomial:
    if d > MAX_EXPONENT:
        raise _overflow(lo, d)
    units = [1 << (v * FIELD_BITS) for v in range(lo, hi + 1)]
    terms = {
        sum(combo): 1 for combo in itertools.combinations_with_replacement(units, d)
    }
    return Polynomial._raw(terms)


@lru_cache(maxsize=None)
def _e_cached(d: int, lo: int, hi: int) -> Polynomial:
    units = [1 << (v * FIELD_BITS) for v in range(lo, hi + 1)]
    terms = {sum(combo): 1 for combo in itertools.combinations(units, d)}
    return Polynomial._raw(terms)


def h_poly(d: int, lo: int, hi: int) -> Polynomial:
    """Complete homogeneous symmetric polynomial of degree d in x_lo, ...,
    x_hi, no variables when hi < lo.

    Conventions: degree 0 gives 1 even over no variables; negative degree
    gives 0; positive degree over an empty range gives 0.
    """
    if d < 0:
        return _ZERO
    if d == 0:
        return _ONE
    if hi < lo:
        return _ZERO
    if lo < 1:
        raise ValueError("symmetric polynomial ranges start at x1 or later")
    return _h_cached(d, lo, hi)


def e_poly(d: int, lo: int, hi: int) -> Polynomial:
    """Elementary symmetric polynomial of degree d in x_lo, ..., x_hi, no
    variables when hi < lo.

    Degree 0 gives 1; negative degree, or degree exceeding the number of
    variables, gives 0.
    """
    if d < 0:
        return _ZERO
    if d == 0:
        return _ONE
    if d > hi - lo + 1:
        return _ZERO
    if lo < 1:
        raise ValueError("symmetric polynomial ranges start at x1 or later")
    return _e_cached(d, lo, hi)


# _QBINOM_ROWS[m][j] is the Gaussian coefficient [m, j] for j up to the
# widest column yet asked of row m; kept for the process like _h_cached
_QBINOM_ROWS: list[list[Polynomial]] = [[_ONE]]


def qbinom(n: int, k: int) -> Polynomial:
    """Gaussian binomial coefficient as a polynomial in q.

    Zero when k < 0 or k > n.  By the q-Pascal rule [m, j] = [m-1, j-1] +
    q^j [m-1, j], filling rows 0..n in turn up to column min(k, n-k), as
    [n, k] = [n, n-k]; no entry of that band has a higher degree than
    k(n-k), and OverflowError is raised before any work when that passes
    MAX_EXPONENT.
    """
    if n < 0:
        raise ValueError("qbinom requires n >= 0")
    if k < 0 or k > n:
        return _ZERO
    k = min(k, n - k)
    rows = _QBINOM_ROWS
    if n < len(rows) and k < len(rows[n]):
        return rows[n][k]
    if k * (n - k) > MAX_EXPONENT:
        raise _overflow(Q_INDEX, k * (n - k))
    while len(rows) <= n:
        rows.append([_ONE])
    for m in range(1, n + 1):
        prev, row = rows[m - 1], rows[m]
        for j in range(len(row), min(k, m) + 1):
            row.append(prev[j - 1] + Polynomial.q() ** j * prev[j] if j < m else _ONE)
    return rows[n][k]


def newton_residual(d: int, nvars: int) -> Polynomial:
    """Alternating convolution sum_{i=0}^{d} (-1)^i e_i h_{d-i}.

    Vanishes identically for every d > 0; returned unevaluated so callers
    can check that contract.
    """
    if d <= 0:
        raise ValueError("newton_residual requires d > 0")
    return Polynomial.sum(
        (-1) ** i * e_poly(i, 1, nvars) * h_poly(d - i, 1, nvars) for i in range(d + 1)
    )
