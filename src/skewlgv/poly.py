"""Exact sparse multivariate polynomials over arbitrary-precision integers.

A monomial is stored as a tuple of (variable index, exponent) pairs, sorted
by variable index, with every exponent positive.  Variable index 0 is
reserved for the distinguished variable q used by the Gaussian binomial
coefficients; ordinary variables x1, x2, ... carry indices 1, 2, ...

A polynomial maps monomials to nonzero integer coefficients, so two
polynomials are equal exactly when their term maps are equal.  All values
are immutable; every operation returns a fresh canonical polynomial.

Terms render in graded-lexicographic order (higher total degree first,
ties broken towards lower variable indices), which keeps text output
stable for golden tests: ``x1*x2*x3 + 2*x2^2 - 1``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

Monomial = tuple[tuple[int, int], ...]

Q_INDEX = 0

_EMPTY_MONOMIAL: Monomial = ()


class MissingVariableError(ValueError):
    """A substitution did not assign every variable of the polynomial."""


class VarRange(NamedTuple):
    """Contiguous variable range x_lo, ..., x_hi; empty when hi < lo."""

    lo: int
    hi: int

    @property
    def is_empty(self) -> bool:
        return self.hi < self.lo

    @property
    def width(self) -> int:
        return max(0, self.hi - self.lo + 1)


@lru_cache(maxsize=1 << 18)
def _mul_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _monomial_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _display_key(m: Monomial):
    # graded-lex, descending degree; ties put weight on low indices first
    return (-_monomial_degree(m), tuple((v, -e) for v, e in m))


def _var_text(v: int) -> str:
    return "q" if v == Q_INDEX else f"x{v}"


class Polynomial:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        """Polynomial with the given terms; a monomial may list variables in
        any order, repeated or with zero exponents, and like terms add.
        Coefficients must be ints."""
        acc: dict[Monomial, int] = {}
        for m, c in (terms or {}).items():
            if not isinstance(c, int):
                raise TypeError(f"coefficient of {m} is not an int: {c!r}")
            exps: dict[int, int] = {}
            for v, e in m:
                if v < 0 or e < 0:
                    raise ValueError(f"negative variable index or exponent in {m}")
                exps[v] = exps.get(v, 0) + e
            key = tuple(sorted((v, e) for v, e in exps.items() if e))
            acc[key] = acc.get(key, 0) + c
        self._terms: dict[Monomial, int] = {m: c for m, c in acc.items() if c}

    @classmethod
    def _raw(cls, terms: dict[Monomial, int]) -> "Polynomial":
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
        return cls._raw({_EMPTY_MONOMIAL: c})

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
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == Polynomial.integer(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.integer(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for m, c in other._terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            elif m in out:
                del out[m]
        return Polynomial._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.integer(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        return Polynomial.integer(other) + (-self)

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        # products by the shared one are common (free lattice steps, the
        # last row of a determinant expansion) and cost nothing
        if other is _ONE:
            return self
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            if other == 1:
                return self
            return Polynomial._raw({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self is _ONE:
            return other
        if not self._terms or not other._terms:
            return _ZERO
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out: dict[Monomial, int] = {}
        for m2, c2 in b.items():
            for m1, c1 in a.items():
                m = _mul_monomials(m1, m2)
                nc = out.get(m, 0) + c1 * c2
                if nc:
                    out[m] = nc
                elif m in out:
                    del out[m]
        return Polynomial._raw(out)

    __rmul__ = __mul__

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
        out: set[int] = set()
        for m in self._terms:
            for v, _ in m:
                out.add(v)
        return out

    def total_degree(self) -> int:
        """Maximum total degree over the terms; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(_monomial_degree(m) for m in self._terms)

    def evaluate(self, values: Mapping[int, int]) -> int:
        """Exact integer evaluation; every occurring variable needs a value."""
        total = 0
        for m, c in self._terms.items():
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
        power_cache: dict[tuple[int, int], Polynomial] = {}
        acc = _ZERO
        for m, c in self._terms.items():
            term = Polynomial.integer(c)
            for v, e in m:
                if v not in images:
                    raise MissingVariableError(
                        f"no substitution given for {_var_text(v)}"
                    )
                key = (v, e)
                p = power_cache.get(key)
                if p is None:
                    p = images[v] ** e
                    power_cache[key] = p
                term = term * p
            acc = acc + term
        return acc

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in the display order (graded-lex, descending)."""
        return sorted(self._terms.items(), key=lambda mc: _display_key(mc[0]))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for m, c in self.sorted_terms():
            body = "*".join(
                _var_text(v) + (f"^{e}" if e > 1 else "") for v, e in m
            )
            mag = abs(c)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not pieces:
                pieces.append(f"-{text}" if c < 0 else text)
            else:
                pieces.append(f" - {text}" if c < 0 else f" + {text}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


_ZERO = Polynomial._raw({})
_ONE = Polynomial._raw({_EMPTY_MONOMIAL: 1})


@lru_cache(maxsize=None)
def _variable_cached(index: int) -> Polynomial:
    return Polynomial._raw({((index, 1),): 1})


def _monomial_from_multiset(combo: Iterable[int]) -> Monomial:
    return tuple((v, len(list(g))) for v, g in itertools.groupby(combo))


@lru_cache(maxsize=None)
def _h_cached(d: int, lo: int, hi: int) -> Polynomial:
    terms = {
        _monomial_from_multiset(combo): 1
        for combo in itertools.combinations_with_replacement(range(lo, hi + 1), d)
    }
    return Polynomial._raw(terms)


@lru_cache(maxsize=None)
def _e_cached(d: int, lo: int, hi: int) -> Polynomial:
    terms = {
        tuple((v, 1) for v in combo): 1
        for combo in itertools.combinations(range(lo, hi + 1), d)
    }
    return Polynomial._raw(terms)


def h_poly(d: int, vars: VarRange) -> Polynomial:
    """Complete homogeneous symmetric polynomial of degree d over a range.

    Conventions: degree 0 gives 1 even over no variables; negative degree
    gives 0; positive degree over an empty range gives 0.
    """
    if d < 0:
        return _ZERO
    if d == 0:
        return _ONE
    if vars.is_empty:
        return _ZERO
    if vars.lo < 1:
        raise ValueError("symmetric polynomial ranges start at x1 or later")
    return _h_cached(d, vars.lo, vars.hi)


def e_poly(d: int, vars: VarRange) -> Polynomial:
    """Elementary symmetric polynomial of degree d over a range.

    Degree 0 gives 1; negative degree, or degree exceeding the number of
    variables, gives 0.
    """
    if d < 0:
        return _ZERO
    if d == 0:
        return _ONE
    if vars.is_empty or d > vars.width:
        return _ZERO
    if vars.lo < 1:
        raise ValueError("symmetric polynomial ranges start at x1 or later")
    return _e_cached(d, vars.lo, vars.hi)


def substitute(
    p: Polynomial, assignment: Mapping[int, Polynomial | int]
) -> Polynomial:
    """Functional form of Polynomial.substitute."""
    return p.substitute(assignment)


@lru_cache(maxsize=None)
def _q_power(e: int) -> Polynomial:
    if e == 0:
        return _ONE
    return Polynomial._raw({((Q_INDEX, e),): 1})


def qbinom(n: int, k: int) -> Polynomial:
    """Gaussian binomial coefficient as a polynomial in q.

    Zero when k < 0 or k > n.  Computed through the specialisation
    x_i = q^(i-1) of the complete homogeneous polynomial h_k in n-k+1
    variables, whose weighted monomials enumerate k-multisets.
    """
    if n < 0:
        raise ValueError("qbinom requires n >= 0")
    if k < 0 or k > n:
        return _ZERO
    base = h_poly(k, VarRange(1, n - k + 1))
    return base.substitute({i: _q_power(i - 1) for i in range(1, n - k + 2)})


def newton_residual(d: int, nvars: int) -> Polynomial:
    """Alternating convolution sum_{i=0}^{d} (-1)^i e_i h_{d-i}.

    Vanishes identically for every d > 0; returned unevaluated so callers
    can check that contract.
    """
    if d <= 0:
        raise ValueError("newton_residual requires d > 0")
    rng = VarRange(1, nvars)
    acc = _ZERO
    for i in range(d + 1):
        term = e_poly(i, rng) * h_poly(d - i, rng)
        acc = acc + (-term if i % 2 else term)
    return acc
