"""Division-free determinants over the polynomial ring, plus exact
integer-matrix utilities (determinant, adjugate, complementary-minor check).

Matrices are tabulated from an entry function over row and column labels.
One row expansion, ``minors``, computes every minor of an entry grid: it
is memoised on the pair of row and column bitmasks, so all the minors of
one grid share their sub-minors.  The polynomial and the integer
determinant are its full minor, which costs O(2^n * n) ring
multiplications -- far below the n! of the Leibniz sum kept here as an
independent oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .poly import Polynomial

NAIVE_DIMENSION_LIMIT = 8


class NonSquareMatrixError(ValueError):
    """Determinant of a non-square matrix was requested."""


class DimensionGuardError(ValueError):
    """A determinant's dimension is above a guard: NAIVE_DIMENSION_LIMIT for
    the permutation-sum oracle, the command line's DIMENSION_LIMIT."""


class SizeMismatchError(ValueError):
    """Index sets fed to the minor check have incompatible sizes."""


@dataclass(frozen=True)
class PolyMatrix:
    """Row-major matrix of polynomials with sorted integer row/col labels."""

    rows: int
    cols: int
    entries: tuple[Polynomial, ...]
    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        if len(self.row_labels) != self.rows or len(self.col_labels) != self.cols:
            raise ValueError("label count does not match dimensions")
        for labels in (self.row_labels, self.col_labels):
            if any(a >= b for a, b in zip(labels, labels[1:])):
                raise ValueError("labels must be strictly increasing")

    @classmethod
    def tabulate(
        cls,
        f: Callable[[int, int], Polynomial],
        row_labels: Iterable[int],
        col_labels: Iterable[int],
    ) -> "PolyMatrix":
        """The matrix whose entry in row label a, column label b is f(a, b)."""
        rl = tuple(row_labels)
        cl = tuple(col_labels)
        return cls(len(rl), len(cl), tuple(f(a, b) for a in rl for b in cl), rl, cl)

    def entry(self, r: int, c: int) -> Polynomial:
        return self.entries[r * self.cols + c]

    def is_square(self) -> bool:
        return self.rows == self.cols


def minors(entries: Sequence, n: int, one, zero) -> Callable[[int, int], object]:
    """Minor function of the row-major n x n entry list: ``minor(rows,
    cols)`` is the determinant of the submatrix on the row and column
    bitmasks, which must hold equally many bits; the empty minor is one.

    Each minor is expanded along the lowest row of its row mask and
    memoised on the (row mask, column mask) pair, so minors requested
    through one function share their sub-minors.  Entries are read by
    index, only where the expansion reaches them.  Works over any ring
    whose zero is falsy; zero entries are skipped."""
    memo: dict = {}

    def minor(rows: int, cols: int):
        if not rows:
            return one
        key = rows << n | cols
        cached = memo.get(key)
        if cached is not None:
            return cached
        low_row = rows & -rows
        base = (low_row.bit_length() - 1) * n
        rows ^= low_row
        acc = zero
        sign = 1
        rest = cols
        while rest:
            low = rest & -rest
            e = entries[base + low.bit_length() - 1]
            if e:
                term = e * minor(rows, cols ^ low)
                acc = acc + (-term if sign < 0 else term)
            sign = -sign
            rest ^= low
        memo[key] = acc
        return acc

    return minor


def det(m: PolyMatrix) -> Polynomial:
    """Exact determinant; the empty 0x0 matrix has determinant 1."""
    if not m.is_square():
        raise NonSquareMatrixError(f"matrix is {m.rows}x{m.cols}")
    full = (1 << m.rows) - 1
    return minors(m.entries, m.rows, Polynomial.one(), Polynomial.zero())(full, full)


def det_naive(m: PolyMatrix) -> Polynomial:
    """Full Leibniz permutation sum; independent oracle for det."""
    if not m.is_square():
        raise NonSquareMatrixError(f"matrix is {m.rows}x{m.cols}")
    n = m.rows
    if n > NAIVE_DIMENSION_LIMIT:
        raise DimensionGuardError(
            f"permutation sum limited to dimension {NAIVE_DIMENSION_LIMIT}, got {n}"
        )
    acc = Polynomial.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1
            for a in range(n)
            for b in range(a + 1, n)
            if perm[a] > perm[b]
        )
        term = Polynomial.one()
        for r in range(n):
            term = term * m.entry(r, perm[r])
            if term.is_zero():
                break
        acc = acc + (-term if inversions % 2 else term)
    return acc


def matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Matrix product; labels carry over from a's rows and b's columns."""
    if a.cols != b.rows:
        raise SizeMismatchError(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    entries = []
    for r in range(a.rows):
        for c in range(b.cols):
            acc = Polynomial.zero()
            for k in range(a.cols):
                acc = acc + a.entry(r, k) * b.entry(k, c)
            entries.append(acc)
    return PolyMatrix(
        rows=a.rows,
        cols=b.cols,
        entries=tuple(entries),
        row_labels=a.row_labels,
        col_labels=b.col_labels,
    )


def _int_minors(rows: Sequence[Sequence[int]]) -> tuple[Callable[[int, int], int], int]:
    """The minor function of a square integer matrix, and its full mask."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquareMatrixError("integer matrix is not square")
    return minors([x for r in rows for x in r], n, 1, 0), (1 << n) - 1


def _cofactors(minor: Callable[[int, int], int], full: int) -> list[list[int]]:
    # the (i, j) cofactor is the signed minor off row i and column j
    n = full.bit_length()
    return [
        [(-1) ** (i + j) * minor(full ^ 1 << i, full ^ 1 << j) for j in range(n)]
        for i in range(n)
    ]


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by memoised row expansion; det([]) = 1."""
    minor, full = _int_minors(rows)
    return minor(full, full)


def int_cofactor_matrix(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Matrix of signed minors; equals the transpose of the adjugate."""
    return _cofactors(*_int_minors(rows))


def jacobi_check(
    m: Sequence[Sequence[int]],
    a_set: Sequence[int],
    b_set: Sequence[int],
) -> bool:
    """All-integer complementary-minor identity.

    Checks det(M_{A,B}) * det(M)^(r-1) == (-1)^(sum A + sum B)
    * det(C_{A^c,B^c}) where C is the cofactor matrix (the transposed
    adjugate) and r the complement size.  Clearing the inverse from the
    classical statement keeps everything in integers and, because both
    sides are polynomial in the entries, the identity persists for
    singular matrices.  With empty complements both minors coincide with
    det(M) and the identity is trivially true.
    """
    minor, full = _int_minors(m)
    d1 = len(m)
    a = sorted(a_set)
    b = sorted(b_set)
    if len(a) != len(set(a)) or len(b) != len(set(b)):
        raise SizeMismatchError("index sets must not repeat elements")
    if len(a) != len(b):
        raise SizeMismatchError(f"|A| = {len(a)} but |B| = {len(b)}")
    if a and (a[0] < 0 or a[-1] >= d1):
        raise SizeMismatchError("A outside matrix index range")
    if b and (b[0] < 0 or b[-1] >= d1):
        raise SizeMismatchError("B outside matrix index range")

    r = d1 - len(a)
    if r == 0:
        return True

    mask_a = sum(1 << i for i in a)
    mask_b = sum(1 << i for i in b)
    lhs = minor(mask_a, mask_b) * minor(full, full) ** (r - 1)
    cof_minor, _ = _int_minors(_cofactors(minor, full))
    sign = -1 if (sum(a) + sum(b)) % 2 else 1
    rhs = sign * cof_minor(full ^ mask_a, full ^ mask_b)
    return lhs == rhs
