"""Division-free determinants over the polynomial ring, plus exact
integer-matrix utilities (determinant, adjugate, complementary-minor check).

A matrix is the sequence of its rows, with no row or column labels.
One row expansion, ``minors``, computes every minor of an entry grid: it
is memoised on the pair of row and column bitmasks, so all the minors of
one grid share their sub-minors.  A polynomial minor is one term map that
`Polynomial.fold_product` fills as its sub-minors come; a 1 x 1 minor is
its entry.  The polynomial and the integer determinant are its full
minor, which costs O(2^n * n) ring multiplications -- far below the n! of
the Leibniz sum kept here as an independent oracle.

Minor functions of grids of one size may share a ``SharedMinors`` memo
when each entry is fixed by its row, its column and one part (a small
int) that each of them reads.  A key then also packs the parts its rows
and columns read, one field each, so equal keys mean equal entries and
the key is exact.  Equal values in the memo are one object.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from .poly import Polynomial

NAIVE_DIMENSION_LIMIT = 8


class NonSquareMatrixError(ValueError):
    """Determinant of a non-square matrix was requested."""


class DimensionGuardError(ValueError):
    """A determinant's dimension is above a guard: NAIVE_DIMENSION_LIMIT for
    the permutation-sum oracle, the command line's DIMENSION_LIMIT."""


class SizeMismatchError(ValueError):
    """Index sets fed to the minor check have incompatible sizes."""


Matrix = Sequence[Sequence]


class SharedMinors:
    """A memo shared by the minor functions of n x n grids whose rows and
    columns read parts below 2**bits; its values are interned."""

    def __init__(self, n: int, bits: int):
        self.memo: dict = {}
        self.values: dict = {}
        self.bits = bits
        # fields[mask]: the part fields of mask's indexes
        fields = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            fields[mask] = fields[mask ^ low] | ((1 << bits) - 1) << (low.bit_length() - 1) * bits
        # a key holds the row fields above the column fields above the masks
        self.col_shift, self.row_shift = 2 * n, (2 + bits) * n
        self.col_fields = [f << self.col_shift for f in fields]
        self.row_fields = [f << self.row_shift for f in fields]

    def pack(self, parts: Sequence[int], shift: int) -> int:
        if any(p >> self.bits for p in parts):
            raise ValueError(f"parts {tuple(parts)} do not fit in {self.bits} bits")
        return sum(p << (shift + i * self.bits) for i, p in enumerate(parts))

    def clear(self) -> None:
        self.memo.clear()
        self.values.clear()


def minors(
    entries: Sequence, n: int, one, zero, shared: SharedMinors | None = None, parts=((), ())
) -> Callable[[int, int], object]:
    """Minor function of the row-major n x n entry list: ``minor(rows,
    cols)`` is the determinant of the submatrix on the row and column
    bitmasks, which must hold equally many bits; the empty minor is one.

    Each minor is expanded along the lowest row of its row mask and
    memoised on the (row mask, column mask) pair, so minors requested
    through one function share their sub-minors.  Entries are read by
    index, only where the expansion reaches them.  Works over the ints
    and the polynomials; zero entries are skipped, a polynomial one by
    its identity with the shared zero.  With ``shared``, the memo is
    shared's and ``parts`` lists the part each row and each column reads
    (see the module docstring); the entries must be polynomials."""
    memo: dict = {} if shared is None else shared.memo
    values = None if shared is None else shared.values
    fold = None if isinstance(one, int) else Polynomial.fold_product
    folded = Polynomial.folded
    if shared is not None:
        row_parts = shared.pack(parts[0], shared.row_shift)
        col_parts = shared.pack(parts[1], shared.col_shift)
        row_fields, col_fields = shared.row_fields, shared.col_fields

    def minor(rows: int, cols: int):
        if not rows:
            return one
        key = rows << n | cols
        if values is not None:
            key |= row_parts & row_fields[rows] | col_parts & col_fields[cols]
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
            if fold:
                if e is not zero:
                    acc = fold(acc, sign, e, minor(rows, cols ^ low))
            elif e:
                acc += sign * e * minor(rows, cols ^ low)
            sign = -sign
            rest ^= low
        acc = folded(acc)
        if values is not None:
            acc = values.setdefault(acc, acc)
        memo[key] = acc
        return acc

    return minor


def _side(rows: Matrix) -> int:
    """The side of a square matrix; NonSquareMatrixError for any other."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquareMatrixError(f"not square: rows of lengths {[len(r) for r in rows]}")
    return n


def _square_minors(rows: Matrix, one, zero) -> tuple[Callable[[int, int], object], int]:
    """The minor function of a square matrix over the ring of ``one`` and
    ``zero``, and its full mask."""
    n = _side(rows)
    return minors([x for r in rows for x in r], n, one, zero), (1 << n) - 1


def det(rows: Matrix) -> Polynomial:
    """Exact determinant; the empty 0x0 matrix has determinant 1.  Int
    entries are constants."""
    rows = [[Polynomial.integer(x) if isinstance(x, int) else x for x in r] for r in rows]
    minor, full = _square_minors(rows, Polynomial.one(), Polynomial.zero())
    return minor(full, full)


def det_naive(rows: Matrix) -> Polynomial:
    """Full Leibniz permutation sum; independent oracle for det."""
    n = _side(rows)
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
            term = term * rows[r][perm[r]]
            if not term:
                break
        acc = acc + (-term if inversions % 2 else term)
    return acc


def matmul(a: Matrix, b: Matrix) -> tuple[tuple[Polynomial, ...], ...]:
    """Matrix product, as a tuple of row tuples."""
    width = len(b[0]) if b else 0
    if any(len(r) != len(b) for r in a) or any(len(r) != width for r in b):
        raise SizeMismatchError(
            f"rows of lengths {[len(r) for r in a]} times rows of lengths {[len(r) for r in b]}"
        )
    return tuple(
        tuple(
            sum((x * y for x, y in zip(row, col)), Polynomial.zero())
            for col in zip(*b)
        )
        for row in a
    )


def _cofactors(minor: Callable[[int, int], int], full: int) -> list[list[int]]:
    # the (i, j) cofactor is the signed minor off row i and column j
    n = full.bit_length()
    return [
        [(-1) ** (i + j) * minor(full ^ 1 << i, full ^ 1 << j) for j in range(n)]
        for i in range(n)
    ]


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by memoised row expansion; det([]) = 1."""
    minor, full = _square_minors(rows, 1, 0)
    return minor(full, full)


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
    minor, full = _square_minors(m, 1, 0)
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
    cof_minor, _ = _square_minors(_cofactors(minor, full), 1, 0)
    sign = -1 if (sum(a) + sum(b)) % 2 else 1
    rhs = sign * cof_minor(full ^ mask_a, full ^ mask_b)
    return lhs == rhs
