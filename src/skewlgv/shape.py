"""Partitions, skew diagrams, row index selections, and the parallelogram
condition that governs when every entry of the e-side matrix counts paths.

Parts are read 1-indexed through ``SkewShape.alpha_part``/``beta_part``,
to match the usual convention for parts; storage is a plain tuple.  Index
selections live on {0, ..., n} and always carry their complements.

A ``SkewShape`` checks its part tuples, and an ``IndexSelection`` its
sets, when built, raising ``ShapeError`` before any work; ``make_skew``
adds the check that both part tuples are partitions, and
``SkewShape.check_selection`` the check that a selection is on the
shape's lines.

The shape owns the diagram's geometry: ``has_box`` is the one box rule,
and the box corners, the isolated designated points, row-connectedness
and the failing parallelogram clauses are computed once per shape, on
first use.  The lattices and ``parallelogram_hypothesis`` read them here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence


class ShapeError(ValueError):
    """Invalid partition, containment, or selection data."""


class Node(NamedTuple):
    """A point (i, j) of the diagram: line i, column j."""

    i: int
    j: int


@dataclass(frozen=True)
class SkewShape:
    """Pair of length-n compositions alpha <= beta bounding a skew diagram.

    The constructor checks the pair: equal, nonzero lengths, int parts, no
    negative part, and alpha <= beta pointwise; n is their length.  Parts
    need not decrease (the connector bijection works for any pointwise
    dominated pair); ``make_skew`` also checks that both are partitions.
    """

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    n: int = field(init=False)

    def __post_init__(self):
        a, b = tuple(self.alpha), tuple(self.beta)
        if len(a) != len(b):
            raise ShapeError(f"length mismatch: {len(a)} vs {len(b)}")
        if not a:
            raise ShapeError("need at least one row")
        if not all(isinstance(x, int) for x in a + b):
            raise ShapeError(f"parts must be ints: {a} and {b}")
        if any(x < 0 for x in a) or any(x < 0 for x in b):
            raise ShapeError("negative entries")
        for i, (x, y) in enumerate(zip(a, b), start=1):
            if x > y:
                raise ShapeError(f"containment violated at row {i}: {x} > {y}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "n", len(a))

    def alpha_part(self, i: int) -> int:
        """1-indexed, i in 1..n+1; i = n+1 reads as row n (boundary
        interpretation)."""
        if 0 < i <= self.n:
            return self.alpha[i - 1]
        if i == self.n + 1:
            return self.alpha[self.n - 1]
        raise ShapeError(f"alpha part index {i} outside 1..{self.n + 1}")

    def beta_part(self, i: int) -> int:
        """1-indexed, i in 0..n; i = 0 reads as row 1 (boundary
        interpretation)."""
        if 0 < i <= self.n:
            return self.beta[i - 1]
        if i == 0:
            return self.beta[0]
        raise ShapeError(f"beta part index {i} outside 0..{self.n}")

    def has_box(self, row: int, j: int) -> bool:
        """True when 1-indexed row `row` holds a box in column j, the box
        whose bottom-right corner is the point (row, j); False for rows
        outside 1..n."""
        return 0 < row <= self.n and self.alpha[row - 1] < j <= self.beta[row - 1]

    @cached_property
    def corners(self) -> frozenset[Node]:
        """Every corner of a box: the points on the runs of each line."""
        return frozenset(
            Node(t, j)
            for t in range(self.n + 1)
            for lo, hi in line_runs(self, t)
            for j in range(lo, hi + 1)
        )

    @cached_property
    def isolated_points(self) -> tuple[Node, ...]:
        """The distinct designated line points that are no box corner,
        sorted; the lattices adjoin those they use as isolated nodes."""
        return tuple(sorted(
            {p for t in range(self.n + 1) for p in line_points(self, t)} - self.corners
        ))

    @cached_property
    def row_connected(self) -> bool:
        """See ``is_row_connected``."""
        for t in range(self.n + 1):
            left, right = line_points(self, t)
            runs = line_runs(self, t)
            # a line without boxes still needs its two designated points to meet
            if runs != [(left.j, right.j)] and (runs or left != right):
                return False
        return True

    @cached_property
    def failing_clauses(self) -> int:
        """Bit a' * (n+1) + b' is set when ``parallelogram_clause(self, a',
        b')`` fails.  In O(n^2): with s_i = alpha_i + i and t_i = beta_i + i,
        a' > b' and the degree in range (s_{a'} < t_{b'+1}), the alpha-half
        fails when the last i < a' with s_i > s_{a'} exceeds b', the
        beta-half when the first i > b'+1 with t_i < t_{b'+1} is <= a'."""
        n, width = self.n, self.n + 1
        s = (0, *(x + i for i, x in enumerate(self.alpha, 1)))
        t = (0, *(x + i for i, x in enumerate(self.beta, 1)))
        last = [max((i for i in range(1, a) if s[i] > s[a]), default=0) for a in range(width)]
        first = [min((i for i in range(b + 2, width) if t[i] < t[b + 1]), default=width) for b in range(n)]
        return sum(
            sum(1 << b for b in range(a) if s[a] < t[b + 1] and (last[a] > b or first[b] <= a)) << a * width
            for a in range(1, width)
        )

    @cached_property
    def hypotheses(self) -> dict:
        """Failed ``parallelogram_hypothesis`` checks by failing pairs."""
        return {}

    def box_count(self) -> int:
        return sum(b - a for a, b in zip(self.alpha, self.beta))

    def check_selection(self, sel: "IndexSelection") -> None:
        """Raise ShapeError unless sel selects among this shape's lines
        0..n: a shorter selection would leave lines out, a longer one read
        lines the shape does not have."""
        if sel.n != self.n:
            raise ShapeError(f"selection on 0..{sel.n} for a shape of {self.n} rows")


def make_skew(alpha: Sequence[int], beta: Sequence[int]) -> SkewShape:
    """Skew shape from two part lists that must also be weakly decreasing."""
    a, b = tuple(alpha), tuple(beta)
    for parts in (a, b):
        if any(x < y for x, y in zip(parts, parts[1:])):
            raise ShapeError(f"not weakly decreasing: {parts}")
    return SkewShape(a, b)


@dataclass(frozen=True)
class IndexSelection:
    """Equal-size subsets A, B of {0, ..., n} with their complements."""

    n: int
    a_set: tuple[int, ...]
    b_set: tuple[int, ...]
    a_comp: tuple[int, ...] = field(init=False)
    b_comp: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not all(isinstance(x, int) for x in (self.n, *self.a_set, *self.b_set)):
            raise ShapeError(f"n, A and B must be ints: {self.n!r}, {self.a_set}, {self.b_set}")
        if self.n < 0:
            raise ShapeError(f"n must be nonnegative, got {self.n}")
        full = range(self.n + 1)
        for name, s in (("A", self.a_set), ("B", self.b_set)):
            if any(x < 0 or x > self.n for x in s):
                raise ShapeError(f"{name} not a subset of 0..{self.n}: {s}")
            if any(a >= b for a, b in zip(s, s[1:])):
                raise ShapeError(f"{name} must be strictly increasing: {s}")
        if len(self.a_set) != len(self.b_set):
            raise ShapeError(
                f"|A| = {len(self.a_set)} but |B| = {len(self.b_set)}"
            )
        a = set(self.a_set)
        b = set(self.b_set)
        object.__setattr__(
            self, "a_comp", tuple(x for x in full if x not in a)
        )
        object.__setattr__(
            self, "b_comp", tuple(x for x in full if x not in b)
        )

    @classmethod
    def make(
        cls, n: int, a_set: Sequence[int], b_set: Sequence[int]
    ) -> "IndexSelection":
        return cls(n=n, a_set=tuple(sorted(a_set)), b_set=tuple(sorted(b_set)))

    @cached_property
    def masks(self) -> tuple[int, int, int, int]:
        """A, B, A^c and B^c as bitmasks over {0, ..., n}."""
        return tuple(
            sum(1 << x for x in s) for s in (self.a_set, self.b_set, self.a_comp, self.b_comp)
        )

    @cached_property
    def pairs(self) -> int:
        """A^c x B^c as a bitmask, pair (a', b') at bit a' * (n+1) + b'."""
        b_comp = self.masks[3]
        return sum(b_comp << a_p * (self.n + 1) for a_p in self.a_comp)

    @property
    def l(self) -> int:
        return len(self.a_set)

    @property
    def r(self) -> int:
        return self.n + 1 - len(self.a_set)


class HypothesisCheck(NamedTuple):
    ok: bool
    violations: tuple[tuple[int, int], ...]


# shared by every selection whose clauses all hold: a sweep checks hundreds
# of thousands, and building a named tuple costs more than the check
_HOLDS = HypothesisCheck(True, ())


def parallelogram_clause(shape: SkewShape, a_p: int, b_p: int) -> bool:
    """Per-pair condition for the e-entry to count paths correctly.

    Holds when a' <= b', or when the degree outruns the variable range,
    or when the minimal parallelogram of boxes between the two rows fits
    inside the diagram.
    """
    if a_p - b_p <= 0:
        return True
    # now 1 <= b' + 1 <= a' <= n, so the part lookups stay in range
    if a_p - b_p > shape.beta_part(b_p + 1) - shape.alpha_part(a_p):
        return True
    for i in range(b_p + 1, a_p + 1):
        if shape.alpha_part(i) - shape.alpha_part(a_p) > a_p - i:
            return False
        if shape.beta_part(b_p + 1) - shape.beta_part(i) > i - b_p - 1:
            return False
    return True


def parallelogram_hypothesis(
    shape: SkewShape, sel: IndexSelection
) -> HypothesisCheck:
    """Check every (a', b') pair in A^c x B^c against the shape's failing
    clauses; report all violators, in that order.  Selections of one shape
    with the same violators get one object."""
    failing = shape.failing_clauses & sel.pairs
    if not failing:
        return _HOLDS
    found = shape.hypotheses.get(failing)
    if found is None:
        violations, rest = [], failing
        while rest:
            low = rest & -rest
            violations.append(divmod(low.bit_length() - 1, shape.n + 1))
            rest ^= low
        found = shape.hypotheses[failing] = HypothesisCheck(False, tuple(violations))
    return found


def line_points(shape: SkewShape, t: int) -> tuple[Node, Node]:
    """Designated left and right points (t, alpha_{t+1}) and (t, beta_t)
    of horizontal line t, read with the boundary conventions
    alpha_{n+1} = alpha_n and beta_0 = beta_1."""
    return Node(t, shape.alpha_part(t + 1)), Node(t, shape.beta_part(t))


def line_runs(shape: SkewShape, t: int) -> list[tuple[int, int]]:
    """Maximal contiguous column intervals of horizontal line t.

    Line t collects the bottom sides of row-t boxes and the top sides of
    row-(t+1) boxes; the runs are the connected components a horizontal
    walk can move within.
    """
    iv = []
    for row in (t, t + 1):
        if 1 <= row <= shape.n and shape.alpha[row - 1] < shape.beta[row - 1]:
            iv.append((shape.alpha[row - 1], shape.beta[row - 1]))
    iv.sort()
    runs: list[tuple[int, int]] = []
    for lo, hi in iv:
        if runs and lo <= runs[-1][1]:
            runs[-1] = (runs[-1][0], max(runs[-1][1], hi))
        else:
            runs.append((lo, hi))
    return runs


def is_row_connected(shape: SkewShape) -> bool:
    """True when every horizontal line is a single run whose extreme
    columns are exactly the designated endpoint columns of that line.

    Degenerate diagrams (gaps inside a line, or designated endpoints away
    from its ends) break the per-pair path-count formulas: a same-row
    pair can have no horizontal route although its matrix entry is 1, and
    the complementary walk can strand short of its sink.  The determinant
    identity itself is unaffected.  For partition pairs the endpoint
    condition is automatic whenever the designated points lie on the run
    at all, so on partitions this is purely a connectivity predicate.
    """
    return shape.row_connected


def staircase(n: int) -> SkewShape:
    """Staircase complement inside the n x n square: alpha_i = n - i."""
    if n < 1:
        raise ShapeError("staircase needs n >= 1")
    return make_skew([n - i for i in range(1, n + 1)], [n] * n)


def rectangle(m: int, n: int) -> SkewShape:
    """Full m-column, n-row rectangle: alpha = 0, beta = (m^n)."""
    if n < 1 or m < 1:
        raise ShapeError("rectangle needs m, n >= 1")
    return make_skew([0] * n, [m] * n)


def partitions_with(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """All weakly decreasing length-n tuples with parts in 0..max_part,
    in descending lexicographic order."""
    yield from itertools.combinations_with_replacement(range(max_part, -1, -1), n)


def skew_shapes(n: int, max_part: int) -> Iterator[SkewShape]:
    """All skew shapes with n rows and parts bounded by max_part: every
    pair alpha <= beta (pointwise) of ``partitions_with``, beta-major."""
    parts = list(partitions_with(n, max_part))
    for beta in parts:
        for alpha in parts:
            if all(a <= b for a, b in zip(alpha, beta)):
                yield SkewShape(alpha, beta)


def selections(n: int) -> Iterator[IndexSelection]:
    """All equal-size selection pairs on {0, ..., n}, smallest size first."""
    universe = range(n + 1)
    for k in range(n + 2):
        for a in itertools.combinations(universe, k):
            for b in itertools.combinations(universe, k):
                yield IndexSelection(n=n, a_set=a, b_set=b)
