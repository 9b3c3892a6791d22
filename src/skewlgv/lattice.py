"""The two weighted lattices carried by a skew diagram.

Coordinates follow the diagram convention: i grows downward (rows 0..n),
j grows rightward (columns).  The 1x1 box in row i and column j has its
bottom-right corner at the point (i, j); lattice nodes are the corners of
the diagram's boxes.

The left lattice ("L", blue) walks rightward along box sides and downward
along the right-hand side of each box; a descent in column j weighs x_j.
The right lattice ("R", red) walks leftward and down-leftward across each
box's top-right to bottom-left diagonal, again weighing x_j.  Horizontal
steps are free: they weigh the shared ``Polynomial.one()``, and a product
by it costs nothing.  The flavors differ only in these steps, which
``STEPS`` records; no other module knows them.

Both lattices are implicit: a ``Lattice`` holds only its flavor, shape and
designated endpoints, and reads every edge and weight off the shape's box
rule (``SkewShape.has_box``) when asked.  Its nodes are the shape's box
corners plus the endpoints among the shape's isolated points; the node
and edge sets are derived views, built on first use.  ``endpoints`` is
the one endpoint rule: L runs from (a, alpha_{a+1}) to (b, beta_b), R from
(b', beta_{b'}) to (a', alpha_{a'+1}), at the shape's designated line
points.  ``Lattice.path_counts`` gives the integer path counts that the
brute-force enumerator caps and prunes with, and ``Lattice.reachable`` the
nodes that a walk from a node can visit, on which ``connectors`` keys the
walk memos that the lattice holds for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .poly import Polynomial
from .shape import IndexSelection, Node, ShapeError, SkewShape, line_points

# per flavor: the free horizontal step, then the weighted descent, as (di, dj)
STEPS = {"L": ((0, 1), (1, 0)), "R": ((0, -1), (1, -1))}


class Edge(NamedTuple):
    src: Node
    dst: Node
    weight: Polynomial


def endpoints(
    shape: SkewShape, sel: IndexSelection, flavor: str
) -> tuple[tuple[Node, ...], tuple[Node, ...]]:
    """Sources and sinks of the given flavor's lattice, row ordered.

    L runs from the left points (a, alpha_{a+1}) of the lines a in A to the
    right points (b, beta_b) of the lines b in B; R runs from the right
    points of the lines outside B to the left points of the lines outside A
    (see ``line_points``).  A selection on other lines than the shape's
    raises ShapeError.
    """
    shape.check_selection(sel)
    points = [line_points(shape, t) for t in range(shape.n + 1)]
    if flavor == "L":
        return tuple(points[a][0] for a in sel.a_set), tuple(points[b][1] for b in sel.b_set)
    return tuple(points[b][1] for b in sel.b_comp), tuple(points[a][0] for a in sel.a_comp)


@dataclass(frozen=True, eq=False)
class Lattice:
    """Immutable weighted DAG with row-ordered sources and sinks; an unknown
    flavor, or unequal numbers of sources and sinks, raises ShapeError."""

    flavor: str  # "L" or "R"
    shape: SkewShape
    sources: tuple[Node, ...] = ()
    sinks: tuple[Node, ...] = ()

    def __post_init__(self):
        if self.flavor not in STEPS:
            raise ShapeError(f"unknown lattice flavor {self.flavor!r}; expected L or R")
        if len(self.sources) != len(self.sinks):
            raise ShapeError(f"{len(self.sources)} sources but {len(self.sinks)} sinks")

    def successors(self, u: Node) -> tuple[tuple[Node, Polynomial], ...]:
        """Out-steps of u with their weights, in the deterministic step
        order: the free step before the descent."""
        steps = self._steps.get(u)
        if steps is None:
            steps = self._steps[u] = self._read_steps(u)
        return steps

    @cached_property
    def _steps(self) -> dict[Node, tuple[tuple[Node, Polynomial], ...]]:
        # successors read so far; path walks revisit the same nodes often
        return {}

    @cached_property
    def _path_counts(self) -> dict[tuple[Node, Node], dict[Node, int]]:
        # the cap check and the enumerator count the same pairs
        return {}

    @cached_property
    def _reachable(self) -> dict[Node, frozenset[Node]]:
        return {}

    @cached_property
    def walks(self) -> dict:
        """Memo of the complementary walks on this lattice, kept for
        ``connectors`` and dropped with the lattice."""
        return {}

    @cached_property
    def walked_paths(self) -> dict:
        """The walked paths on this lattice, one object per node tuple,
        kept for ``connectors``."""
        return {}

    def _read_steps(self, u: Node) -> tuple[tuple[Node, Polynomial], ...]:
        i, j = u
        shape = self.shape
        (_, fj), (di, dj) = STEPS[self.flavor]
        out = []
        # the free step runs along the bottom of a row-i box or the top of a
        # row-(i+1) box in the column it crosses; the descent crosses the
        # row-(i+1) box in column j
        col = max(j, j + fj)
        if shape.has_box(i, col) or shape.has_box(i + 1, col):
            out.append((Node(i, j + fj), Polynomial.one()))
        if shape.has_box(i + 1, j):
            out.append((Node(i + di, j + dj), Polynomial.variable(j)))
        return tuple(out)

    def path_counts(self, src: Node, snk: Node) -> dict[Node, int]:
        """Number of paths to snk from each node of the box spanned by src
        and snk (0 for a node that cannot reach snk); no path to snk leaves
        that box, since steps never rise and move columns one way only.
        Memoised per (src, snk); callers must not mutate the result."""
        counts = self._path_counts.get((src, snk))
        if counts is None:
            counts = self._path_counts[src, snk] = {snk: 1}
            # backwards from snk, row by row, each row against the free step
            dj = STEPS[self.flavor][0][1]
            for i in range(snk.i, src.i - 1, -1):
                for j in range(snk.j, src.j - dj, -dj):
                    u = Node(i, j)
                    if u != snk:
                        counts[u] = sum(counts.get(v, 0) for v, _ in self.successors(u))
        return counts

    def reachable(self, u: Node) -> frozenset[Node]:
        """The nodes reachable from u, u included.  Memoised per node."""
        reach = self._reachable.get(u)
        if reach is None:
            seen = {u}
            todo = [u]
            while todo:
                for v, _ in self.successors(todo.pop()):
                    if v not in seen:
                        seen.add(v)
                        todo.append(v)
            reach = self._reachable[u] = frozenset(seen)
        return reach

    @cached_property
    def isolated_nodes(self) -> tuple[Node, ...]:
        """The shape's isolated points that are endpoints here, sorted; a
        source stranded this way simply contributes zero paths."""
        ends = {*self.sources, *self.sinks}
        return tuple(p for p in self.shape.isolated_points if p in ends)

    @cached_property
    def nodes(self) -> frozenset[Node]:
        """Box corners, plus the isolated endpoints."""
        return self.shape.corners.union(self.isolated_nodes)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge, ordered by (src, dst)."""
        return tuple(
            Edge(u, v, w) for u in sorted(self.nodes) for v, w in self.successors(u)
        )


def build_L(shape: SkewShape, sel: IndexSelection | None = None) -> Lattice:
    """Left lattice; sources sit at (a, alpha_{a+1}) for a in A and sinks
    at (b, beta_b) for b in B (see ``endpoints``)."""
    if sel is None:
        return Lattice("L", shape)
    return Lattice("L", shape, *endpoints(shape, sel, "L"))


def build_R(shape: SkewShape, sel: IndexSelection | None = None) -> Lattice:
    """Right lattice; sources sit at (b', beta_{b'}) for b' outside B and
    sinks at (a', alpha_{a'+1}) for a' outside A (see ``endpoints``)."""
    if sel is None:
        return Lattice("R", shape)
    return Lattice("R", shape, *endpoints(shape, sel, "R"))


def render(lat: Lattice) -> str:
    """Monospace picture: nodes '+', sources 'o', sinks 'x' (both: '*'),
    free steps '---', descents '|' (L) or diagonal '\\' (R)."""
    if not lat.nodes:
        return ""
    max_i = max(p.i for p in lat.nodes)
    max_j = max(p.j for p in lat.nodes)
    height = 2 * max_i + 1
    width = 4 * max_j + 1
    grid = [[" "] * width for _ in range(height)]
    for u, v, _ in lat.edges:
        if v.i == u.i:
            row = 2 * u.i
            left = min(u.j, v.j)
            for c in range(4 * left + 1, 4 * left + 4):
                grid[row][c] = "-"
        elif lat.flavor == "L":
            grid[2 * u.i + 1][4 * u.j] = "|"
        else:
            grid[2 * u.i + 1][4 * v.j + 2] = "\\"
    sources = set(lat.sources)
    sinks = set(lat.sinks)
    for p in sorted(lat.nodes):
        if p in sources and p in sinks:
            glyph = "*"
        elif p in sources:
            glyph = "o"
        elif p in sinks:
            glyph = "x"
        else:
            glyph = "+"
        grid[2 * p.i][4 * p.j] = glyph
    return "\n".join("".join(row).rstrip() for row in grid)
