"""Path enumeration, the disjointness filter, and the complementary-connector
bijection.

A connector is a tuple of paths joining the i-th source to the i-th sink,
"non-intersecting" meaning vertex-disjoint.  The brute-force enumerator is
the oracle that the determinants are checked against, so it reads nothing
of them: it lists every path of each pair and walks the product of those
lists depth first, choosing one pair's path at a time.  A path that meets
the prefix chosen so far is cut there, with every tuple that would extend
it; each prefix carries its weight down the walk.  A configurable cap
guards against combinatorial explosion; it bounds the full product, not
the tuples the cut leaves, and is checked on the lattice's path counts
before any path is built.

The bijection sends a vertex-disjoint blue connector to the red connector
obtained by walking R from each red source, taking the free step except at
nodes where the blue connector descends, where the red walk descends too
(the two descents cross the same box, hence carry the same weight).  Its
inverse is the same walk on L from the descents of a red connector, so
``complementary`` takes a connector of either color and the one lattice of
the other color that it walks, and refuses a lattice of the connector's
own color.  The step directions and the path counts belong to ``lattice``;
this module only walks them.

Many connectors of one lattice share a walk, so the walks are memoised on
the target lattice and live as long as it does.  A walk from a source
reads its diversion set only at the nodes it visits, all of them reachable
from the source, so the memo key is the source, its sink, and the
diversion nodes reachable from the source: equal keys give equal walks.
Only walks that return are kept.  Equal walked paths are one ``Path``
object, so their node sets, descents and text are built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .lattice import Lattice, Node
from .poly import Polynomial

DEFAULT_TUPLE_CAP = 10_000_000


class EnumerationCapError(RuntimeError):
    """The Cartesian product of path lists exceeds the configured cap."""


class ComplementError(RuntimeError):
    """The complementary walk violated its contract (an implementation
    bug or a malformed input connector, never a valid state)."""


@dataclass(frozen=True)
class Path:
    nodes: tuple[Node, ...]
    weight: Polynomial

    @cached_property
    def node_set(self) -> frozenset[Node]:
        return frozenset(self.nodes)

    @cached_property
    def descents(self) -> frozenset[Node]:
        """Nodes from which the path descends: straight down on L, down
        and to the left on R."""
        # each lattice has one descent, the only step that changes rows
        return frozenset(u for u, v in self.steps() if v.i != u.i)

    def steps(self) -> Iterator[tuple[Node, Node]]:
        return zip(self.nodes, self.nodes[1:])


def _disjoint(paths: Iterable[Path]) -> bool:
    used: set[Node] = set()
    for p in paths:
        nodes = p.node_set
        if not used.isdisjoint(nodes):
            return False
        used |= nodes
    return True


def _weight(paths: Iterable[Path]) -> Polynomial:
    weight = Polynomial.one()
    for p in paths:
        weight = weight * p.weight
    return weight


@dataclass(frozen=True)
class Connector:
    paths: tuple[Path, ...]
    weight: Polynomial
    flavor: str  # "blue" or "red"

    @cached_property
    def node_set(self) -> frozenset[Node]:
        out: set[Node] = set()
        for p in self.paths:
            out.update(p.nodes)
        return frozenset(out)

    def is_disjoint(self) -> bool:
        return _disjoint(self.paths)

    def descent_nodes(self) -> frozenset[Node]:
        """Nodes from which some path descends (see ``Path.descents``)."""
        return frozenset().union(*(p.descents for p in self.paths))


# the color of each lattice flavor's connectors
_COLORS = {"L": "blue", "R": "red"}


def enumerate_paths(lat: Lattice, src: Node, snk: Node) -> list[Path]:
    """All directed paths src -> snk, in lexicographic node-sequence order.

    The same node gives the single empty path of weight 1.
    """
    if src == snk:
        return [Path((src,), Polynomial.one())]
    reach = lat.path_counts(src, snk)
    out: list[Path] = []
    # depth first, with the weight and a successor iterator of each prefix
    # node on an explicit stack, so a long path needs no deep recursion
    prefix: list[Node] = [src]
    stack = [(Polynomial.one(), iter(lat.successors(src)))]
    while stack:
        weight, steps = stack[-1]
        for v, w in steps:
            if reach.get(v):  # else no path from v reaches snk
                break
        else:
            stack.pop()
            prefix.pop()
            continue
        if v == snk:
            out.append(Path((*prefix, v), weight * w))
        else:
            prefix.append(v)
            stack.append((weight * w, iter(lat.successors(v))))
    return out


def weighted_path_count(lat: Lattice, src: Node, snk: Node) -> Polynomial:
    """Sum of path weights between one source/sink pair."""
    return Polynomial.sum(p.weight for p in enumerate_paths(lat, src, snk))


def pair_path_lists(lat: Lattice) -> list[list[Path]]:
    """Per-pair path lists, i-th source to i-th sink."""
    return [
        enumerate_paths(lat, s, t) for s, t in zip(lat.sources, lat.sinks)
    ]


def tuple_count(lat: Lattice) -> int:
    """Size of the full Cartesian product the enumerator would visit,
    counted without building any path."""
    total = 1
    for s, t in zip(lat.sources, lat.sinks):
        total *= lat.path_counts(s, t).get(s, 0)
        if total == 0:
            return 0
    return total


def check_tuple_cap(lat: Lattice, cap: int | None = None) -> None:
    """Raise EnumerationCapError when enumerating lat's connectors would
    visit more path tuples than the cap allows."""
    limit = DEFAULT_TUPLE_CAP if cap is None else cap
    total = tuple_count(lat)
    if total > limit:
        raise EnumerationCapError(
            f"{total} path tuples exceed the cap of {limit}"
        )


def iter_connectors(
    lat: Lattice,
    disjoint_only: bool = True,
    cap: int | None = None,
) -> Iterator[Connector]:
    """lat's source-to-sink path tuples, only the vertex-disjoint ones unless
    disjoint_only is false, in the order of the Cartesian product of the
    per-pair path lists (the last pair's path varies fastest).

    The walk is depth first over the pairs.  Under disjoint_only a candidate
    path that meets a node of the prefix chosen so far is skipped with
    every tuple that extends it.  Each depth carries its prefix's weight,
    folded from one in pair order, so a connector costs one product.  The
    cap bounds the full product, not the tuples the walk visits, and is
    checked before any path is built."""
    check_tuple_cap(lat, cap)
    color = _COLORS[lat.flavor]
    lists = pair_path_lists(lat)
    if not lists:  # the product of no lists is the one empty connector
        yield Connector((), Polynomial.one(), color)
        return
    last = len(lists) - 1
    prefix: list[Path] = []
    # per depth: the candidates left there, and the weight and nodes of the
    # prefix above it
    stack = [(iter(lists[0]), Polynomial.one(), frozenset())]
    while stack:
        candidates, weight, used = stack[-1]
        depth = len(prefix)
        for p in candidates:
            # the first depth's prefix is empty, so its paths need no node set
            if disjoint_only and used and not used.isdisjoint(p.node_set):
                continue
            if depth == last:
                yield Connector((*prefix, p), weight * p.weight, color)
                continue
            prefix.append(p)
            stack.append(
                (iter(lists[depth + 1]), weight * p.weight, used | p.node_set)
            )
            break
        else:
            stack.pop()
            if prefix:
                prefix.pop()


def connector_sum(lat: Lattice, cap: int | None = None) -> Polynomial:
    """Total weight of the vertex-disjoint connectors; the brute-force side
    of the path-count determinant identity."""
    return Polynomial.sum(c.weight for c in iter_connectors(lat, disjoint_only=True, cap=cap))


def _walk(start: Node, stop_at: Node, divert_at: frozenset[Node], lat: Lattice) -> Path:
    key = (start, stop_at, divert_at & lat.reachable(start))
    path = lat.walks.get(key)
    if path is None:
        path = lat.walks[key] = _walk_once(start, stop_at, divert_at, lat)
    return path


def _walk_once(start: Node, stop_at: Node, divert_at: frozenset[Node], lat: Lattice) -> Path:
    # the walk ends on reaching its matched sink; no descent can be forced
    # there because the box beneath a designated endpoint lies outside the
    # diagram.  For partitions the sink also ends its line, so stopping
    # there is the only possible termination anyway; general compositions
    # can carry edges past the sink, hence the explicit stop.
    nodes = [start]
    weight = Polynomial.one()
    cur = start
    while cur != stop_at:
        descend = cur in divert_at
        # the descent is the only step that changes rows
        for nxt, w in lat.successors(cur):
            if (nxt.i != cur.i) == descend:
                break
        else:
            if descend:
                raise ComplementError(
                    f"required {lat.flavor}-descent from {cur} is missing"
                )
            break  # stranded; complementary's contract check reports it
        weight = weight * w
        nodes.append(nxt)
        cur = nxt
    nodes = tuple(nodes)
    path = lat.walked_paths.get(nodes)
    if path is None:
        path = lat.walked_paths[nodes] = Path(nodes, weight)
    return path


def complementary(c: Connector, target: Lattice) -> Connector:
    """The connector of target's color that walks from each of target's
    sources, descending exactly where the disjoint connector c descends:
    blue on R gives its red complement, red on L the inverse."""
    color = _COLORS[target.flavor]
    if color == c.flavor:
        raise ValueError(f"a {c.flavor} connector has no complement on {target.flavor}")
    divert_at = c.descent_nodes()
    paths = tuple(
        _walk(src, snk, divert_at, target)
        for src, snk in zip(target.sources, target.sinks)
    )
    weight = _weight(paths)
    if not _disjoint(paths):
        raise ComplementError("complementary walk produced crossing paths")
    for p, expected in zip(paths, target.sinks):
        if p.nodes[-1] != expected:
            raise ComplementError(
                f"walk ended at {p.nodes[-1]}, expected sink {expected}"
            )
    return Connector(paths, weight, color)
