"""Path enumeration and the complementary-connector bijection.

A connector is a tuple of paths joining the i-th source to the i-th sink,
"non-intersecting" meaning vertex-disjoint.  The brute-force enumerator
walks the full Cartesian product of per-pair path lists and filters; it is
deliberately naive because its whole job is to be an oracle that the
determinants are checked against.  A configurable cap guards against
combinatorial explosion; it is checked by counting paths before any path
is built.

The bijection sends a vertex-disjoint blue connector to the red connector
obtained by walking from each red source, stepping horizontally except at
nodes where the blue connector descends, where the red walk takes the
box's diagonal instead (the two steps cross the same box, hence carry the
same weight).  The inverse construction swaps the roles of the colors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

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

    def steps(self) -> Iterator[tuple[Node, Node]]:
        return zip(self.nodes, self.nodes[1:])


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
        used: set[Node] = set()
        for p in self.paths:
            if not used.isdisjoint(p.node_set):
                return False
            used.update(p.node_set)
        return True

    def vertical_step_nodes(self) -> frozenset[Node]:
        """Nodes from which some path steps straight down."""
        return frozenset(
            u
            for p in self.paths
            for u, v in p.steps()
            if v.i == u.i + 1 and v.j == u.j
        )

    def diagonal_step_nodes(self) -> frozenset[Node]:
        """Nodes from which some path steps down and to the left."""
        return frozenset(
            u
            for p in self.paths
            for u, v in p.steps()
            if v.i == u.i + 1 and v.j == u.j - 1
        )


def _flavor_of(lat: Lattice) -> str:
    return "blue" if lat.flavor == "L" else "red"


# horizontal edges all share this weight instance; skipping those products
# keeps the brute-force sweeps cheap
_ONE_SENTINEL = Polynomial.one()


def enumerate_paths(lat: Lattice, src: Node, snk: Node) -> list[Path]:
    """All directed paths src -> snk, in lexicographic node-sequence order.

    The same node gives the single empty path of weight 1.
    """
    if src == snk:
        return [Path((src,), Polynomial.one())]
    leftward = lat.flavor == "R"
    out: list[Path] = []
    prefix: list[Node] = [src]

    def feasible(u: Node) -> bool:
        if u.i > snk.i:
            return False
        return u.j >= snk.j if leftward else u.j <= snk.j

    def walk(u: Node, weight: Polynomial) -> None:
        for v, w in lat.successors(u):
            if not feasible(v):
                continue
            nw = weight if w is _ONE_SENTINEL else weight * w
            prefix.append(v)
            if v == snk:
                out.append(Path(tuple(prefix), nw))
            else:
                walk(v, nw)
            prefix.pop()

    walk(src, Polynomial.one())
    return out


def weighted_path_count(lat: Lattice, src: Node, snk: Node) -> Polynomial:
    """Sum of path weights between one source/sink pair."""
    acc = Polynomial.zero()
    for p in enumerate_paths(lat, src, snk):
        acc = acc + p.weight
    return acc


def pair_path_lists(lat: Lattice) -> list[list[Path]]:
    """Per-pair path lists, i-th source to i-th sink."""
    return [
        enumerate_paths(lat, s, t) for s, t in zip(lat.sources, lat.sinks)
    ]


def _path_count(lat: Lattice, src: Node, snk: Node) -> int:
    # every step moves down or toward the sink's column, so a path stays in
    # the box spanned by src and snk; count backwards from snk, row by row
    step = 1 if lat.flavor == "L" else -1
    counts = {snk: 1}
    for i in range(snk.i, src.i - 1, -1):
        for j in range(snk.j, src.j - step, -step):
            u = Node(i, j)
            if u != snk:
                counts[u] = sum(counts.get(v, 0) for v, _ in lat.successors(u))
    return counts.get(src, 0)


def tuple_count(lat: Lattice) -> int:
    """Size of the full Cartesian product the enumerator would visit,
    counted without building any path."""
    total = 1
    for s, t in zip(lat.sources, lat.sinks):
        total *= _path_count(lat, s, t)
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
    check_tuple_cap(lat, cap)
    lists = pair_path_lists(lat)
    flavor = _flavor_of(lat)
    if not lists:
        yield Connector((), Polynomial.one(), flavor)
        return
    for combo in itertools.product(*lists):
        if disjoint_only:
            used: set[Node] = set()
            ok = True
            for p in combo:
                if not used.isdisjoint(p.node_set):
                    ok = False
                    break
                used.update(p.node_set)
            if not ok:
                continue
        weight = Polynomial.one()
        for p in combo:
            weight = weight * p.weight
        yield Connector(tuple(combo), weight, flavor)


def enumerate_connectors(
    lat: Lattice,
    disjoint_only: bool = True,
    cap: int | None = None,
) -> list[Connector]:
    """Materialised list of (disjoint) source-to-sink path tuples."""
    return list(iter_connectors(lat, disjoint_only, cap))


def connector_sum(lat: Lattice, cap: int | None = None) -> Polynomial:
    """Total weight of the vertex-disjoint connectors; the brute-force side
    of the path-count determinant identity."""
    acc = Polynomial.zero()
    for c in iter_connectors(lat, disjoint_only=True, cap=cap):
        acc = acc + c.weight
    return acc


def _walk(
    start: Node,
    stop_at: Node,
    divert_at: frozenset[Node],
    target_lat: Lattice,
    divert_delta: tuple[int, int],
    plain_delta: tuple[int, int],
) -> Path:
    # the walk ends on reaching its matched sink; no diverting step can be
    # forced there because the box beneath a designated endpoint lies
    # outside the diagram.  For partitions the sink also ends its line, so
    # stopping there is the only possible termination anyway; general
    # compositions can carry edges past the sink, hence the explicit stop.
    nodes = [start]
    weight = Polynomial.one()
    cur = start
    while cur != stop_at:
        if cur in divert_at:
            nxt = Node(cur.i + divert_delta[0], cur.j + divert_delta[1])
            w = target_lat.edge_weight(cur, nxt)
            if w is None:
                raise ComplementError(
                    f"required {target_lat.flavor}-step {cur} -> {nxt} is missing"
                )
            weight = weight * w
        else:
            nxt = Node(cur.i + plain_delta[0], cur.j + plain_delta[1])
            if target_lat.edge_weight(cur, nxt) is None:
                break  # stranded; the assembly contract check reports it
        nodes.append(nxt)
        cur = nxt
    return Path(tuple(nodes), weight)


def _assemble(
    paths: Sequence[Path], target_lat: Lattice, flavor: str
) -> Connector:
    weight = Polynomial.one()
    for p in paths:
        weight = weight * p.weight
    conn = Connector(tuple(paths), weight, flavor)
    if not conn.is_disjoint():
        raise ComplementError("complementary walk produced crossing paths")
    for p, expected in zip(paths, target_lat.sinks):
        if p.nodes[-1] != expected:
            raise ComplementError(
                f"walk ended at {p.nodes[-1]}, expected sink {expected}"
            )
    return conn


def complementary(
    blue: Connector, l_lat: Lattice, r_lat: Lattice
) -> Connector:
    """Red connector complementary to a vertex-disjoint blue connector."""
    if blue.flavor != "blue":
        raise ValueError("complementary expects a blue connector")
    divert = blue.vertical_step_nodes()
    paths = [
        _walk(src, snk, divert, r_lat, (1, -1), (0, -1))
        for src, snk in zip(r_lat.sources, r_lat.sinks)
    ]
    return _assemble(paths, r_lat, "red")


def complementary_inverse(
    red: Connector, l_lat: Lattice, r_lat: Lattice
) -> Connector:
    """Blue connector whose complement is the given red connector."""
    if red.flavor != "red":
        raise ValueError("complementary_inverse expects a red connector")
    divert = red.diagonal_step_nodes()
    paths = [
        _walk(src, snk, divert, l_lat, (1, 0), (0, 1))
        for src, snk in zip(l_lat.sources, l_lat.sinks)
    ]
    return _assemble(paths, l_lat, "blue")


def intersection_nodes(c1: Connector, c2: Connector) -> frozenset[Node]:
    """Nodes lying on both connectors."""
    return c1.node_set & c2.node_set
