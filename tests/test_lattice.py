from pathlib import Path

import pytest

from skewlgv.identity import verify_main
from skewlgv.lattice import (
    STEPS,
    Lattice,
    Node,
    build_L,
    build_R,
    endpoints,
    render,
)
from skewlgv.poly import Polynomial
from skewlgv.shape import (
    IndexSelection,
    ShapeError,
    is_row_connected,
    line_runs,
    make_skew,
    rectangle,
    selections,
    skew_shapes,
)
from support import composition_shapes, line_extreme_endpoints, line_extreme_lattice

DATA = Path(__file__).parent / "data"


def kind(e):
    """An edge's direction, read off its two ends."""
    if e.dst.i == e.src.i:
        return "horizontal"
    return "vertical" if e.dst.j == e.src.j else "diagonal"


def edge_count(lat, k):
    return sum(1 for e in lat.edges if kind(e) == k)


def topological_potential(lat):
    """True when a strictly increasing potential orders every edge, which
    exhibits a topological order (hence acyclicity)."""
    # i + dj * j grows along the free step (0, dj) and along either descent
    dj = STEPS[lat.flavor][0][1]
    pot = lambda p: p.i + dj * p.j
    return all(pot(e.dst) > pot(e.src) for e in lat.edges)


def test_sources_and_sinks_of_six_row_configuration():
    shape = make_skew([2, 1, 1, 0, 0, 0], [6, 6, 5, 4, 4, 3])
    sel = IndexSelection.make(6, [0, 1, 3, 4], [1, 3, 5, 6])
    lat = build_L(shape, sel)
    assert lat.sources == (Node(0, 2), Node(1, 1), Node(3, 0), Node(4, 0))
    assert lat.sinks == (Node(1, 6), Node(3, 5), Node(5, 4), Node(6, 3))
    red = build_R(shape, sel)
    assert red.sources == (Node(0, 6), Node(2, 6), Node(4, 4))
    assert red.sinks == (Node(2, 1), Node(5, 0), Node(6, 0))


def test_unit_square():
    shape = rectangle(1, 1)
    sel = IndexSelection.make(1, [0], [0])
    lat = build_L(shape, sel)
    assert lat.nodes == {Node(0, 0), Node(0, 1), Node(1, 0), Node(1, 1)}
    assert lat.sources == (Node(0, 0),)
    assert lat.sinks == (Node(0, 1),)
    assert edge_count(lat, "horizontal") == 2
    assert edge_count(lat, "vertical") == 1


def test_unit_square_empty_selection_red():
    shape = rectangle(1, 1)
    sel = IndexSelection.make(1, [0, 1], [0, 1])
    red = build_R(shape, sel)
    assert red.sources == ()
    assert red.sinks == ()


def test_isolated_designated_point():
    # row 2 is empty, so the designated point of row 2 touches no box
    shape = make_skew([1, 1], [2, 1])
    sel = IndexSelection.make(2, [2], [2])
    lat = build_L(shape, sel)
    assert lat.sources == (Node(2, 1),)
    assert lat.sinks == (Node(2, 1),)
    assert lat.isolated_nodes == (Node(2, 1),)
    assert Node(2, 1) in lat.nodes


def test_red_sources_use_top_boundary_rule():
    shape = make_skew([1, 1, 0, 0], [4, 3, 3, 2])
    sel = IndexSelection.make(4, [0, 1, 2], [1, 3, 4])
    red = build_R(shape, sel)
    # 0 is outside B, so the row-0 source column reads beta_1
    assert red.sources == (Node(0, 4), Node(2, 3))


def test_edge_weights_are_column_variables():
    shape = make_skew([0, 0], [2, 1])
    lat = build_L(shape, None)
    for e in lat.edges:
        if kind(e) == "vertical":
            assert str(e.weight) == f"x{e.src.j}"
        else:
            assert e.weight == 1 or str(e.weight) == "1"
    red = build_R(shape, None)
    for e in red.edges:
        if kind(e) == "diagonal":
            assert str(e.weight) == f"x{e.src.j}"
            assert e.dst == Node(e.src.i + 1, e.src.j - 1)


def test_structural_invariants_exhaustive():
    # every shape with n <= 6 and parts <= 6: shared node sets, one weighted
    # descent per box on each side, monotone edges, and a topological order
    for n in range(1, 7):
        for shape in skew_shapes(n, 6):
            lat = build_L(shape, None)
            red = build_R(shape, None)
            boxes = shape.box_count()
            assert lat.nodes == red.nodes
            assert edge_count(lat, "vertical") == boxes
            assert edge_count(red, "diagonal") == boxes
            assert topological_potential(lat)
            assert topological_potential(red)
            for e in lat.edges:
                assert (e.dst.i == e.src.i and e.dst.j == e.src.j + 1) or (
                    e.dst.i == e.src.i + 1 and e.dst.j == e.src.j
                )
            for e in red.edges:
                assert e.dst.j == e.src.j - 1


def test_with_selection_matches_direct_build():
    # build_L/build_R with a selection are the lattices on endpoints' rule
    shape = make_skew([1, 1], [2, 1])
    for a in ([0], [2], [0, 1]):
        sel = IndexSelection.make(2, a, a)
        for build, flavor in ((build_L, "L"), (build_R, "R")):
            direct = build(shape, sel)
            derived = Lattice(flavor, shape, *endpoints(shape, sel, flavor))
            assert derived.sources == direct.sources
            assert derived.sinks == direct.sinks
            assert derived.nodes == direct.nodes


@pytest.mark.parametrize(
    "alpha, beta, sel",
    [
        # a longer selection reads lines the shape does not have
        ([0], [2], IndexSelection.make(3, [0, 1], [1, 2])),
        # a shorter one would build a lattice on only some of the lines
        ([1, 0, 0], [3, 2, 1], IndexSelection.make(1, [0], [1])),
    ],
)
def test_selection_of_another_size_is_refused(alpha, beta, sel):
    shape = make_skew(alpha, beta)
    with pytest.raises(ShapeError) as refused:
        verify_main(shape, sel)
    for build in (build_L, build_R):
        with pytest.raises(ShapeError) as exc:
            build(shape, sel)
        assert str(exc.value) == str(refused.value)
        assert str(exc.value) == f"selection on 0..{sel.n} for a shape of {shape.n} rows"


def test_lattice_refuses_unequal_endpoint_counts():
    # a connector pairs the i-th source with the i-th sink, so an unpaired
    # source would otherwise drop out of every sum unseen
    shape = make_skew([1, 1, 0, 0], [4, 3, 3, 2])
    with pytest.raises(ShapeError, match="2 sources but 1 sinks"):
        Lattice("L", shape, (Node(0, 1), Node(1, 1)), (Node(1, 4),))


def test_lattice_refuses_an_unknown_flavor():
    with pytest.raises(ShapeError, match="unknown lattice flavor 'blue'"):
        Lattice("blue", rectangle(1, 1))


def test_render_goldens():
    shape = make_skew([1, 1, 0, 0], [4, 3, 3, 2])
    sel = IndexSelection.make(4, [0, 1, 2], [1, 3, 4])
    assert render(build_R(shape, sel)) + "\n" == (DATA / "four_row_R.txt").read_text()
    assert render(build_L(shape, sel)) + "\n" == (DATA / "four_row_L.txt").read_text()
    sq = rectangle(1, 1)
    s1 = IndexSelection.make(1, [0], [0])
    assert render(build_L(sq, s1)) + "\n" == (DATA / "unit_square_L.txt").read_text()


def test_render_marks_coinciding_source_sink():
    shape = make_skew([1, 1], [2, 1])
    sel = IndexSelection.make(2, [2], [2])
    out = render(build_L(shape, sel))
    assert "*" in out


def test_successors_and_edge_weight_agree_with_edges():
    # the implicit graph answers point queries exactly as its edge view
    # lists it; free steps all carry the shared one instance
    for n in range(1, 4):
        for shape in skew_shapes(n, 3):
            for lat in (build_L(shape, None), build_R(shape, None)):
                for e in lat.edges:
                    assert any(
                        v == e.dst and w is e.weight for v, w in lat.successors(e.src)
                    )
                    if kind(e) == "horizontal":
                        assert e.weight is Polynomial.one()
                listed = {(e.src, e.dst) for e in lat.edges}
                for u in lat.nodes:
                    out = {v for v, _ in lat.successors(u)}
                    for di, dj in ((0, 1), (1, 0), (0, -1), (1, -1)):
                        v = Node(u.i + di, u.j + dj)
                        if (u, v) not in listed:
                            assert v not in out


def test_reachable_nodes_are_those_with_a_path():
    # the walk memo's key rests on this set: a node is reachable from u
    # exactly when some path runs from u to it
    for n in range(1, 4):
        for shape in skew_shapes(n, 3):
            for lat in (build_L(shape, None), build_R(shape, None)):
                for u in lat.nodes:
                    paths_to = {v for v in lat.nodes if lat.path_counts(u, v).get(u)}
                    assert lat.reachable(u) == paths_to
                    assert lat.reachable(u) is lat.reachable(u)


def test_isolated_points_are_distinct_sorted_and_off_the_boxes():
    # row 2 spans columns 0..1 only, so (2, 2) and (2, 3) touch no box
    shape = make_skew([2, 0], [3, 1])
    assert Node(2, 2) not in shape.corners and Node(2, 3) not in shape.corners
    assert Node(0, 2) in shape.corners and Node(1, 1) in shape.corners
    # rows 1 and 2 are empty: lines 0 and 1 each have one designated point,
    # named twice, and line 2's right point (2, 2) lies past row 3's boxes
    shape = make_skew([2, 2, 0], [2, 2, 1])
    assert shape.isolated_points == (Node(0, 2), Node(1, 2), Node(2, 2))
    sel = IndexSelection.make(3, [2, 1], [1, 2])
    assert build_L(shape, sel).isolated_nodes == (Node(1, 2), Node(2, 2))
    assert build_L(shape, None).isolated_nodes == ()


def test_node_is_the_shape_point():
    from skewlgv import shape

    assert Node is shape.Node


def test_endpoint_rule_single_source():
    # partition pairs: the line-extreme rule of the tests agrees with the
    # explicit points of endpoints wherever those lie on a run of their
    # line, and the reported isolated points are the full selection's
    # isolated nodes
    compared = 0
    for n in range(1, 4):
        sels = list(selections(n))
        full = IndexSelection.make(n, range(n + 1), range(n + 1))
        for shape in skew_shapes(n, 3):
            assert shape.isolated_points == build_L(shape, full).isolated_nodes
            runs = [line_runs(shape, t) for t in range(n + 1)]
            for sel in sels:
                for flavor in ("L", "R"):
                    explicit = endpoints(shape, sel, flavor)
                    extreme = line_extreme_endpoints(shape, sel, flavor)
                    for side, side_x in zip(explicit, extreme):
                        for p, q in zip(side, side_x):
                            if any(lo <= p.j <= hi for lo, hi in runs[p.i]):
                                assert q == p
                                compared += 1
    assert compared > 10_000


def test_geometry_matches_per_box_recomputation():
    # every composition shape with n <= 3 and parts <= 3, every selection,
    # both endpoint rules: nodes, isolated nodes, the box rule and each
    # step against a recomputation from the boxes alone
    descents = {"L": (1, 0), "R": (1, -1)}
    for n in range(1, 4):
        sels = list(selections(n))
        for shape in composition_shapes(n, 3):
            alpha, beta = shape.alpha, shape.beta
            boxes = {
                (row, j)
                for row in range(1, n + 1)
                for j in range(alpha[row - 1] + 1, beta[row - 1] + 1)
            }
            corners = {Node(row + di, j + dj) for row, j in boxes for di in (-1, 0) for dj in (-1, 0)}
            designated = {
                p
                for t in range(n + 1)
                for p in (Node(t, alpha[min(t, n - 1)]), Node(t, beta[max(t - 1, 0)]))
            }
            assert shape.corners == corners
            assert shape.isolated_points == tuple(sorted(designated - corners))
            assert shape.row_connected == is_row_connected(shape)
            # per-shape values are computed once
            assert shape.corners is shape.corners
            assert shape.isolated_points is shape.isolated_points
            assert shape.row_connected is shape.row_connected
            grid = [Node(i, j) for i in range(-1, n + 2) for j in range(-1, 6)]
            for u in grid:
                assert shape.has_box(u.i, u.j) == ((u.i, u.j) in boxes)
            for base in (build_L(shape), build_R(shape)):
                # a box in row r, column j carries the free steps along its
                # top and bottom sides and one descent weighing x_j
                dj = 1 if base.flavor == "L" else -1
                di_d, dj_d = descents[base.flavor]
                expected = {}
                for row, j in boxes:
                    start = j - 1 if dj == 1 else j
                    for i in (row - 1, row):
                        expected[Node(i, start), Node(i, start + dj)] = Polynomial.one()
                    expected[Node(row - 1, j), Node(row - 1 + di_d, j + dj_d)] = Polynomial.variable(j)
                read = {(u, v): w for u in grid for v, w in base.successors(u)}
                assert read == expected
                for sel in sels:
                    for lat in (
                        Lattice(base.flavor, shape, *endpoints(shape, sel, base.flavor)),
                        line_extreme_lattice(shape, sel, base.flavor),
                    ):
                        ends = set(lat.sources) | set(lat.sinks)
                        isolated = tuple(sorted(ends - corners))
                        assert lat.isolated_nodes == isolated
                        assert lat.nodes == corners | set(isolated)
