import itertools

import pytest

from skewlgv import connectors
from skewlgv.connectors import (
    DEFAULT_TUPLE_CAP,
    ComplementError,
    Connector,
    EnumerationCapError,
    complementary,
    connector_sum,
    enumerate_paths,
    iter_connectors,
    Path,
    tuple_count,
    weighted_path_count,
)
from skewlgv.detring import det
from skewlgv.identity import build_h_matrix, verify_main
from skewlgv.lattice import Node, build_L, build_R
from skewlgv.poly import Polynomial, e_poly, h_poly
from skewlgv.shape import (
    IndexSelection,
    is_row_connected,
    line_runs,
    make_skew,
    selections,
    skew_shapes,
)
from support import (
    composition_shapes,
    is_partition_pair,
    line_extreme_lattice,
    naive_connectors,
)

FOUR_ROW_SHAPE = make_skew([1, 1, 0, 0], [4, 3, 3, 2])
FOUR_ROW_SEL = IndexSelection.make(4, [0, 1, 2], [1, 3, 4])


def path_count_matrix(lat):
    return [[weighted_path_count(lat, s, t) for t in lat.sinks] for s in lat.sources]


# --- single-pair enumeration --------------------------------------------------


def test_same_node_gives_empty_path():
    lat = build_L(FOUR_ROW_SHAPE, FOUR_ROW_SEL)
    src = Node(0, 1)
    paths = enumerate_paths(lat, src, src)
    assert len(paths) == 1
    assert paths[0].nodes == (src,)
    assert paths[0].weight == Polynomial.one()


def test_sink_above_source_unreachable():
    lat = build_L(FOUR_ROW_SHAPE, FOUR_ROW_SEL)
    assert enumerate_paths(lat, Node(2, 0), Node(1, 4)) == []
    assert weighted_path_count(lat, Node(2, 0), Node(1, 4)) == Polynomial.zero()


def test_weighted_count_is_h_entry():
    lat = build_L(FOUR_ROW_SHAPE, FOUR_ROW_SEL)
    got = weighted_path_count(lat, Node(1, 1), Node(3, 3))
    assert got == h_poly(2, 2, 3)


def test_weighted_count_same_row_is_one():
    lat = build_L(FOUR_ROW_SHAPE, FOUR_ROW_SEL)
    assert weighted_path_count(lat, Node(1, 1), Node(1, 4)) == Polynomial.one()


def test_red_count_is_e_entry():
    red = build_R(FOUR_ROW_SHAPE, FOUR_ROW_SEL)
    got = weighted_path_count(red, Node(2, 3), Node(3, 0))
    assert got == e_poly(1, 1, 3)


def test_red_count_zero_when_degree_outruns_columns():
    # three descents required but only two diagonal columns available
    shape = make_skew([0, 0, 0], [2, 1, 1])
    sel = IndexSelection.make(3, [0, 1, 2], [1, 2, 3])
    red = build_R(shape, sel)
    assert red.sources == (Node(0, 2),)
    assert red.sinks == (Node(3, 0),)
    assert 3 > shape.beta_part(1) - shape.alpha_part(3)
    assert weighted_path_count(red, Node(0, 2), Node(3, 0)) == Polynomial.zero()
    assert e_poly(3, 1, 2) == Polynomial.zero()


def test_paths_in_lex_order():
    shape = make_skew([0, 0], [2, 2])
    sel = IndexSelection.make(2, [0], [2])
    lat = build_L(shape, sel)
    paths = enumerate_paths(lat, Node(0, 0), Node(2, 2))
    seqs = [p.nodes for p in paths]
    assert seqs == sorted(seqs)
    assert weighted_path_count(lat, Node(0, 0), Node(2, 2)) == h_poly(2, 1, 2)


# --- connector enumeration ----------------------------------------------------


def test_empty_selection_yields_single_empty_connector():
    sel = IndexSelection.make(4, [], [])
    lat = build_L(FOUR_ROW_SHAPE, sel)
    conns = list(iter_connectors(lat))
    assert len(conns) == 1
    assert conns[0].paths == ()
    assert conns[0].weight == Polynomial.one()
    assert connector_sum(lat) == Polynomial.one()


def test_equal_selection_forces_horizontal_connector():
    sel = IndexSelection.make(4, [0, 2, 3], [0, 2, 3])
    lat = build_L(FOUR_ROW_SHAPE, sel)
    conns = list(iter_connectors(lat, disjoint_only=True))
    assert len(conns) == 1
    only = conns[0]
    assert only.weight == Polynomial.one()
    for p in only.paths:
        assert all(u.i == v.i for u, v in p.steps())


def test_six_row_configuration_enumeration_and_lgv():
    shape = make_skew([2, 1, 1, 0, 0, 0], [6, 6, 5, 4, 4, 3])
    sel = IndexSelection.make(6, [0, 1, 3, 4], [1, 3, 5, 6])
    lat = build_L(shape, sel)
    conns = list(iter_connectors(lat, disjoint_only=True))
    assert conns
    assert connector_sum(lat) == det(path_count_matrix(lat))
    assert connector_sum(lat) == det(build_h_matrix(shape, sel))


def test_enumeration_cap():
    shape = make_skew([2, 1, 1, 0, 0, 0], [6, 6, 5, 4, 4, 3])
    sel = IndexSelection.make(6, [0, 1, 3, 4], [1, 3, 5, 6])
    lat = build_L(shape, sel)
    assert tuple_count(lat) > 10
    with pytest.raises(EnumerationCapError):
        list(iter_connectors(lat, cap=10))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_connectors_match_the_naive_product(n):
    # the depth-first walk gives the filtered product's connectors, in its
    # order and with its weights, with the crossing cut on and off
    sels = list(selections(n))
    for shape in composition_shapes(n, 3):
        for sel in sels:
            for lat in (build_L(shape, sel), build_R(shape, sel)):
                for disjoint_only in (True, False):
                    got = [
                        (c.paths, c.weight, c.flavor)
                        for c in iter_connectors(lat, disjoint_only)
                    ]
                    expected = naive_connectors(lat, disjoint_only)
                    assert got == expected, (shape.alpha, shape.beta, sel, lat.flavor)


def _refuse(*args, **kwargs):
    raise AssertionError("a path was built before the tuple cap was checked")


def test_cap_bounds_the_product_not_the_kept_connectors(monkeypatch):
    # 1,000 blue path tuples on the 4 x 4 square, of which 10 are disjoint:
    # the walk would visit far fewer than the cap, but the cap reads the
    # full product
    shape = make_skew([0] * 4, [4] * 4)
    sel = IndexSelection.make(4, [0, 1, 2], [2, 3, 4])
    lat = build_L(shape, sel)
    assert tuple_count(lat) == 1000
    assert len(list(iter_connectors(lat, cap=1000))) == 10
    monkeypatch.setattr(connectors, "enumerate_paths", _refuse)
    with pytest.raises(EnumerationCapError, match="1000 path tuples exceed the cap of 999"):
        next(iter_connectors(lat, cap=999))


def test_near_cap_square_brute_sums_equal_det_h():
    # 9,834,496 blue path tuples, just under the default cap; 490 of them
    # are disjoint
    shape = make_skew([0] * 6, [6] * 6)
    sel = IndexSelection.make(6, [0, 1, 2, 3], [3, 4, 5, 6])
    assert tuple_count(build_L(shape, sel)) == 9_834_496 < DEFAULT_TUPLE_CAP
    report = verify_main(shape, sel, with_brute=True)
    assert report.brute_blue == report.det_h
    assert report.brute_red == report.det_h


def test_tuple_count_matches_enumerated_path_lists():
    # the counting pass agrees with the enumerator it guards, on every
    # endpoint pair of both lattices, isolated and coinciding ones included
    for n in range(1, 4):
        sels = list(selections(n))
        for shape in skew_shapes(n, 2):
            for sel in sels:
                for lat in (build_L(shape, sel), build_R(shape, sel)):
                    expected = 1
                    for s, t in zip(lat.sources, lat.sinks):
                        expected *= len(enumerate_paths(lat, s, t))
                    assert tuple_count(lat) == expected


def test_path_counts_are_memoised_per_pair():
    # the cap check and the enumerator share one count per endpoint pair
    lat = build_L(FOUR_ROW_SHAPE, FOUR_ROW_SEL)
    pairs = list(zip(lat.sources, lat.sinks))
    first = [lat.path_counts(s, t) for s, t in pairs]
    assert lat.path_counts(*pairs[0]) is lat.path_counts(*pairs[0])
    connector_sum(lat)
    assert all(lat.path_counts(s, t) is c for (s, t), c in zip(pairs, first))


def test_one_pair_walk_builds_no_node_set(monkeypatch):
    # the first depth's prefix is empty, so its candidates need no node set
    made = []

    def recording(lat, src, snk):
        paths = enumerate_paths(lat, src, snk)
        made.extend(paths)
        return paths

    monkeypatch.setattr(connectors, "enumerate_paths", recording)
    lat = build_L(make_skew([0], [3]), IndexSelection.make(1, [0], [1]))
    assert connector_sum(lat) == h_poly(1, 1, 3)
    assert len(made) == 3
    assert all("node_set" not in p.__dict__ for p in made)


def test_connector_sum_of_probe_shape_red_side():
    shape = make_skew([2, 0, 0], [3, 3, 1])
    sel = IndexSelection.make(3, [0, 1, 2], [1, 2, 3])
    red = build_R(shape, sel)
    x = Polynomial.variable
    assert connector_sum(red) == x(1) * x(2) * x(3)


# --- complementary bijection ---------------------------------------------------


def test_all_horizontal_complement():
    sel = IndexSelection.make(4, [0, 2, 3], [0, 2, 3])
    lat = build_L(FOUR_ROW_SHAPE, sel)
    red_lat = build_R(FOUR_ROW_SHAPE, sel)
    blue = list(iter_connectors(lat, disjoint_only=True))[0]
    red = complementary(blue, red_lat)
    for p in red.paths:
        assert all(u.i == v.i for u, v in p.steps())
    assert red.weight == Polynomial.one()


def test_empty_connector_roundtrip():
    sel = IndexSelection.make(4, list(range(5)), list(range(5)))
    lat = build_L(FOUR_ROW_SHAPE, sel)
    red_lat = build_R(FOUR_ROW_SHAPE, sel)
    blues = list(iter_connectors(lat, disjoint_only=True))
    assert len(blues) == 1
    red = complementary(blues[0], red_lat)
    assert red.paths == ()
    assert complementary(red, lat) == blues[0]


def bijection_suite(shape, sel, lat=None, red_lat=None):
    if lat is None:
        lat = build_L(shape, sel)
    if red_lat is None:
        red_lat = build_R(shape, sel)
    blues = list(iter_connectors(lat, disjoint_only=True))
    reds = list(iter_connectors(red_lat, disjoint_only=True))
    images = [complementary(b, red_lat) for b in blues]
    # weight-preserving injection onto the red side, with inverse
    assert [b.weight for b in blues] == [r.weight for r in images]

    def key(c):
        return tuple(p.nodes for p in c.paths)

    assert len({key(r) for r in images}) == len(images)
    assert sorted(key(r) for r in images) == sorted(key(r) for r in reds)
    for b, r in zip(blues, images):
        assert complementary(r, lat) == b
        shared = b.node_set & r.node_set
        assert shared == b.descent_nodes()
        assert shared == r.descent_nodes()
        assert len(shared) == sum(sel.b_set) - sum(sel.a_set)


def test_bijection_example_exhaustive():
    bijection_suite(FOUR_ROW_SHAPE, FOUR_ROW_SEL)


def test_bijection_small_sweep():
    for n in range(1, 4):
        sels = list(selections(n))
        for shape in skew_shapes(n, 2):
            if not is_row_connected(shape):
                continue
            for sel in sels:
                bijection_suite(shape, sel)


def test_bijection_composition_batch():
    # non-partition pairs need the literal endpoint rule (extreme node of
    # each line); shapes with gaps or node-free lines stay out of scope
    count = 0
    for shape in composition_shapes(3, 2):
        if is_partition_pair(shape):
            continue
        if any(len(line_runs(shape, t)) != 1 for t in range(shape.n + 1)):
            continue
        count += 1
        for sel in selections(3):
            lat = line_extreme_lattice(shape, sel, "L")
            red_lat = line_extreme_lattice(shape, sel, "R")
            bijection_suite(shape, sel, lat, red_lat)
    assert count > 10


def test_lemma_intersections_only_at_descents():
    # rows shared between a disjoint blue connector and its complement all
    # carry a blue descent
    for shape in skew_shapes(2, 3):
        if not is_row_connected(shape):
            continue
        for sel in selections(2):
            lat = build_L(shape, sel)
            red_lat = build_R(shape, sel)
            for blue in iter_connectors(lat, disjoint_only=True):
                red = complementary(blue, red_lat)
                down = blue.descent_nodes()
                for node in blue.node_set & red.node_set:
                    assert node in down


# --- LGV agreement and nonpermutability ----------------------------------------


def test_lgv_brute_equals_path_matrix_det_small_sweep():
    # the path-count determinant matches brute force on every case, with no
    # connectivity caveat; closed forms are a separate question
    for n in range(1, 4):
        sels = list(selections(n))
        for shape in skew_shapes(n, 2):
            for sel in sels:
                lat = build_L(shape, sel)
                red = build_R(shape, sel)
                assert connector_sum(lat) == det(path_count_matrix(lat))
                assert connector_sum(red) == det(path_count_matrix(red))


def test_nonpermutable_no_disjoint_tuple_out_of_order():
    for n in range(1, 4):
        maxp = 3 if n < 3 else 2
        sels = [s for s in selections(n) if s.l >= 2]
        for shape in skew_shapes(n, maxp):
            for sel in sels:
                lat = build_L(shape, sel)
                lists = [
                    enumerate_paths(lat, s, t)
                    for s, t in zip(lat.sources, lat.sinks)
                ]
                for perm in itertools.permutations(range(sel.l)):
                    if perm == tuple(range(sel.l)):
                        continue
                    permuted = [
                        enumerate_paths(lat, lat.sources[i], lat.sinks[perm[i]])
                        for i in range(sel.l)
                    ]
                    for combo in itertools.product(*permuted):
                        used = set()
                        disjoint = True
                        for p in combo:
                            if not used.isdisjoint(p.node_set):
                                disjoint = False
                                break
                            used.update(p.node_set)
                        assert not disjoint, (shape.alpha, shape.beta, sel, perm)


def test_complementary_rejects_wrong_flavor():
    sel = IndexSelection.make(4, [0], [1])
    lat = build_L(FOUR_ROW_SHAPE, sel)
    red_lat = build_R(FOUR_ROW_SHAPE, sel)
    red = list(iter_connectors(red_lat, disjoint_only=True))[0]
    with pytest.raises(ValueError):
        complementary(red, red_lat)
    blue = list(iter_connectors(lat, disjoint_only=True))[0]
    with pytest.raises(ValueError):
        complementary(blue, lat)
    # a lattice of the connector's own color is refused, not walked back
    # onto the connector itself
    lat = build_L(FOUR_ROW_SHAPE, FOUR_ROW_SEL)
    red_lat = build_R(FOUR_ROW_SHAPE, FOUR_ROW_SEL)
    blue = list(iter_connectors(lat, disjoint_only=True))[0]
    red = complementary(blue, red_lat)
    with pytest.raises(ValueError):
        complementary(blue, lat)
    with pytest.raises(ValueError):
        complementary(red, red_lat)


def test_complement_reports_a_missing_forced_descent():
    # R has no descent from (0, 1) here: the box beneath it is not in the
    # diagram, so a blue connector descending there has no complement
    red_lat = build_R(FOUR_ROW_SHAPE, FOUR_ROW_SEL)
    step = Path((Node(0, 1), Node(1, 1)), Polynomial.variable(1))
    blue = Connector((step,), step.weight, "blue")
    with pytest.raises(ComplementError, match=r"R-descent from Node\(i=0, j=1\)"):
        complementary(blue, red_lat)


def test_complement_contract_violation_on_degenerate_shape():
    # a disconnected diagram strands the complementary walk short of its
    # sink; the construction reports that instead of returning junk
    shape = make_skew([3, 0], [4, 2])
    sel = IndexSelection.make(2, [0], [0])
    lat = build_L(shape, sel)
    red_lat = build_R(shape, sel)
    blues = list(iter_connectors(lat, disjoint_only=True))
    assert len(blues) == 1
    with pytest.raises(ComplementError):
        complementary(blues[0], red_lat)


# --- the walk memo of the target lattice ---------------------------------------


def test_shared_walks_match_fresh_lattices():
    # complements walked on one lattice, through its memo, against each
    # walked on a lattice built for it alone, both ways round
    cases = 0
    for n in range(1, 4):
        sels = list(selections(n))
        for shape in skew_shapes(n, 3):
            if not is_row_connected(shape):
                continue
            for sel in sels:
                lat = build_L(shape, sel)
                red_lat = build_R(shape, sel)
                for blue in iter_connectors(lat, disjoint_only=True):
                    red = complementary(blue, red_lat)
                    assert red == complementary(blue, build_R(shape, sel))
                    assert complementary(red, lat) == complementary(red, build_L(shape, sel))
                    cases += 1
    assert cases > 1000


def test_equal_walked_paths_are_one_object():
    red_lat = build_R(FOUR_ROW_SHAPE, FOUR_ROW_SEL)
    reds = [
        complementary(blue, red_lat)
        for blue in iter_connectors(build_L(FOUR_ROW_SHAPE, FOUR_ROW_SEL))
    ]
    paths = [p for red in reds for p in red.paths]
    by_nodes = {}
    for p in paths:
        assert by_nodes.setdefault(p.nodes, p) is p
    # several complements share a red path
    assert len(by_nodes) < len(paths)


def test_failed_walk_fails_alike_on_a_second_call():
    # the gapped shape strands the walk; its result is memoised, and the
    # contract check still refuses it on every call
    shape = make_skew([3, 0], [4, 2])
    sel = IndexSelection.make(2, [0], [0])
    red_lat = build_R(shape, sel)
    (blue,) = iter_connectors(build_L(shape, sel), disjoint_only=True)
    text = "walk ended at Node(i=1, j=3), expected sink Node(i=1, j=0)"
    for _ in range(2):
        with pytest.raises(ComplementError) as exc:
            complementary(blue, red_lat)
        assert str(exc.value) == text
    # a walk that raises is not memoised: it raises again
    red_lat = build_R(FOUR_ROW_SHAPE, FOUR_ROW_SEL)
    step = Path((Node(0, 1), Node(1, 1)), Polynomial.variable(1))
    blue = Connector((step,), step.weight, "blue")
    for _ in range(2):
        with pytest.raises(ComplementError, match=r"R-descent from Node\(i=0, j=1\)"):
            complementary(blue, red_lat)
