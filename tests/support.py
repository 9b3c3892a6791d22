"""Helpers shared by the tests, written without the package's geometry.

The line-extreme endpoint rule moves each designated point to the matching
extreme column of its line's box sides; a line without boxes keeps its
points.  Composition pairs need it for the connector bijection, since their
designated points can sit strictly inside a line.
"""

import itertools

from skewlgv.connectors import _disjoint, enumerate_paths
from skewlgv.detring import _cofactors, _square_minors
from skewlgv.lattice import Lattice
from skewlgv.poly import Polynomial
from skewlgv.shape import Node, SkewShape


def line_extreme_endpoints(shape, sel, flavor):
    """Sources and sinks under the line-extreme rule, ordered as
    ``lattice.endpoints`` orders them."""
    n, alpha, beta = shape.n, shape.alpha, shape.beta

    def point(t, left):
        # line t holds the bottom sides of row t and the top sides of row t+1
        rows = [r - 1 for r in (t, t + 1) if 1 <= r <= n and alpha[r - 1] < beta[r - 1]]
        if rows:
            return Node(t, min(alpha[r] for r in rows) if left else max(beta[r] for r in rows))
        # the designated points, with alpha_{n+1} = alpha_n and beta_0 = beta_1
        return Node(t, alpha[min(t, n - 1)] if left else beta[max(t - 1, 0)])

    if flavor == "L":
        return tuple(point(a, True) for a in sel.a_set), tuple(point(b, False) for b in sel.b_set)
    return tuple(point(b, False) for b in sel.b_comp), tuple(point(a, True) for a in sel.a_comp)


def line_extreme_lattice(shape, sel, flavor):
    return Lattice(flavor, shape, *line_extreme_endpoints(shape, sel, flavor))


def composition_shapes(n, max_part):
    """All pointwise-dominated pairs of length-n tuples with entries in
    0..max_part (order-free parts), partitions included, beta-major."""
    tuples = list(itertools.product(range(max_part, -1, -1), repeat=n))
    for beta in tuples:
        for alpha in tuples:
            if all(a <= b for a, b in zip(alpha, beta)):
                yield SkewShape(alpha, beta)


def int_cofactor_matrix(rows):
    """Matrix of signed minors; equals the transpose of the adjugate."""
    return _cofactors(*_square_minors(rows, 1, 0))


def is_partition_pair(shape):
    return all(all(a >= b for a, b in zip(p, p[1:])) for p in (shape.alpha, shape.beta))


def identity_matrix(n):
    one, zero = Polynomial.one(), Polynomial.zero()
    return tuple(tuple(one if r == c else zero for c in range(n)) for r in range(n))


def unitriangular_inverse(rows):
    """Inverse of an upper unitriangular matrix, by back substitution and
    without division: X[i][j] = [i = j] - sum over i < k <= j of
    M[i][k] * X[k][j]."""
    n = len(rows)
    one, zero = Polynomial.one(), Polynomial.zero()
    inv = [None] * n
    for i in reversed(range(n)):
        inv[i] = [
            (one if i == j else zero) - sum((rows[i][k] * inv[k][j] for k in range(i + 1, j + 1)), zero)
            for j in range(n)
        ]
    return tuple(map(tuple, inv))


def naive_connectors(lat, disjoint_only=True):
    """(paths, weight, flavor) of each of lat's connectors, from the full
    Cartesian product of the per-pair path lists filtered afterwards, with
    each weight folded from one in pair order."""
    color = {"L": "blue", "R": "red"}[lat.flavor]
    lists = [enumerate_paths(lat, s, t) for s, t in zip(lat.sources, lat.sinks)]
    out = []
    for combo in itertools.product(*lists):
        if disjoint_only and not _disjoint(combo):
            continue
        weight = Polynomial.one()
        for p in combo:
            weight = weight * p.weight
        out.append((combo, weight, color))
    return out
