"""Assembly and verification of the h/e determinant duality.

The two matrices attached to a skew shape and a row selection are

    h-side: rows a in A, columns b in B, entry
            h_{b-a}(x_{alpha_{a+1}+1}, ..., x_{beta_b});
    e-side: rows a' outside A, columns b' outside B, entry
            e_{a'-b'}(x_{alpha_{a'}+1}, ..., x_{beta_{b'+1}}).

Their determinants agree whenever the parallelogram condition holds; the
verifiers here never assert, they report, because the condition is
sufficient but not necessary and the sweep deliberately records what
happens beyond it.  A report also carries facts of the shape alone, which
the shape computes once however many selections are verified on it: its
isolated designated points, its row-connectedness and its parallelogram
clauses, read through ``parallelogram_hypothesis``.

``ShapeCheck`` verifies any number of selections of one shape, computing
each h/e minor at most once; ``verify_main`` is its one-selection use and
``run_sweep`` builds one per shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import connectors as conn
from .detring import PolyMatrix, det, minors
from .lattice import build_L, build_R
from .poly import LazyGrid, Polynomial, VarRange, e_poly, h_poly, qbinom
from .shape import (
    IndexSelection,
    Node,
    SkewShape,
    parallelogram_hypothesis,
    rectangle,
    selections,
    skew_shapes,
    staircase,
)


def entry_h(shape: SkewShape, a: int, b: int) -> Polynomial:
    """Single h-side matrix entry."""
    d = b - a
    if d < 0:
        return Polynomial.zero()
    if d == 0:
        return Polynomial.one()
    return h_poly(d, VarRange(shape.alpha_part(a + 1) + 1, shape.beta_part(b)))


def entry_e(shape: SkewShape, a_p: int, b_p: int) -> Polynomial:
    """Single e-side matrix entry."""
    d = a_p - b_p
    if d < 0:
        return Polynomial.zero()
    if d == 0:
        return Polynomial.one()
    return e_poly(d, VarRange(shape.alpha_part(a_p) + 1, shape.beta_part(b_p + 1)))


def build_h_matrix(shape: SkewShape, sel: IndexSelection) -> PolyMatrix:
    return PolyMatrix.tabulate(partial(entry_h, shape), sel.a_set, sel.b_set)


def build_e_matrix(shape: SkewShape, sel: IndexSelection) -> PolyMatrix:
    return PolyMatrix.tabulate(partial(entry_e, shape), sel.a_comp, sel.b_comp)


@dataclass
class VerificationReport:
    """Outcome of one duality check; purely descriptive."""

    n: int
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    a_set: tuple[int, ...]
    b_set: tuple[int, ...]
    hypothesis_ok: bool
    violating_pairs: tuple[tuple[int, int], ...]
    det_h: Polynomial
    det_e: Polynomial
    equal: bool
    brute_blue: Polynomial | None = None
    brute_red: Polynomial | None = None
    isolated: tuple[Node, ...] = ()
    row_connected: bool = True


class ShapeCheck:
    """The duality checks of one shape, sharing their work across selections.

    Every h-matrix of the shape is the minor of the (n+1) x (n+1) grid of
    ``entry_h`` on rows A and columns B, and every e-matrix the minor of
    the grid of ``entry_e`` on rows A^c and columns B^c.  Each side keeps
    one minor function over its grid, so a minor is computed at most once
    per shape, and a grid entry only when an expansion first reads it.
    The parallelogram test is the shape's ``parallelogram_hypothesis``.
    """

    def __init__(self, shape: SkewShape):
        self.shape = shape
        width = shape.n + 1
        one, zero = Polynomial.one(), Polynomial.zero()
        self.minor_h = minors(LazyGrid(partial(entry_h, shape), width), width, one, zero)
        self.minor_e = minors(LazyGrid(partial(entry_e, shape), width), width, one, zero)

    def report(self, sel: IndexSelection) -> VerificationReport:
        """Both determinants of one selection, without brute-force sums."""
        hypothesis = parallelogram_hypothesis(self.shape, sel)
        a_set, b_set, a_comp, b_comp = sel.masks
        dh = self.minor_h(a_set, b_set)
        de = self.minor_e(a_comp, b_comp)
        shape = self.shape
        return VerificationReport(
            n=shape.n,
            alpha=shape.alpha,
            beta=shape.beta,
            a_set=sel.a_set,
            b_set=sel.b_set,
            hypothesis_ok=hypothesis.ok,
            violating_pairs=hypothesis.violations,
            det_h=dh,
            det_e=de,
            equal=dh == de,
            isolated=shape.isolated_points,
            row_connected=shape.row_connected,
        )


def verify_main(
    shape: SkewShape,
    sel: IndexSelection,
    with_brute: bool = False,
    cap: int | None = None,
) -> VerificationReport:
    """Compute both determinants and, optionally, both brute-force
    connector sums.  Raises only on enumeration overflow, which is checked
    on both lattices before any other work."""
    if with_brute:
        l_lat, r_lat = build_L(shape, sel), build_R(shape, sel)
        conn.check_tuple_cap(l_lat, cap)
        conn.check_tuple_cap(r_lat, cap)
    report = ShapeCheck(shape).report(sel)
    if with_brute:
        report.brute_blue = conn.connector_sum(l_lat, cap=cap)
        report.brute_red = conn.connector_sum(r_lat, cap=cap)
    return report


# ---------------------------------------------------------------------------
# specialisations


@dataclass
class QBinomialReport:
    n: int
    a_set: tuple[int, ...]
    b_set: tuple[int, ...]
    det_lhs: Polynomial
    det_rhs: Polynomial
    equal: bool


def qbinom_lhs_matrix(n: int, sel: IndexSelection) -> PolyMatrix:
    return PolyMatrix.tabulate(lambda a, b: qbinom(b, a), sel.a_set, sel.b_set)


def _qbinom_rhs_entry(a_p: int, b_p: int) -> Polynomial:
    # the Gaussian coefficient vanishes for a' < b', so the exponent is
    # only ever formed for a' >= b'
    if a_p < b_p:
        return Polynomial.zero()
    return Polynomial.q() ** math.comb(a_p - b_p, 2) * qbinom(a_p, b_p)


def qbinom_rhs_matrix(n: int, sel: IndexSelection) -> PolyMatrix:
    """Complement-side matrix with entries q^C(a'-b',2) * qbinom(a', b')."""
    return PolyMatrix.tabulate(_qbinom_rhs_entry, sel.a_comp, sel.b_comp)


def verify_qbinomial(n: int, sel: IndexSelection) -> QBinomialReport:
    lhs = det(qbinom_lhs_matrix(n, sel))
    rhs = det(qbinom_rhs_matrix(n, sel))
    return QBinomialReport(n, sel.a_set, sel.b_set, lhs, rhs, lhs == rhs)


@dataclass
class BinomialReport:
    n: int
    a_set: tuple[int, ...]
    b_set: tuple[int, ...]
    lhs: int
    rhs: int
    equal: bool


def verify_binomial(n: int, sel: IndexSelection) -> BinomialReport:
    """Integer binomial determinant duality, obtained at q = 1."""
    qrep = verify_qbinomial(n, sel)
    lhs = qrep.det_lhs.evaluate({0: 1})
    rhs = qrep.det_rhs.evaluate({0: 1})
    return BinomialReport(n, sel.a_set, sel.b_set, lhs, rhs, lhs == rhs)


@dataclass
class SympolyReport:
    n: int
    a_set: tuple[int, ...]
    b_set: tuple[int, ...]
    det_h_direct: Polynomial
    det_e_direct: Polynomial
    det_h_staircase: Polynomial
    det_e_staircase: Polynomial
    equal: bool
    routes_agree: bool


def verify_sympoly_binomial(n: int, sel: IndexSelection) -> SympolyReport:
    """Initial-segment symmetric polynomial duality, checked directly and
    re-derived from the staircase shape by relabelling x_i -> x_{n+1-i}."""
    dh = det(PolyMatrix.tabulate(
        lambda a, b: h_poly(b - a, VarRange(1, a + 1)), sel.a_set, sel.b_set
    ))
    de = det(PolyMatrix.tabulate(
        lambda a_p, b_p: e_poly(a_p - b_p, VarRange(1, a_p)), sel.a_comp, sel.b_comp
    ))
    rep = verify_main(staircase(n), sel)
    relabel = {i: Polynomial.variable(n + 1 - i) for i in range(1, n + 1)}
    dh_stair = rep.det_h.substitute(relabel)
    de_stair = rep.det_e.substitute(relabel)
    return SympolyReport(
        n=n,
        a_set=sel.a_set,
        b_set=sel.b_set,
        det_h_direct=dh,
        det_e_direct=de,
        det_h_staircase=dh_stair,
        det_e_staircase=de_stair,
        equal=dh == de,
        routes_agree=dh_stair == dh and de_stair == de,
    )


@dataclass
class AitkenReport:
    m: int
    n: int
    a_set: tuple[int, ...]
    b_set: tuple[int, ...]
    det_h: Polynomial
    det_e: Polynomial
    equal: bool


def verify_aitken(m: int, n: int, sel: IndexSelection) -> AitkenReport:
    """Rectangle-shape duality: both sides in the full variable range
    x_1..x_m, for any width m."""
    rep = verify_main(rectangle(m, n), sel)
    return AitkenReport(
        m=m,
        n=n,
        a_set=sel.a_set,
        b_set=sel.b_set,
        det_h=rep.det_h,
        det_e=rep.det_e,
        equal=rep.equal,
    )


# ---------------------------------------------------------------------------
# full (n+1) x (n+1) matrices of the inverse-pair probe


def build_full_H(shape: SkewShape) -> PolyMatrix:
    full = range(shape.n + 1)
    return PolyMatrix.tabulate(partial(entry_h, shape), full, full)


def build_full_E(shape: SkewShape) -> PolyMatrix:
    """Signed transpose of the e-side entries, (-1)^(i+j) * entry_e(j, i);
    over a rectangle it is the two-sided inverse of the full H matrix, but
    not in general."""

    def signed(i: int, j: int) -> Polynomial:
        p = entry_e(shape, j, i)
        return -p if (i + j) % 2 else p

    full = range(shape.n + 1)
    return PolyMatrix.tabulate(signed, full, full)


# ---------------------------------------------------------------------------
# sweep driver


@dataclass
class SweepSummary:
    max_n: int
    max_part: int
    hypothesis_only: bool = False
    total: int = 0
    holds_equal: int = 0
    fails_equal: int = 0
    fails_unequal: int = 0
    holds_unequal: int = 0

    def bucket(self, report: VerificationReport) -> None:
        self.total += 1
        if report.hypothesis_ok:
            if report.equal:
                self.holds_equal += 1
            else:
                self.holds_unequal += 1
        else:
            if report.equal:
                self.fails_equal += 1
            else:
                self.fails_unequal += 1


def run_sweep(
    max_n: int,
    max_part: int,
    hypothesis_only: bool = False,
    per_case: Callable[[VerificationReport], None] | None = None,
) -> SweepSummary:
    """Verify every case, shapes by n and then every selection of each
    shape, through one ``ShapeCheck`` per shape; with hypothesis_only, skip
    cases whose parallelogram check fails (their determinants are not
    computed)."""
    summary = SweepSummary(max_n, max_part, hypothesis_only)
    for n in range(1, max_n + 1):
        sels = list(selections(n))
        for shape in skew_shapes(n, max_part):
            check = ShapeCheck(shape)
            for sel in sels:
                if hypothesis_only and not parallelogram_hypothesis(shape, sel).ok:
                    continue
                report = check.report(sel)
                summary.bucket(report)
                if per_case is not None:
                    per_case(report)
    return summary
