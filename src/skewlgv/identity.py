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

Every determinant pair, of a shape or of a corollary, is read from the
``MinorPair`` of its entry rules.  ``ShapeCheck``, the pair of a shape,
verifies any number of its selections; ``verify_main`` is its
one-selection use and ``run_sweep`` builds one per shape.

A sweep shares minors between the shapes of one n: one
``detring.SharedMinors`` per side and n.  An h-entry at (a, b) is fixed
by a, b, alpha_{a+1} and beta_b; an e-entry at (a', b') by a', b',
alpha_{a'} and beta_{b'+1}, read only when a' > b' (so row 0 and column n
read none).  Keying a minor on its rows, its columns and those parts is
therefore exact.  Both sides intern their values in one table per n, so
a sweep case is equal when ``det_h is det_e`` (elsewhere, ``==``).  Both
memos and the table are cleared together, when n ends and between shapes
once the memos pass SWEEP_MEMO_KEYS keys.  A sweep makes no report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import connectors as conn
from .detring import Matrix, SharedMinors, minors
from .lattice import build_L, build_R
from .poly import LazyGrid, Polynomial, e_poly, h_poly, qbinom
from .shape import (
    HypothesisCheck,
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
    return h_poly(b - a, shape.alpha_part(a + 1) + 1, shape.beta_part(b))


def entry_e(shape: SkewShape, a_p: int, b_p: int) -> Polynomial:
    """Single e-side matrix entry."""
    # the parts read below exist only when a' > b'
    if a_p <= b_p:
        return e_poly(a_p - b_p, 1, 0)
    return e_poly(a_p - b_p, shape.alpha_part(a_p) + 1, shape.beta_part(b_p + 1))


def build_h_matrix(shape: SkewShape, sel: IndexSelection) -> Matrix:
    """Row r, column c is ``entry_h(shape, A[r], B[c])``."""
    return tuple(tuple(entry_h(shape, a, b) for b in sel.b_set) for a in sel.a_set)


def build_e_matrix(shape: SkewShape, sel: IndexSelection) -> Matrix:
    """Row r, column c is ``entry_e(shape, A^c[r], B^c[c])``."""
    return tuple(tuple(entry_e(shape, a, b) for b in sel.b_comp) for a in sel.a_comp)


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
    isolated_points: tuple[Node, ...] = ()
    row_connected: bool = True


class MinorPair:
    """The h-side and e-side minor functions of one pair of entry rules.

    Every determinant pair of the duality is a minor on rows A and columns
    B of the (n+1) x (n+1) grid of ``h_entry``, and the minor on rows A^c
    and columns B^c of the grid of ``e_entry``.  Each side keeps one minor
    function over its grid, so a minor is computed at most once however
    many selections read it, and a grid entry only when an expansion first
    reads it.  ``one`` and ``zero`` are those of the entries' ring;
    ``shared`` and ``parts`` pair the sides' arguments of ``minors``.
    """

    def __init__(self, h_entry, e_entry, n: int, one, zero, shared=(None, None), parts=((), ())):
        width = n + 1
        self.minor_h = minors(LazyGrid(h_entry, width), width, one, zero, shared[0], parts[0])
        self.minor_e = minors(LazyGrid(e_entry, width), width, one, zero, shared[1], parts[1])

    def dets(self, sel: IndexSelection) -> tuple:
        """(det_h, det_e) of one selection."""
        a_set, b_set, a_comp, b_comp = sel.masks
        return self.minor_h(a_set, b_set), self.minor_e(a_comp, b_comp)


class ShapeCheck(MinorPair):
    """The duality checks of one shape, sharing their work across selections:
    the minor pair of ``entry_h`` and ``entry_e`` on the shape, and the
    shape's ``parallelogram_hypothesis``; the minors read through shared,
    an (h-side, e-side) pair of ``SharedMinors``, when given."""

    def __init__(self, shape: SkewShape, shared: tuple = (None, None)):
        one, zero = Polynomial.one(), Polynomial.zero()
        alpha, beta = shape.alpha, shape.beta
        # the parts each row and column of the two grids reads
        parts = (alpha + alpha[-1:], beta[:1] + beta), ((0,) + alpha, beta + (0,))
        super().__init__(
            partial(entry_h, shape), partial(entry_e, shape), shape.n, one, zero, shared, parts
        )
        self.shape = shape

    def report(
        self, sel: IndexSelection, hypothesis: HypothesisCheck | None = None
    ) -> VerificationReport:
        """Both determinants of one selection, without brute-force sums;
        hypothesis, when given, is the shape's ``parallelogram_hypothesis``
        on sel."""
        if hypothesis is None:
            hypothesis = parallelogram_hypothesis(self.shape, sel)
        dh, de = self.dets(sel)
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
            isolated_points=shape.isolated_points,
            row_connected=shape.row_connected,
        )


def verify_main(
    shape: SkewShape,
    sel: IndexSelection,
    with_brute: bool = False,
    cap: int | None = None,
) -> VerificationReport:
    """Compute both determinants and, optionally, both brute-force
    connector sums.  Raises only on a selection of another size than the
    shape and on enumeration overflow, checked on both lattices, before
    any other work."""
    shape.check_selection(sel)
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


def _qbinom_rhs_entry(a_p: int, b_p: int) -> Polynomial:
    # the Gaussian coefficient vanishes for a' < b', so the exponent is
    # only ever formed for a' >= b'
    if a_p < b_p:
        return Polynomial.zero()
    return Polynomial.q() ** math.comb(a_p - b_p, 2) * qbinom(a_p, b_p)


def verify_qbinomial(n: int, sel: IndexSelection) -> QBinomialReport:
    """q-binomial duality: det [b, a]_q on A x B against the complement
    determinant of q^C(a'-b',2) [a', b']_q on A^c x B^c."""
    one, zero = Polynomial.one(), Polynomial.zero()
    lhs, rhs = MinorPair(lambda a, b: qbinom(b, a), _qbinom_rhs_entry, n, one, zero).dets(sel)
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
    """Integer binomial determinant duality of Gessel and Viennot: det C(b, a)
    on A x B against det C(a', b') on A^c x B^c, over the integers."""
    lhs, rhs = MinorPair(lambda a, b: math.comb(b, a), math.comb, n, 1, 0).dets(sel)
    return BinomialReport(n, sel.a_set, sel.b_set, lhs, rhs, lhs == rhs)


@dataclass
class SympolyReport:
    n: int
    a_set: tuple[int, ...]
    b_set: tuple[int, ...]
    det_h: Polynomial
    det_e: Polynomial
    det_h_staircase: Polynomial
    det_e_staircase: Polynomial
    equal: bool
    routes_agree: bool


def verify_sympoly_binomial(n: int, sel: IndexSelection) -> SympolyReport:
    """Initial-segment symmetric polynomial duality, checked directly and
    re-derived from the staircase shape by relabelling x_i -> x_{n+1-i}."""
    dh, de = MinorPair(
        lambda a, b: h_poly(b - a, 1, a + 1),
        lambda a_p, b_p: e_poly(a_p - b_p, 1, a_p),
        n, Polynomial.one(), Polynomial.zero(),
    ).dets(sel)
    relabel = {i: Polynomial.variable(n + 1 - i) for i in range(1, n + 1)}
    dh_st, de_st = (d.substitute(relabel) for d in ShapeCheck(staircase(n)).dets(sel))
    return SympolyReport(
        n, sel.a_set, sel.b_set, dh, de, dh_st, de_st, dh == de, dh_st == dh and de_st == de
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
    dh, de = ShapeCheck(rectangle(m, n)).dets(sel)
    return AitkenReport(m, n, sel.a_set, sel.b_set, dh, de, dh == de)


# ---------------------------------------------------------------------------
# full (n+1) x (n+1) matrices of the inverse-pair probe


def build_full_H(shape: SkewShape) -> Matrix:
    full = range(shape.n + 1)
    return tuple(tuple(entry_h(shape, a, b) for b in full) for a in full)


def build_full_E(shape: SkewShape) -> Matrix:
    """Signed transpose of the e-side entries, (-1)^(i+j) * entry_e(j, i).

    Over a rectangle it is the two-sided inverse of the full H matrix.  On
    every partition shape checked (n <= 5 with parts <= 5, and n = 6 with
    parts <= 6) it differs from H^-1 exactly at the pairs (b', a') whose
    parallelogram clause (a', b') fails: a conjecture checked to that size.
    """

    def signed(i: int, j: int) -> Polynomial:
        p = entry_e(shape, j, i)
        return -p if (i + j) % 2 else p

    full = range(shape.n + 1)
    return tuple(tuple(signed(i, j) for j in full) for i in full)


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

    def bucket(self, ok: bool, equal: bool) -> None:
        self.total += 1
        if ok:
            if equal:
                self.holds_equal += 1
            else:
                self.holds_unequal += 1
        elif equal:
            self.fails_equal += 1
        else:
            self.fails_unequal += 1


# a sweep clears its minor memos between shapes once they hold more keys
SWEEP_MEMO_KEYS = 1 << 17


def run_sweep(
    max_n: int,
    max_part: int,
    hypothesis_only: bool = False,
    per_shape: Callable[[ShapeCheck, list], None] | None = None,
) -> SweepSummary:
    """Verify every case, shapes by n and then every selection of each
    shape, through one ``ShapeCheck`` per shape and shared minors per n;
    with hypothesis_only, skip cases whose parallelogram check fails
    (their determinants are not computed).  per_shape, when given, gets
    each shape's check and its cases (sel, hypothesis, det_h, det_e)."""
    summary = SweepSummary(max_n, max_part, hypothesis_only)
    bits = max_part.bit_length()
    for n in range(1, max_n + 1):
        sels = list(selections(n))
        h_side = SharedMinors(n + 1, bits)
        shared = h_side, SharedMinors(n + 1, bits, h_side.values)
        for shape in skew_shapes(n, max_part):
            if sum(len(side.memo) for side in shared) > SWEEP_MEMO_KEYS:
                for side in shared:
                    side.clear()
            check = ShapeCheck(shape, shared)
            cases = []
            for sel in sels:
                hypothesis = parallelogram_hypothesis(shape, sel)
                if hypothesis_only and not hypothesis.ok:
                    continue
                dh, de = check.dets(sel)
                summary.bucket(hypothesis.ok, dh is de)
                cases.append((sel, hypothesis, dh, de))
            if per_shape is not None:
                per_shape(check, cases)
        # each shape's minor function refers to itself, so the memos would
        # stay alive until the cycle collector runs
        for side in shared:
            side.clear()
    return summary
