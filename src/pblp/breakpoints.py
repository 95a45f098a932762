"""Parameter intervals per image and the ordered breakpoint set.

Each extreme nondominated image y of the companion triobjective problem
stays optimal for the parametric problem over one closed lambda interval
[lower, upper] (upper possibly infinite).  Two independent routes compute
it:

  * the LP route works on a lifted H-representation of the component
    (case TWO) or on an expanded primal LP over the original variables
    (case ONE), two solves per image either way;
  * the vertex route reads the interval off the component polygon's
    vertices through the exact weight-to-lambda correspondence.

Breakpoints are the finite interval endpoints; between consecutive ones
the witness set is constant, and the parameter axis decomposes into
segments annotated with those witness sets.  A breakpoint where some
image leaves and another enters with a different fixed-lambda image gets
its own one-point segment; if the entering and leaving images collapse
to the same biobjective point the transition is seam-free and no
one-point segment is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import lp_core
from .errors import EmptyComponent, InvariantViolation, NoFiniteVertex
from .lp_core import FeasibleSystem, LinearProgram, LpStatus, Sense, solve_lp
from .numerics import INF
from .problem_model import (
    Case,
    Pblp,
    Tolp,
    Weight3,
    build_tolp,
    ge_form,
    lambda_from_weight,
)
from .weight_geometry import (
    ComponentHrep,
    ConvexPolygon2,
    Point3,
    component_hrep,
)
from .wsd import Decomposition, decompose

__all__ = [
    "Method",
    "ParameterInterval",
    "AxisSegment",
    "ParametricSolution",
    "interval_lp_case2",
    "interval_lp_case1",
    "interval_vertex",
    "enumerate_breakpoints",
    "solve_on_decomposition",
]


class Method(Enum):
    LP = "lp"
    ADAPTED = "adapted"


@dataclass(frozen=True)
class ParameterInterval:
    """Closed lambda range over which one image stays optimal."""

    image: Point3
    lower: Fraction
    upper: object  # Fraction or INF

    def contains(self, lam) -> bool:
        return self.lower <= lam and (self.upper is INF or lam <= self.upper)


@dataclass(frozen=True)
class AxisSegment:
    """One maximal piece of the lambda axis with a constant witness set.

    witnesses are indices into the decomposition's image list.
    """

    lower: Fraction
    upper: object  # Fraction or INF
    lower_closed: bool
    upper_closed: bool
    witnesses: tuple[int, ...]


@dataclass(frozen=True)
class ParametricSolution:
    case: Case
    method: Method
    decomposition: Decomposition
    intervals: tuple[ParameterInterval, ...]
    breakpoints: tuple[Fraction, ...]
    axis: tuple[AxisSegment, ...]
    interval_lp_solves: int


def interval_lp_case2(h: ComponentHrep) -> tuple[Fraction, object]:
    """Interval from the lifted component system, case TWO.

    lambda and s = w1 + w2 are inverse to each other along the simplex
    (lambda = 1/s - 1), so the extreme s over the lifted feasible set
    give the extreme lambdas directly.  Both solves share one feasible
    system, so phase one runs once.
    """
    zero = Fraction(0)
    one = Fraction(1)
    senses = (Sense.GE,) * len(h.P)
    nonneg = (True,) * (h.m + 3)
    s_obj = (zero,) * h.m + (one, one, zero)

    maximize = LinearProgram(
        objective=tuple(-c for c in s_obj),
        rows=h.P, rhs=h.q, senses=senses, nonneg=nonneg,
    )
    system = FeasibleSystem(maximize)
    res = solve_lp(maximize, system=system)
    if res.status is LpStatus.INFEASIBLE:
        raise EmptyComponent("lifted component system is infeasible")
    if res.status is not LpStatus.OPTIMAL:
        raise EmptyComponent("lifted component system is degenerate")
    s_max = -res.value
    if s_max <= 0:
        raise EmptyComponent("component misses the projected simplex")
    lower = one / s_max - 1

    minimize = LinearProgram(
        objective=s_obj, rows=h.P, rhs=h.q, senses=senses, nonneg=nonneg
    )
    res = solve_lp(minimize, system=system)
    if res.status is not LpStatus.OPTIMAL:
        raise EmptyComponent("lifted component system is degenerate")
    s_min = res.value
    upper = INF if s_min == 0 else one / s_min - 1
    return lower, upper


def _case1_lp(t: Tolp, y: Point3, find_upper: bool) -> LinearProgram:
    """Expanded primal over (x, x_opt, x_w, l1, l2), case ONE.

    Feasibility at (l1, l2) certifies that the whole component sits on
    one side of the lambda(l1) segment line: below it for the variant
    that maximizes l1 (so its optimum is the first contact, the interval
    lower end) and above it for the minimizing variant (the last
    contact, the upper end).  The objective direction and one sign block
    are all that differ.
    """
    rows_a, rhs_a = ge_form(t.rows, t.rhs, t.senses)
    m, n = len(rows_a), t.n
    zero = Fraction(0)
    one = Fraction(1)
    C = t.cost_rows
    sign = one if find_upper else -one
    rows = []
    rhs = []
    senses = []
    for j in range(m):  # -(A x)_j + b_j x_opt <= 0
        rows.append(
            tuple(-rows_a[j][i] for i in range(n)) + (rhs_a[j], zero, zero, zero)
        )
        rhs.append(zero)
        senses.append(Sense.LE)
    ell_cols = ((one, zero), (zero, one), (zero, zero))
    for k in range(3):  # C_k x - y_k x_opt -/+ x_w +/- (l1, l2, 0)_k <= 0
        rows.append(
            tuple(C[k])
            + (-Fraction(y[k]), sign, -sign * ell_cols[k][0], -sign * ell_cols[k][1])
        )
        rhs.append(zero)
        senses.append(Sense.LE)
    rows.append((zero,) * n + (zero, one, zero, -one))  # x_w = l2
    rhs.append(zero)
    senses.append(Sense.EQ)
    rows.append((zero,) * n + (zero, zero, one, one))  # l1 + l2 = 1
    rhs.append(one)
    senses.append(Sense.EQ)
    objective = (zero,) * n + (zero, zero, one if find_upper else -one, zero)
    return LinearProgram(
        objective=objective,
        rows=tuple(rows),
        rhs=tuple(rhs),
        senses=tuple(senses),
        nonneg=(True,) * n + (False, False, True, True),
    )


def _lambda_from_ell1(ell1: Fraction):
    """lambda = (2 l1 - 1)/(1 - l1); l1 = 1 encodes lambda -> infinity."""
    if ell1 == 1:
        return INF
    return (2 * ell1 - 1) / (1 - ell1)


def _case1_ell1(t: Tolp, y: Point3, find_upper: bool) -> Fraction:
    """Optimal l1 of one expanded LP, checked to lie in [1/2, 1].

    The solve runs on the LP's own FeasibleSystem, so it computes no
    duals, which nothing here reads.
    """
    lp = _case1_lp(t, y, find_upper)
    res = solve_lp(lp, system=FeasibleSystem(lp))
    if res.status is not LpStatus.OPTIMAL:
        raise EmptyComponent(f"expanded system for {y} has no optimum")
    ell1 = res.value if find_upper else -res.value
    if not Fraction(1, 2) <= ell1 <= 1:
        raise InvariantViolation(f"l1 = {ell1} outside [1/2, 1]")
    return ell1


def interval_lp_case1(t: Tolp, y: Point3) -> tuple[Fraction, object]:
    """Interval via the two expanded LPs, case ONE.

    The two LPs differ in a sign block, not only in the objective, so
    each takes its own tableau.
    """
    lower = _lambda_from_ell1(_case1_ell1(t, y, find_upper=False))
    if lower is INF:
        raise InvariantViolation(f"interval lower end for {y} is infinite")
    upper = _lambda_from_ell1(_case1_ell1(t, y, find_upper=True))
    return lower, upper


def interval_vertex(case: Case, poly: ConvexPolygon2) -> tuple[Fraction, object]:
    """Interval read off the component polygon's vertices.

    lambda is a monotone fractional-linear function of the weight on the
    component, so its extremes over the polygon occur at vertices.  The
    projected vertex (0, 1) (case ONE) encodes no lambda and is skipped;
    vertices on w1 = 0 (case ONE) or at (0, 0) (case TWO) push the upper
    end to infinity.
    """
    finite: list[Fraction] = []
    unbounded = False
    for w1, w2 in poly.vertices:
        lam = lambda_from_weight(case, Weight3(w1, w2, 1 - w1 - w2))
        if lam is None:
            continue
        if lam is INF:
            unbounded = True
        else:
            finite.append(lam)
    if not finite:
        raise NoFiniteVertex("no component vertex encodes a finite lambda")
    return min(finite), (INF if unbounded else max(finite))


# -- axis assembly ----------------------------------------------------------


def _bolp_image(case: Case, y: Point3, lam: Fraction):
    if case is Case.ONE:
        return (y[0] + lam * y[2], y[1])
    return (y[0] + lam * y[2], y[1] + lam * y[2])


def _classify(case, intervals, beta):
    """tie / singleton / plain at one breakpoint."""
    leaving = [iv.image for iv in intervals if iv.upper == beta]
    entering = [iv.image for iv in intervals if iv.lower == beta]
    if leaving and entering:
        left = {_bolp_image(case, y, beta) for y in leaving}
        right = {_bolp_image(case, y, beta) for y in entering}
        return "tie" if left == right else "singleton"
    return "plain"


def _covers(iv: ParameterInterval, lo, hi) -> bool:
    if iv.lower > lo:
        return False
    if hi is INF:
        return iv.upper is INF
    return iv.upper is INF or iv.upper >= hi


def enumerate_breakpoints(p: Pblp, method: Method) -> ParametricSolution:
    """Full parametric solution: decomposition, intervals, breakpoints,
    and the annotated lambda axis."""
    return solve_on_decomposition(p, decompose(build_tolp(p)), method)


def solve_on_decomposition(
    p: Pblp, dec: Decomposition, method: Method
) -> ParametricSolution:
    """Intervals, breakpoints and the annotated lambda axis of p by
    method, from dec, the decomposition of p's triobjective companion.
    Both methods can share one decomposition."""
    t = build_tolp(p)
    before = lp_core.solve_calls()
    intervals = []
    for entry, poly in zip(dec.images, dec.components):
        if method is Method.LP:
            if p.case is Case.ONE:
                lower, upper = interval_lp_case1(t, entry.image)
            else:
                lower, upper = interval_lp_case2(component_hrep(t, entry.image))
        else:
            lower, upper = interval_vertex(p.case, poly)
        intervals.append(
            ParameterInterval(image=entry.image, lower=lower, upper=upper)
        )
    interval_lp_solves = lp_core.solve_calls() - before

    finite_ends: set[Fraction] = set()
    for iv in intervals:
        if iv.lower > 0:
            finite_ends.add(iv.lower)
        if iv.upper is not INF:
            finite_ends.add(iv.upper)  # an upper end of 0 is a breakpoint too
    breakpoints = tuple(sorted(finite_ends))

    kinds = {b: _classify(p.case, intervals, b) for b in breakpoints}
    segments: list[AxisSegment] = []
    zero = Fraction(0)

    def witnesses(lo, hi) -> tuple[int, ...]:
        return tuple(
            i for i, iv in enumerate(intervals) if _covers(iv, lo, hi)
        )

    def point_witnesses(beta) -> tuple[int, ...]:
        return tuple(
            i for i, iv in enumerate(intervals) if iv.contains(beta)
        )

    prev = zero
    prev_closed = True
    for beta in breakpoints:
        if kinds[beta] == "singleton":
            if prev < beta:
                # up to but excluding the one-point breakpoint (this
                # piece is absent when the singleton sits at the start)
                segments.append(
                    AxisSegment(prev, beta, prev_closed, False, witnesses(prev, beta))
                )
            segments.append(
                AxisSegment(beta, beta, True, True, point_witnesses(beta))
            )
            prev, prev_closed = beta, False
        else:
            segments.append(
                AxisSegment(prev, beta, prev_closed, True, witnesses(prev, beta))
            )
            prev, prev_closed = beta, False
    segments.append(AxisSegment(prev, INF, prev_closed, False, witnesses(prev, INF)))

    return ParametricSolution(
        case=p.case,
        method=method,
        decomposition=dec,
        intervals=tuple(intervals),
        breakpoints=breakpoints,
        axis=tuple(segments),
        interval_lp_solves=interval_lp_solves,
    )
