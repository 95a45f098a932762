"""Parameter intervals per image and the ordered breakpoint set.

Each extreme nondominated image y of the companion triobjective problem
stays optimal for the parametric problem over one closed lambda interval
[lower, upper] (upper possibly infinite).  Two independent routes compute
it:

  * the LP route minimizes and maximizes lambda = w3/(s1*w1 + s2*w2),
    s the case's shares, a linear-fractional function of the weight, as
    one LP pair on the component's lifted cone, two solves per image, on
    the optimal face of image y's duality gap y.w - b.v (zero there, by
    LP weak duality) over one feasible system per problem;
  * the vertex route reads the interval off the component polygon's
    vertices through the exact weight-to-lambda correspondence.

Breakpoints are the finite interval endpoints; between consecutive ones
the witness set is constant, and the parameter axis decomposes into
segments annotated with those witness sets.  A breakpoint where some
image leaves and another enters with a different fixed-lambda image gets
its own one-point segment; if the entering and leaving images collapse
to the same biobjective point the transition is seam-free and no
one-point segment is needed.

The breakpoints are exactly the finite positive vertex lambdas: the
values Z/(s1*X + s2*Y), Z = W - X - Y, over the component vertices
(X, Y, W) with Z > 0 and s1*X + s2*Y > 0.  Each interval end is the
minimum or maximum of lambda over its component's vertices (the vertex
route), so a positive end is such a value; an upper end is never 0,
since a full-dimensional component has a vertex with Z > 0, whose lambda
is positive or infinite.  Conversely, take such a vertex v of component
K.  The level set of lambda through v is a line, and Z - lambda(v) *
(s1*X + s2*Y) keeps one sign on each side of it, so lambda(v) is the
minimum or maximum of lambda over any convex set on one side.  The
components at v cover a neighbourhood of v in the simplex, each a
convex sector at v, K's narrower than a half-turn.  Inside the simplex
the sectors fill a full turn, so there are at least three, and the
line's two rays from v cross the interior of at most two.  On the edge
w1 = 0 or w2 = 0 (the third edge and two corners have Z = 0, the last
corner s1*X + s2*Y = 0) they fill a half-turn, so there are at least
two, and the line crosses the edge, so one ray enters the simplex and
crosses at most one sector.  Either way some component lies on one side
of the line, and lambda(v) is one of its interval ends, a positive one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .errors import EmptyComponent, NoFiniteVertex, SystemMismatch
from .lp_core import FeasibleSystem, LinearProgram, LpStatus, Sense, solve_lp
from .numerics import INF
from .problem_model import Case, Pblp
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
    "interval_system",
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
    method: Method
    decomposition: Decomposition
    intervals: tuple[ParameterInterval, ...]
    breakpoints: tuple[Fraction, ...]
    axis: tuple[AxisSegment, ...]
    interval_lp_solves: int  # 0 on Method.ADAPTED


def interval_system(h: ComponentHrep, case: Case) -> FeasibleSystem:
    """What the interval LPs of h's problem share, through phase one:
    h.cone, the rows A^T v - C^T w <= 0 that every component hrep of the
    problem starts with, and den.w = 1, den = (s1, s2, 0) from the case's
    shares, the one row that needs an artificial.  Its LP is min w3.
    The interval LPs read optimal values only, so the system is
    value-only: it pivots by Dantzig's rule and reports no vertex."""
    width, n = h.m + 3, len(h.cone)
    rows = h.cone + ((0,) * h.m + case.shares + (0,),)
    rhs = (0,) * n + (1,)
    senses = (Sense.LE,) * n + (Sense.EQ,)
    lp = LinearProgram((0,) * (width - 1) + (1,), rows, rhs, senses, (True,) * width)
    return FeasibleSystem(lp, value_only=True)


def _interval_lp(h: ComponentHrep, case: Case, base: FeasibleSystem):
    """Interval from the component's lifted cone, lambda = w3/(den.w).

    lambda has degree 0 in w, so on the cone the simplex equality
    w1 + w2 + w3 = 1 can be swapped for den.w = 1 (Charnes and Cooper,
    Naval Res. Logist. Q. 1962).  On that slice lambda is w3, and max w3
    is unbounded exactly when the component reaches den.w = 0 with
    w3 > 0.

    base, interval_system of the problem for case (else SystemMismatch),
    holds everything but h's image y.  With Cx = y, x feasible, every
    (v, w) on base has b.v <= x.A^T v <= x.C^T w = y.w (LP weak duality,
    Ehrgott, Multicriteria Optimization, 2005): the gap h.gap,
    y.w - b.v, is nonnegative there, the lifted component is where it
    is 0, and a positive minimum raises EmptyComponent.  Both solves run
    on that optimal face and read only optimal values, so the pivot path
    cannot change the result.
    """
    if base.lp.rows[-1][h.m :] != case.shares + (0,):
        raise SystemMismatch("interval system is not the slice of this case")
    gap, component = base.face(h.gap)
    if gap != 0:
        raise EmptyComponent("the duality gap of the image is positive on the slice")
    lower = solve_lp(base.lp, system=component).value
    top = replace(base.lp, objective=(0,) * (h.m + 2) + (-1,))
    res = solve_lp(top, system=component)
    if res.status is LpStatus.UNBOUNDED:
        return lower, INF
    return lower, -res.value


def interval_lp_case1(
    h: ComponentHrep, base: FeasibleSystem
) -> tuple[Fraction, object]:
    """Interval by the lifted-cone LPs, case ONE: lambda = w3/w1, on
    base = interval_system(h, Case.ONE) of any component h."""
    return _interval_lp(h, Case.ONE, base)


def interval_lp_case2(
    h: ComponentHrep, base: FeasibleSystem
) -> tuple[Fraction, object]:
    """Interval by the lifted-cone LPs, case TWO: lambda = w3/(w1 + w2),
    on base = interval_system(h, Case.TWO) of any component h."""
    return _interval_lp(h, Case.TWO, base)


def interval_vertex(case: Case, poly: ConvexPolygon2) -> tuple[Fraction, object]:
    """Interval read off the component polygon's vertices.

    lambda is a monotone fractional-linear function of the weight on the
    component, so its extremes over the polygon occur at vertices.  At
    the vertex (X, Y, W) it is Z/(s1*X + s2*Y), Z = W - X - Y, s the
    case's shares: lambda = w3/(s1*w1 + s2*w2) at the weight.  The
    projected vertex (0, 1) (case ONE) encodes no lambda and is skipped;
    vertices on w1 = 0 (case ONE) or at (0, 0) (case TWO) push the upper
    end to infinity.
    """
    s1, s2 = case.shares
    finite: list[Fraction] = []
    unbounded = False
    for x, y, w in poly.triples:
        den = s1 * x + s2 * y
        if den > 0:
            finite.append(Fraction(w - x - y, den))
        elif w - x - y > 0:
            unbounded = True
    if not finite:
        raise NoFiniteVertex("no component vertex encodes a finite lambda")
    return min(finite), (INF if unbounded else max(finite))


# -- axis assembly ----------------------------------------------------------


def _bolp_image(case: Case, y: Point3, lam: Fraction):
    s1, s2 = case.shares
    return (y[0] + lam * s1 * y[2], y[1] + lam * s2 * y[2])


def _is_singleton(case: Case, beta: Fraction, leaving, entering) -> bool:
    """Whether beta is a one-point segment: images leave (their intervals
    end at beta) and enter (start there) with different bolp images."""
    left = {_bolp_image(case, y, beta) for y in leaving}
    came = {_bolp_image(case, y, beta) for y in entering}
    return bool(left and came) and left != came


def enumerate_breakpoints(p: Pblp, method: Method) -> ParametricSolution:
    """Full parametric solution: decomposition, intervals, breakpoints,
    and the annotated lambda axis."""
    return solve_on_decomposition(p, decompose(p), method)


def solve_on_decomposition(
    p: Pblp, dec: Decomposition, method: Method
) -> ParametricSolution:
    """Intervals, breakpoints and the annotated lambda axis of p by
    method, from dec, the decomposition of p (decompose(p)).  Both
    methods can share one decomposition."""
    if method is Method.LP:
        route = interval_lp_case1 if p.case is Case.ONE else interval_lp_case2
        # the n cone rows are built once per problem, a gap objective per image
        first = component_hrep(p, dec.images[0].image)
        hreps = [first.for_image(entry.image) for entry in dec.images]
        base = interval_system(first, p.case)
        ends = [route(h, base) for h in hreps]
        interval_lp_solves = base.solves
    else:
        ends = [interval_vertex(p.case, poly) for poly in dec.components]
        interval_lp_solves = 0
    intervals = [
        ParameterInterval(image=entry.image, lower=lower, upper=upper)
        for entry, (lower, upper) in zip(dec.images, ends)
    ]

    # a lower end of 0 is no breakpoint; no upper end is 0 (module docstring)
    breakpoints = tuple(sorted(
        {iv.lower for iv in intervals if iv.lower > 0}
        | {iv.upper for iv in intervals if iv.upper is not INF}
    ))

    # Every interval end is 0, a breakpoint or INF, so the intervals that
    # contain one lambda of a segment cover all of it.  Read as ranks (a
    # lower 0 is 0, breakpoint i is i from 1, INF is B + 1), the segment
    # below breakpoint i has the intervals with lower < i <= upper, and
    # the point i those with lower <= i <= upper; images leave there at
    # upper rank i and enter at lower rank i.
    rank = {beta: i for i, beta in enumerate(breakpoints, 1)}
    rank[INF] = top = len(breakpoints) + 1
    ranks = [(rank[iv.lower] if iv.lower else 0, rank[iv.upper]) for iv in intervals]

    def witnesses(low: int, high: int) -> tuple[int, ...]:
        return tuple(k for k, (lo, up) in enumerate(ranks) if lo <= low and high <= up)

    segments: list[AxisSegment] = []
    prev, prev_closed = Fraction(0), True
    for i, beta in enumerate(breakpoints, 1):
        middle = witnesses(i - 1, i)
        leaving = [iv.image for iv, (_, up) in zip(intervals, ranks) if up == i]
        entering = [iv.image for iv, (lo, _) in zip(intervals, ranks) if lo == i]
        if _is_singleton(p.case, beta, leaving, entering):
            if prev < beta:
                # up to but excluding the one-point breakpoint (this
                # piece is absent when the singleton sits at the start)
                segments.append(AxisSegment(prev, beta, prev_closed, False, middle))
            segments.append(AxisSegment(beta, beta, True, True, witnesses(i, i)))
        else:
            segments.append(AxisSegment(prev, beta, prev_closed, True, middle))
        prev, prev_closed = beta, False
    segments.append(AxisSegment(prev, INF, prev_closed, False, witnesses(top - 1, top)))

    return ParametricSolution(
        method=method,
        decomposition=dec,
        intervals=tuple(intervals),
        breakpoints=breakpoints,
        axis=tuple(segments),
        interval_lp_solves=interval_lp_solves,
    )
