import pathlib
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from operator import mul

import pytest

from pblp import INF, Case, ConvexPolygon2, HalfPlane, Pblp, component_vertices, parse_problem
from pblp.errors import InvariantViolation, NegativeParameter
from pblp.lp_core import (
    FeasibleSystem,
    LinearProgram,
    LpStatus,
    Sense,
    solve_lp,
)
from pblp.numerics import integer_row
from pblp.oracle import _cone_rays
from pblp.problem_model import system_lp

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"


def load_instance(name: str):
    return parse_problem((INSTANCE_DIR / name).read_text())


def build_lp(objective, rows, rhs, senses) -> LinearProgram:
    """The LP min objective.x s.t. rows (senses) rhs, x >= 0, from ints,
    strings or Fractions and sense strings such as "<="."""
    return LinearProgram(
        objective=tuple(map(Fraction, objective)),
        rows=tuple(tuple(map(Fraction, row)) for row in rows),
        rhs=tuple(map(Fraction, rhs)),
        senses=tuple(map(Sense, senses)),
        nonneg=(True,) * len(objective),
    )


def bolp_objectives(costs):
    """The two objectives that fix_lambda gives as costs = (rows, L),
    as Fraction rows: each row over L."""
    rows, scale = costs
    return tuple(tuple(Fraction(a, scale) for a in row) for row in rows)


def cost_image(costs, x, den=1) -> tuple[Fraction, ...]:
    """The reference Fraction image C x / den, for costs = (rows, L) as
    Pblp.integer_costs and fix_lambda give them and x ints over den > 0,
    as an LP vertex is held, or rationals with den 1: one dot product per
    row over L * den."""
    rows, scale = costs
    return tuple(Fraction(sum(map(mul, row, x)), scale * den) for row in rows)


def int_image(y) -> tuple[int, ...]:
    """The rational image y as integer numerators over its least common
    denominator D > 0, (Y..., D): the reduced ints that
    problem_model.integral_image gives and ExtremeImage.int_image holds."""
    numerators, den = integer_row(y)
    return (*numerators, den)


@dataclass(frozen=True)
class Weight3:
    """A point of the weight simplex: nonnegative, summing to one."""

    w1: Fraction
    w2: Fraction
    w3: Fraction

    def __post_init__(self):
        if self.w1 < 0 or self.w2 < 0 or self.w3 < 0:
            raise ValueError(f"negative weight in {self}")
        if self.w1 + self.w2 + self.w3 != 1:
            raise ValueError(f"weights do not sum to 1 in {self}")


@dataclass(frozen=True)
class Weight2:
    """The simplex projected to its first two coordinates."""

    w1: Fraction
    w2: Fraction

    def __post_init__(self):
        if self.w1 < 0 or self.w2 < 0:
            raise ValueError(f"negative weight in {self}")
        if self.w1 + self.w2 > 1:
            raise ValueError(f"projected weight outside simplex: {self}")

    def lift(self) -> Weight3:
        return Weight3(self.w1, self.w2, 1 - self.w1 - self.w2)


def ws_scalarize(p: Pblp, w: Weight3) -> LinearProgram:
    """The weighted-sum LP  min (w1 c1 + w2 c2 + w3 d1).x  over p's
    system; p.case plays no part."""
    return system_lp(
        p, (w.w1 * a + w.w2 * b + w.w3 * c for a, b, c in zip(p.c1, p.c2, p.d1))
    )


def lambda_from_weight(case: Case, w: Weight3):
    """Invert the weight map: which lambda does a simplex weight encode.

    lambda = w3/(s1*w1 + s2*w2).  Returns a Fraction, INF for the limit
    lambda -> infinity (a zero denominator with w3 > 0), or None when
    the weight corresponds to no lambda at all (case ONE at (0, 1, 0)).
    """
    s1, s2 = case.shares
    den = (w.w1 if s1 else 0) + (w.w2 if s2 else 0)  # a zero share costs nothing
    if den > 0:
        return w.w3 / den
    if w.w3 > 0:
        return INF
    return None


@dataclass(frozen=True)
class VertexSet:
    """Vertices and extreme rays (primitive integer directions), sorted."""

    vertices: tuple[tuple[Fraction, ...], ...]
    rays: tuple[tuple[int, ...], ...]


def vertices_and_rays(rows, rhs, senses, n: int) -> VertexSet:
    """Every vertex, as Fractions, and extreme ray of
    {x >= 0 : rows (senses) rhs}, read off the oracle's double
    description; both are empty when the set is."""
    points, rays = _cone_rays(rows, rhs, senses, n)
    vertices = sorted(tuple(Fraction(a, r[-1]) for a in r[:-1]) for r in points)
    return VertexSet(tuple(vertices), rays)


def w3(a, b, c) -> Weight3:
    return Weight3(Fraction(a), Fraction(b), Fraction(c))


def w2(a, b) -> Weight2:
    return Weight2(Fraction(a), Fraction(b))


def map_weight_to_simplex(case, w: Weight2, lam: Fraction) -> Weight3:
    """Where a biobjective weight (w1, w2), w1+w2 = 1 lands in the simplex
    once lambda is folded into the objectives.

    The input is the projected pair; its lift must lie on the edge
    w1 + w2 = 1 of the simplex (a biobjective weight has no third part).
    """
    if lam < 0:
        raise NegativeParameter(f"lambda = {lam}")
    if w.w1 + w.w2 != 1:
        raise ValueError("biobjective weight must satisfy w1 + w2 = 1")
    s1, s2 = case.shares
    w3 = lam * (s1 * w.w1 + s2 * w.w2)
    den = 1 + w3
    return Weight3(w.w1 / den, w.w2 / den, w3 / den)


def as_tuple(w: Weight3) -> tuple[Fraction, Fraction, Fraction]:
    return (w.w1, w.w2, w.w3)


def project(w: Weight3) -> Weight2:
    return Weight2(w.w1, w.w2)


class UnboundedFeasibleSet(Exception):
    """The reference enumeration met an unbounded feasible set."""


def basis_vertices(rows, rhs, senses, n: int):
    """Reference enumeration: every vertex of the bounded set
    {x >= 0 : rows (senses) rhs}, sorted, by trying every basis.

    Proves boundedness first (one LP per coordinate) and raises
    UnboundedFeasibleSet otherwise.  An infeasible system yields ().
    """
    zero = Fraction(0)
    system_lp = LinearProgram(
        objective=(zero,) * n,
        rows=tuple(tuple(Fraction(a) for a in r) for r in rows),
        rhs=tuple(Fraction(b) for b in rhs),
        senses=tuple(senses),
        nonneg=(True,) * n,
    )
    system = FeasibleSystem(system_lp)
    for j in range(n):
        objective = tuple(-Fraction(1) if i == j else zero for i in range(n))
        res = solve_lp(replace(system_lp, objective=objective), system=system)
        if res.status is LpStatus.INFEASIBLE:
            return ()
        if res.status is LpStatus.UNBOUNDED:
            raise UnboundedFeasibleSet(f"coordinate {j} is unbounded")

    # Standard form: one slack (LE) or surplus (GE) column per inequality,
    # each row [coefficients | rhs] scaled to integers, reduced to an
    # independent row set so singular bases hide no vertex.
    aug_cols = sum(1 for s in senses if s is not Sense.EQ)
    total = n + aug_cols
    std = []
    k = 0  # next slack column
    for row, b, sense in zip(rows, rhs, senses):
        slack = [0] * aug_cols
        if sense is not Sense.EQ:
            slack[k] = 1 if sense is Sense.LE else -1
            k += 1
        std.append(integer_row([Fraction(a) for a in row] + slack + [Fraction(b)])[0])
    reduced, _, consistent = _eliminate(std)
    if not consistent:
        raise InvariantViolation("a feasible system reduced to 0 = nonzero")
    seen = set()
    for basis in combinations(range(total), len(reduced)):
        sol = _solve_square([[row[c] for c in basis] + [row[-1]] for row in reduced])
        if sol is None:
            continue
        z = [zero] * total
        for c, v in zip(basis, sol):
            z[c] = v
        if all(v >= 0 for v in z) and _satisfies(rows, rhs, senses, z[:n]):
            seen.add(tuple(z[:n]))
    return tuple(sorted(seen))


def _eliminate(rows):
    """Forward elimination of integer rows [A | b], one row at a time, in
    order: (reduced, pivots, consistent).

    Each row is reduced against the kept rows before it, fraction-free
    (row * pivot - row[col] * kept row, both factors divided by their
    gcd), and kept when a coefficient survives; its first nonzero
    coefficient is its pivot and its content is divided out.  So the kept
    rows are the greedy independent set in row order, and reduced row k
    is zero in the pivot columns of rows 0..k-1.  consistent is False
    when a dropped row reduces to 0 = nonzero.  The engine eliminates by
    its own exchange step (lp_core._row_reduce); this copy shares none of
    it, so the basis reference checks the engine from outside.
    """
    pivots, reduced, consistent = [], [], True
    width = len(rows[0]) - 1 if rows else 0
    for work in rows:
        for col, elim in zip(pivots, reduced):
            f = work[col]
            if f:
                p = elim[col]
                g = gcd(p, f)
                p, f = p // g, f // g
                work = [a * p - f * e for a, e in zip(work, elim)]
        piv = next((j for j in range(width) if work[j]), None)
        if piv is None:
            consistent = consistent and work[-1] == 0
            continue
        content = gcd(*work)
        reduced.append([a // content for a in work])
        pivots.append(piv)
    return reduced, pivots, consistent


def _solve_square(rows):
    """x with A x = b for a square integer system [A | b], None if A is
    singular: _eliminate's triangular rows back-substituted in integers
    over D, the product of their pivots, which makes every D * x_j an
    integer (Cramer's rule) and every division exact."""
    reduced, pivots, _ = _eliminate(rows)
    if len(reduced) < len(rows):
        return None
    det = prod(row[col] for row, col in zip(reduced, pivots))
    scaled = [0] * len(rows)  # det * x, filled from the last pivot back
    for row, col in zip(reversed(reduced), reversed(pivots)):
        rest = sum(a * v for a, v in zip(row, scaled) if a)
        scaled[col] = (row[-1] * det - rest) // row[col]
    return [Fraction(v, det) for v in scaled]


def reference_phase_two(tab, objectives):
    """Reference lexicographic phase two on tab, a feasible _Tableau:
    every stage runs, even once the optimal face is a single vertex, and
    the value is the first objective's Fraction dot product with x.
    Returns that value as (numerator, denominator), or None when a stage
    is unbounded, as _Tableau.phase_two does."""
    banned: set[int] = set()
    cost = None
    for objective in objectives:
        if cost is not None:
            tab._ban_optimal_face(banned)
        cost, _ = tab._column_cost(objective)
        if tab._simplex(cost, banned) is LpStatus.UNBOUNDED:
            return None
    numerators, den = tab.vertex(len(objectives[0]))
    x = [Fraction(v, den) for v in numerators]
    value = sum((Fraction(c) * v for c, v in zip(objectives[0], x)), Fraction(0))
    return value.numerator, value.denominator


def _satisfies(rows, rhs, senses, x) -> bool:
    for row, b, sense in zip(rows, rhs, senses):
        lhs = sum(Fraction(a) * v for a, v in zip(row, x))
        if (sense is Sense.GE and lhs < b) or (sense is Sense.LE and lhs > b):
            return False
        if sense is Sense.EQ and lhs != b:
            return False
    return True


def component_of(dec, y) -> ConvexPolygon2:
    """The component polygon of image y in decomposition dec."""
    for e, poly in zip(dec.images, dec.components):
        if e.image == y:
            return poly
    raise KeyError(f"no component for image {y}")


def triple(x, y) -> tuple[int, int, int]:
    """The point (x, y) as a reduced homogeneous triple (X, Y, W), W > 0."""
    (px, py), w = integer_row((Fraction(x), Fraction(y)))
    return px, py, w


def polygon(pairs) -> ConvexPolygon2:
    """A ConvexPolygon2 on the given (x, y) pairs, in the given order."""
    return ConvexPolygon2(tuple(triple(x, y) for x, y in pairs))


def plane(a1, a2, rhs) -> HalfPlane:
    """The half-plane a1*w1 + a2*w2 <= rhs of rational coefficients,
    scaled by a positive integer to ints."""
    (c1, c2, r), _ = integer_row((Fraction(a1), Fraction(a2), Fraction(rhs)))
    return HalfPlane(c1, c2, r)


def component(y, others) -> ConvexPolygon2:
    """component_vertices of the image y against others, all Fraction
    triples."""
    return component_vertices(int_image(y), [int_image(z) for z in others])


def cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_of(points) -> ConvexPolygon2:
    """Canonicalize an arbitrary point soup via exact convex hull."""
    pts = sorted(set((Fraction(a), Fraction(b)) for a, b in points))
    if len(pts) <= 2:
        return polygon(pts)
    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) <= 2:
        # All points collinear: keep the two extremes of the sort.
        return polygon((pts[0], pts[-1]))
    start = hull.index(min(hull))
    return polygon(hull[start:] + hull[:start])


def polygon_contains(poly: ConvexPolygon2, pt) -> bool:
    vs = poly.vertices
    if not vs:
        return False
    if len(vs) == 1:
        return pt == vs[0]
    if len(vs) == 2:
        a, b = vs
        if cross(a, b, pt) != 0:
            return False
        return (
            min(a[0], b[0]) <= pt[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= pt[1] <= max(a[1], b[1])
        )
    for i in range(len(vs)):
        if cross(vs[i], vs[(i + 1) % len(vs)], pt) < 0:
            return False
    return True


def plane_contains(hp: HalfPlane, pt) -> bool:
    return hp.a1 * pt[0] + hp.a2 * pt[1] <= hp.rhs


def plane_is_trivial(hp: HalfPlane) -> bool:
    return hp.a1 == 0 and hp.a2 == 0


@pytest.fixture(scope="session")
def example1():
    return load_instance("example1.pblp")


@pytest.fixture(scope="session")
def example2():
    return load_instance("example2.pblp")


@pytest.fixture(scope="session")
def example2_case1():
    return load_instance("example2_case1.pblp")
