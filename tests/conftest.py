import pathlib
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from pblp import ConvexPolygon2, HalfPlane, Weight2, Weight3, component_vertices, parse_problem
from pblp.errors import InvariantViolation, NegativeParameter
from pblp.lp_core import (
    FeasibleSystem,
    LinearProgram,
    LpStatus,
    Sense,
    eliminate,
    integer_row,
    solve_lp,
    solve_square,
)
from pblp.weight_geometry import integral_image

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
    echelon = eliminate(std)
    if not echelon.consistent:
        raise InvariantViolation("a feasible system reduced to 0 = nonzero")
    reduced = echelon.rows
    seen = set()
    for basis in combinations(range(total), len(reduced)):
        sol = solve_square([[row[c] for c in basis] + [row[-1]] for row in reduced])
        if sol is None:
            continue
        z = [zero] * total
        for c, v in zip(basis, sol):
            z[c] = v
        if all(v >= 0 for v in z) and _satisfies(rows, rhs, senses, z[:n]):
            seen.add(tuple(z[:n]))
    return tuple(sorted(seen))


def reference_phase_two(tab, objectives):
    """Reference lexicographic phase two on tab, a feasible _Tableau:
    every stage runs, even once the optimal face is a single vertex, and
    the value is the first objective's Fraction dot product with x.
    Returns that value, or None when a stage is unbounded, as
    _Tableau.phase_two does."""
    banned: set[int] = set()
    cost = None
    for objective in objectives:
        if cost is not None:
            tab._ban_optimal_face(cost, banned)
        cost, _ = tab._column_cost(objective)
        if tab._simplex(cost, banned) is LpStatus.UNBOUNDED:
            return None
    x = tab.solution()
    return sum((Fraction(c) * v for c, v in zip(objectives[0], x)), Fraction(0))


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
    return component_vertices(integral_image(y), [integral_image(z) for z in others])


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
