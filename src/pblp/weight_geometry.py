"""Exact geometry in the projected weight simplex.

Components of the weight-set decomposition live in the triangle
{(w1, w2) : w1, w2 >= 0, w1 + w2 <= 1} (the third weight is implicit).
Everything here is exact: half-plane clipping, canonical convex polygons,
shoelace areas, and the lifted H-representation of a component over
(v, w) used by the LP-based interval method.  A clip is one
Sutherland-Hodgman pass followed by a linear canonicalization, not the
sorting hull that ConvexPolygon2.from_points takes of a point soup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .problem_model import Tolp, ge_form

Point2 = tuple[Fraction, Fraction]
Point3 = tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class HalfPlane:
    """The set a1*w1 + a2*w2 <= rhs.

    A zero normal is deliberately legal: it encodes the trivially true
    plane (rhs >= 0, contributed by a competitor that is a uniform shift
    of the image) or the empty one (rhs < 0).
    """

    a1: Fraction
    a2: Fraction
    rhs: Fraction

    def contains(self, pt: Point2) -> bool:
        return self.a1 * pt[0] + self.a2 * pt[1] <= self.rhs

    def is_trivial(self) -> bool:
        return self.a1 == 0 and self.a2 == 0


def _cross(o: Point2, a: Point2, b: Point2) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class ConvexPolygon2:
    """A convex polygon in canonical form.

    Vertices are counterclockwise, collinear points removed, starting at
    the lexicographically smallest vertex.  Zero, one or two vertices
    encode the empty set, a point, and a segment; those degenerate shapes
    arise naturally while clipping and have area zero.
    """

    vertices: tuple[Point2, ...]

    @staticmethod
    def from_points(points) -> "ConvexPolygon2":
        """Canonicalize an arbitrary point soup via exact convex hull."""
        pts = sorted(set((Fraction(a), Fraction(b)) for a, b in points))
        if len(pts) <= 2:
            return ConvexPolygon2(tuple(pts))
        lower: list[Point2] = []
        for p in pts:
            while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
                lower.pop()
            lower.append(p)
        upper: list[Point2] = []
        for p in reversed(pts):
            while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
                upper.pop()
            upper.append(p)
        hull = lower[:-1] + upper[:-1]
        if len(hull) <= 2:
            # All points collinear: keep the two extremes of the sort.
            return ConvexPolygon2((pts[0], pts[-1]))
        start = hull.index(min(hull))
        return ConvexPolygon2(tuple(hull[start:] + hull[:start]))

    def is_empty(self) -> bool:
        return not self.vertices

    def area(self) -> Fraction:
        if len(self.vertices) < 3:
            return Fraction(0)
        twice = Fraction(0)
        vs = self.vertices
        for i in range(len(vs)):
            x1, y1 = vs[i]
            x2, y2 = vs[(i + 1) % len(vs)]
            twice += x1 * y2 - x2 * y1
        return twice / 2

    def contains(self, pt: Point2) -> bool:
        vs = self.vertices
        if not vs:
            return False
        if len(vs) == 1:
            return pt == vs[0]
        if len(vs) == 2:
            a, b = vs
            if _cross(a, b, pt) != 0:
                return False
            return (
                min(a[0], b[0]) <= pt[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= pt[1] <= max(a[1], b[1])
            )
        for i in range(len(vs)):
            if _cross(vs[i], vs[(i + 1) % len(vs)], pt) < 0:
                return False
        return True

    def edge_halfplanes(self) -> list[HalfPlane]:
        """Inward half-planes of a full-dimensional polygon's edges."""
        vs = self.vertices
        out = []
        for i in range(len(vs)):
            (x1, y1), (x2, y2) = vs[i], vs[(i + 1) % len(vs)]
            # CCW edge: the inside is its left side, which rearranges to
            # (y2-y1) w1 + (x1-x2) w2 <= (y2-y1) x1 + (x1-x2) y1.
            a1 = y2 - y1
            a2 = x1 - x2
            out.append(HalfPlane(a1, a2, a1 * x1 + a2 * y1))
        return out


def simplex_triangle() -> ConvexPolygon2:
    z, o = Fraction(0), Fraction(1)
    return ConvexPolygon2(((z, z), (o, z), (z, o)))


def clip_polygon(poly: ConvexPolygon2, hp: HalfPlane) -> ConvexPolygon2:
    """Intersect a polygon with one half-plane in linear time.

    Each vertex is evaluated against the plane once.  A plane that leaves
    every vertex inside returns poly itself, and one that leaves every
    vertex strictly outside returns the empty polygon.  Otherwise one
    Sutherland-Hodgman pass (Sutherland and Hodgman, CACM 1974) reuses
    those values for the crossing points.  Clipping keeps a convex
    counterclockwise polygon convex and counterclockwise, so the canonical
    form needs no hull: drop repeated points (a vertex on the line is
    emitted twice) and collinear ones (left by a polygon built with extra
    points on its edges), then rotate to the smallest vertex.  Fewer than
    three points leave a sorted point or segment.
    """
    vs = poly.vertices
    d = [hp.a1 * x + hp.a2 * y - hp.rhs for x, y in vs]
    if all(v <= 0 for v in d):
        return poly
    if all(v > 0 for v in d):
        return ConvexPolygon2(())
    out: list[Point2] = []
    for i, (e, de) in enumerate(zip(vs, d)):  # edge vs[i-1] -> vs[i]
        s, ds = vs[i - 1], d[i - 1]
        if (ds > 0) != (de > 0):
            t = ds / (ds - de)
            out.append((s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1])))
        if de <= 0:
            out.append(e)
    pts = [p for i, p in enumerate(out) if p != out[i - 1]] or out[:1]
    count = len(pts)
    hull = [
        p for i, p in enumerate(pts)
        if _cross(pts[i - 1], p, pts[(i + 1) % count]) != 0
    ]
    if len(hull) < 3:  # a point or a segment: its sorted extremes
        return ConvexPolygon2(tuple(sorted({min(pts), max(pts)})))
    start = hull.index(min(hull))
    return ConvexPolygon2(tuple(hull[start:] + hull[:start]))


def intersect_polygons(a: ConvexPolygon2, b: ConvexPolygon2) -> ConvexPolygon2:
    """Exact intersection; b must be full-dimensional."""
    result = a
    for hp in b.edge_halfplanes():
        result = clip_polygon(result, hp)
        if result.is_empty():
            break
    return result


# -- components ------------------------------------------------------------


def competitor_halfplane(y: Point3, other: Point3) -> HalfPlane:
    """The weights where y is no worse than other, w.y <= w.other.

    Projecting out w3 = 1 - w1 - w2 turns the condition into
    (D1 - D3) w1 + (D2 - D3) w2 <= -D3 with D = y - other.
    """
    d = tuple(a - b for a, b in zip(y, other))
    return HalfPlane(d[0] - d[2], d[1] - d[2], -d[2])


def component_halfplanes(y: Point3, others) -> list[HalfPlane]:
    """Half-planes whose intersection is the component of y.

    One competitor_halfplane per competitor y' other than y.  A competitor
    equal to y + t*(1,1,1) yields the degenerate plane 0 <= -t, trivially
    true for shifts upward.  The three bounds of the projected simplex
    close the list, so intersecting everything over the whole plane gives
    the component directly.
    """
    out = [
        competitor_halfplane(y, other)
        for other in others
        if tuple(other) != tuple(y)
    ]
    zero, one = Fraction(0), Fraction(1)
    out.append(HalfPlane(-one, zero, zero))  # w1 >= 0
    out.append(HalfPlane(zero, -one, zero))  # w2 >= 0
    out.append(HalfPlane(one, one, one))  # w1 + w2 <= 1
    return out


def component_vertices(y: Point3, others) -> ConvexPolygon2:
    """The component of y within the projected simplex, as a polygon."""
    poly = simplex_triangle()
    for hp in component_halfplanes(y, others):
        poly = clip_polygon(poly, hp)
        if poly.is_empty():
            break
    return poly


@dataclass(frozen=True)
class ComponentHrep:
    """Lifted H-representation of a component over z = (v_1..v_m, w1, w2, w3).

    All variables are nonnegative and the system reads P z >= q with rows,
    in order: for each of the n original variables, -(A^T v) + C^T w >= 0
    (that is, A^T v <= C^T w, with A and b the feasible system rewritten
    in >=-form, so m counts the rewritten rows, not the input rows); the
    equality b.v = w.y split as two >= rows; and the simplex equality
    w1 + w2 + w3 = 1 split likewise.  The projection onto (w1, w2, w3) of
    the feasible set is exactly the component of y.
    """

    P: tuple[tuple[Fraction, ...], ...]
    q: tuple[Fraction, ...]
    m: int
    n: int


def component_hrep(t: Tolp, y: Point3) -> ComponentHrep:
    rows, rhs = ge_form(t.rows, t.rhs, t.senses)
    m, n = len(rows), t.n
    zero = Fraction(0)
    C = t.cost_rows
    P: list[tuple[Fraction, ...]] = []
    for j in range(n):
        P.append(
            tuple(-rows[i][j] for i in range(m))
            + tuple(C[k][j] for k in range(3))
        )
    P.append(tuple(rhs) + tuple(-Fraction(v) for v in y))
    P.append(tuple(-b for b in rhs) + tuple(Fraction(v) for v in y))
    one = Fraction(1)
    P.append((zero,) * m + (one, one, one))
    P.append((zero,) * m + (-one, -one, -one))
    q = (zero,) * n + (zero, zero, one, -one)
    return ComponentHrep(P=tuple(P), q=q, m=m, n=n)
