"""Exact geometry in the projected weight simplex.

Components of the weight-set decomposition live in the triangle
{(w1, w2) : w1, w2 >= 0, w1 + w2 <= 1} (the third weight is implicit).
Everything here is exact and, in the exact-geometric-computation style
(Yap, Towards exact geometric computation, 1997), in plain ints: a point
is a reduced homogeneous triple (X, Y, W), W > 0 and gcd(X, Y, W) = 1,
for (X/W, Y/W), so equal points are equal triples; a half-plane has
integer coefficients; an image is integer numerators over one positive
denominator.  On top of that: half-plane clipping that also returns the
points spanning the piece cut off, canonical convex polygons, the convex
hull of a point set, shoelace areas, and the lifted H-representation of
a component over (v, w), in the row layout the LP-based interval method
solves.  Canonical form is a contract, not a pass: a canonical polygon
in gives a canonical polygon out, and convex_hull is the one function
that makes a canonical polygon from arbitrary points.  A polygon built
by hand must already be canonical; nothing checks it at run time, as no
polygon comes from outside the package.  A canonical polygon is
full-dimensional exactly when it has three or more vertices.  Fractions
are built only for callers that read them: a polygon's vertices and its
area.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd, lcm

from .errors import DegenerateOperands
from .problem_model import Pblp, ge_form

Point2 = tuple[Fraction, Fraction]
Point3 = tuple[Fraction, Fraction, Fraction]
Triple = tuple[int, int, int]  # (X, Y, W): the point (X/W, Y/W)
IntImage = tuple[int, int, int, int]  # (Y1, Y2, Y3, D): the image (Yk/D)


@dataclass(frozen=True)
class HalfPlane:
    """The set a1*w1 + a2*w2 <= rhs, in ints.

    A zero normal is deliberately legal: it encodes the trivially true
    plane (rhs >= 0, contributed by a competitor that is a uniform shift
    of the image) or the empty one (rhs < 0).
    """

    a1: int
    a2: int
    rhs: int


def _det3(p, q, r) -> int:
    """Twice the signed area of p, q, r times the product of their W."""
    (x1, y1, w1), (x2, y2, w2), (x3, y3, w3) = p, q, r
    return x1 * (y2 * w3 - w2 * y3) - y1 * (x2 * w3 - w2 * x3) + w1 * (x2 * y3 - y2 * x3)


def _compare(p: Triple, q: Triple) -> int:
    """-1, 0 or 1 as p comes before, at or after q, x first, then y."""
    (x1, y1, w1), (x2, y2, w2) = p, q
    a, b = x1 * w2, x2 * w1
    if a == b:
        a, b = y1 * w2, y2 * w1
    return (a > b) - (a < b)


_lex = cmp_to_key(_compare)


@dataclass(frozen=True)
class ConvexPolygon2:
    """A convex polygon in canonical form, as reduced triples.

    Vertices are counterclockwise, collinear points removed, starting at
    the lexicographically smallest vertex.  Zero, one or two vertices
    encode the empty set, a point, and a sorted segment; those degenerate
    shapes arise naturally while clipping and have area zero.  The
    constructor takes the triples as given: built by hand they must be
    canonical, and convex_hull makes them so from any points.
    """

    triples: tuple[Triple, ...]

    @cached_property
    def vertices(self) -> tuple[Point2, ...]:
        """The vertices as Fraction pairs, built once per polygon."""
        return tuple((Fraction(x, w), Fraction(y, w)) for x, y, w in self.triples)

    def is_empty(self) -> bool:
        return not self.triples

    def area(self) -> Fraction:
        ts = self.triples
        if len(ts) < 3:
            return Fraction(0)
        scale = lcm(*(w for _, _, w in ts))
        pts = [(x * (scale // w), y * (scale // w)) for x, y, w in ts]
        twice = sum(pts[i - 1][0] * y - x * pts[i - 1][1] for i, (x, y) in enumerate(pts))
        return Fraction(twice, 2 * scale * scale)

    def edge_halfplanes(self) -> list[HalfPlane]:
        """Inward half-planes of a full-dimensional polygon's edges.

        The counterclockwise edge p -> q keeps the points r on its left,
        det(p, q, r) = r.(p x q) >= 0, whose coefficients are those of
        the cross product p x q.
        """
        ts = self.triples
        return [
            HalfPlane(w1 * y2 - y1 * w2, x1 * w2 - w1 * x2, x1 * y2 - y1 * x2)
            for (x1, y1, w1), (x2, y2, w2) in zip(ts, ts[1:] + ts[:1])
        ]


def simplex_triangle() -> ConvexPolygon2:
    return ConvexPolygon2(((0, 0, 1), (1, 0, 1), (0, 1, 1)))


def split_polygon(
    poly: ConvexPolygon2, hp: HalfPlane
) -> tuple[ConvexPolygon2, list[Triple]]:
    """The part of poly in hp, and the points that span the part cut
    off: the vertices on or beyond the line and the crossing points.

    Each vertex (X, Y, W) is evaluated once as D = a1*X + a2*Y - rhs*W,
    of the sign of a1*x + a2*y - rhs as W > 0.  Unless every D is <= 0
    or every D > 0, one Sutherland-Hodgman pass (CACM 1974) reuses the
    D: an edge s -> e whose ends lie strictly on opposite sides crosses
    the line at Ds*e - De*s, negated to W > 0 and divided by the gcd of
    its entries, so a positive multiple of the plane gives the same
    point.  An end on the line is its own crossing and is emitted once.

    poly must be canonical, and the kept part is too.  When poly has
    three or more vertices and one of them lies strictly inside
    (D < 0), the kept part is full-dimensional and, as poly has no
    collinear points and the line meets its boundary at most twice,
    each kept point is one of its vertices, counterclockwise.  While
    poly's smallest vertex poly.triples[0] is kept (D <= 0) it still
    comes first, so the part is returned as built, and rotated to its
    smallest vertex only when that one is cut off.  A degenerate poly
    or cut, which leaves a point or a segment and may emit a crossing
    twice, returns the convex_hull of the kept points: their sorted
    extremes.
    """
    ts = poly.triples
    a1, a2, rhs = hp.a1, hp.a2, hp.rhs
    d = [a1 * x + a2 * y - rhs * w for x, y, w in ts]
    if all(v <= 0 for v in d):
        return poly, [t for t, v in zip(ts, d) if v == 0]
    if all(v > 0 for v in d):
        return ConvexPolygon2(()), list(ts)
    kept, cut = [], []
    for s, ds, e, de in zip(ts, d, ts[1:] + ts[:1], d[1:] + d[:1]):  # edge s -> e
        if ds <= 0:
            kept.append(s)
        if ds >= 0:
            cut.append(s)
        if ds < 0 < de or de < 0 < ds:
            x = ds * e[0] - de * s[0]
            y = ds * e[1] - de * s[1]
            w = ds * e[2] - de * s[2]
            if w < 0:
                x, y, w = -x, -y, -w
            g = gcd(x, y, w)
            kept.append((x // g, y // g, w // g))
            cut.append(kept[-1])
    if len(ts) < 3 or min(d) == 0:  # a point or a segment is left
        return convex_hull(kept), cut
    if d[0] > 0:  # the smallest vertex is cut off
        start = kept.index(min(kept, key=_lex))
        kept = kept[start:] + kept[:start]
    return ConvexPolygon2(tuple(kept)), cut


def clip_polygon(poly: ConvexPolygon2, hp: HalfPlane) -> ConvexPolygon2:
    """Intersect a polygon with one half-plane in linear time."""
    return split_polygon(poly, hp)[0]


def convex_hull(points) -> ConvexPolygon2:
    """The canonical hull of reduced triples by Andrew's monotone chain
    (Inf. Process. Lett. 1979), returned as built: the chain runs
    counterclockwise from the smallest point and pops every point that
    makes no left turn, so three or more distinct points give a strictly
    convex polygon, or, when they are collinear, their sorted extremes."""
    pts = sorted(set(points), key=_lex)
    if len(pts) < 3:
        return ConvexPolygon2(tuple(pts))
    chain: list[Triple] = []
    for walk in (pts, pts[::-1]):  # the lower chain, then the upper one
        start = len(chain)
        for p in walk:
            while len(chain) - start > 1 and _det3(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chain.pop()  # the first point of the other walk
    return ConvexPolygon2(tuple(chain))


def intersect_polygons(a: ConvexPolygon2, b: ConvexPolygon2) -> ConvexPolygon2:
    """Exact intersection of two polygons, one of them full-dimensional:
    the other one is clipped by its edges.  The edges of a point or a
    segment bound no region, so two such operands raise
    DegenerateOperands."""
    if len(b.triples) < 3:
        if len(a.triples) < 3:
            raise DegenerateOperands(
                f"operands of {len(a.triples)} and {len(b.triples)} vertices"
            )
        a, b = b, a
    result = a
    for hp in b.edge_halfplanes():
        result = clip_polygon(result, hp)
        if result.is_empty():
            break
    return result


# -- components ------------------------------------------------------------


def competitor_halfplane(y: IntImage, other: IntImage) -> HalfPlane:
    """The weights where y is no worse than other, w.y <= w.other.

    Projecting out w3 = 1 - w1 - w2 turns the condition into
    (D1 - D3) w1 + (D2 - D3) w2 <= -D3 with D = y - other, here times
    the product of the two denominators.
    """
    y1, y2, y3, dy = y
    o1, o2, o3, do = other
    d1, d2, d3 = y1 * do - o1 * dy, y2 * do - o2 * dy, y3 * do - o3 * dy
    return HalfPlane(d1 - d3, d2 - d3, -d3)


def component_halfplanes(y: IntImage, others) -> list[HalfPlane]:
    """Half-planes whose intersection is the component of y.

    One competitor_halfplane per competitor y' other than y, all as
    problem_model.integral_image gives them.  A competitor equal to
    y + t*(1,1,1) yields the degenerate plane 0 <= -t, trivially true
    for shifts upward.  The three bounds of the projected simplex close
    the list, so intersecting everything over the whole plane gives the
    component directly.
    """
    out = [competitor_halfplane(y, other) for other in others if other != y]
    out.append(HalfPlane(-1, 0, 0))  # w1 >= 0
    out.append(HalfPlane(0, -1, 0))  # w2 >= 0
    out.append(HalfPlane(1, 1, 1))  # w1 + w2 <= 1
    return out


def component_vertices(y: IntImage, others) -> ConvexPolygon2:
    """The component of y within the projected simplex, as a polygon;
    y and others as problem_model.integral_image gives them."""
    poly = simplex_triangle()
    for hp in component_halfplanes(y, others):
        poly = clip_polygon(poly, hp)
        if poly.is_empty():
            break
    return poly


@dataclass(frozen=True)
class ComponentHrep:
    """Lifted H-representation of a component over z = (v_1..v_m, w1, w2, w3).

    All variables are nonnegative.  cone holds one row per original
    variable, A^T v - C^T w, read as <= 0 (A and b the feasible system
    rewritten in >=-form, so m counts the rewritten rows, not the input
    rows).  gap is the duality gap y.w - b.v of image y as it stands,
    the row (-b, y) over (v, w), whose -b every image of the problem
    shares; the LP engine scales it to integers.  Weak duality keeps the
    gap >= 0 on the cone, and where it is 0 the cone projects onto
    (w1, w2, w3) as the cone over the component of y: its slice
    w1 + w2 + w3 = 1 is the component.  The interval LPs take that set
    as the optimal face of gap, never as an added row.
    """

    cone: tuple[tuple[Fraction, ...], ...]
    gap: tuple[Fraction, ...]
    m: int

    def for_image(self, y: Point3) -> "ComponentHrep":
        """The hrep of another image y of the same problem: the cone and
        the gap's -b are shared, and only the gap's y changes."""
        return ComponentHrep(self.cone, self.gap[: self.m] + tuple(y), self.m)


def component_hrep(p: Pblp, y: Point3) -> ComponentHrep:
    """The lifted hrep of image y's component; p.case plays no part."""
    rows, b = ge_form(p.rows, p.rhs, p.senses)
    m = len(rows)
    C = p.cost_rows
    cone = tuple(
        tuple(rows[i][j] for i in range(m)) + tuple(-C[k][j] for k in range(3))
        for j in range(p.n)
    )
    return ComponentHrep(cone=cone, gap=tuple(-v for v in b) + tuple(y), m=m)
