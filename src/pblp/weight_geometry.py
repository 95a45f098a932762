"""Exact geometry in the projected weight simplex.

Components of the weight-set decomposition live in the triangle
{(w1, w2) : w1, w2 >= 0, w1 + w2 <= 1} (the third weight is implicit).
Everything here is exact: half-plane clipping, canonical convex polygons,
shoelace areas, and the lifted H-representation of a component over
(v, w), in the row layout the LP-based interval method solves.
Vertices are canonical Fraction pairs, but clips, areas and edge
half-planes compute in plain ints, in the exact-geometric-computation
style (Yap, Towards exact geometric computation, 1997): points as
homogeneous integer triples, half-planes and polygons scaled by positive
common denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

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


def _homogeneous(x: Fraction, y: Fraction) -> tuple[int, int, int]:
    """(x, y) as (X, Y, W) with W > 0 and gcd(X, Y, W) = 1."""
    w = lcm(x.denominator, y.denominator)
    return x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w


def _det3(p, q, r) -> int:
    """Twice the signed area of p, q, r times the product of their W."""
    (x1, y1, w1), (x2, y2, w2), (x3, y3, w3) = p, q, r
    return x1 * (y2 * w3 - w2 * y3) - y1 * (x2 * w3 - w2 * x3) + w1 * (x2 * y3 - y2 * x3)


def _integral(values) -> tuple[int, list[int]]:
    """A positive common denominator of values and their numerators over it."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


@dataclass(frozen=True)
class ConvexPolygon2:
    """A convex polygon in canonical form.

    Vertices are counterclockwise, collinear points removed, starting at
    the lexicographically smallest vertex.  Zero, one or two vertices
    encode the empty set, a point, and a segment; those degenerate shapes
    arise naturally while clipping and have area zero.
    """

    vertices: tuple[Point2, ...]

    def is_empty(self) -> bool:
        return not self.vertices

    def area(self) -> Fraction:
        vs = self.vertices
        if len(vs) < 3:
            return Fraction(0)
        scale, flat = _integral([c for v in vs for c in v])
        xs, ys = flat[0::2], flat[1::2]
        twice = sum(xs[i - 1] * ys[i] - xs[i] * ys[i - 1] for i in range(len(vs)))
        return Fraction(twice, 2 * scale * scale)

    def edge_halfplanes(self) -> list[HalfPlane]:
        """Inward half-planes of a full-dimensional polygon's edges."""
        scale, flat = _integral([c for v in self.vertices for c in v])
        pts = list(zip(flat[0::2], flat[1::2]))
        out = []
        for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
            # CCW edge: the inside is its left side, which rearranges to
            # (y2-y1) w1 + (x1-x2) w2 <= (y2-y1) x1 + (x1-x2) y1; over the
            # common denominator, times its square, the plane is integral.
            a1, a2 = y2 - y1, x1 - x2
            out.append(HalfPlane(
                Fraction(a1 * scale), Fraction(a2 * scale), Fraction(a1 * x1 + a2 * y1)
            ))
        return out


def simplex_triangle() -> ConvexPolygon2:
    z, o = Fraction(0), Fraction(1)
    return ConvexPolygon2(((z, z), (o, z), (z, o)))


def clip_polygon(poly: ConvexPolygon2, hp: HalfPlane) -> ConvexPolygon2:
    """Intersect a polygon with one half-plane in linear time.

    The plane, scaled by the lcm of its denominators, is (c1, c2, r) in
    ints.  Each vertex, read as (X, Y, W) with W > 0, is evaluated once
    as D = c1*X + c2*Y - r*W; both scales are positive, so D has the
    sign of a1*x + a2*y - rhs.  A plane that leaves every vertex inside
    returns poly itself, and one that leaves every vertex strictly
    outside the empty polygon.  Otherwise one Sutherland-Hodgman pass
    (Sutherland and Hodgman, CACM 1974) reuses the D: edge s -> e
    crosses the line at Ds*e - De*s, negated to W > 0 and divided by
    the gcd of its entries.  A convex counterclockwise polygon stays so,
    and the canonical form needs no hull: drop repeated triples (a
    vertex on the line is emitted twice) and collinear ones, whose 3x3
    determinant vanishes (left by a polygon built with extra points on
    its edges), then rotate to the smallest vertex.  Fewer than three
    points leave a sorted point or segment.  Only the crossing points
    become Fraction pairs.
    """
    vs = poly.vertices
    _, (c1, c2, r) = _integral((hp.a1, hp.a2, hp.rhs))
    hs = [_homogeneous(x, y) for x, y in vs]
    d = [c1 * x + c2 * y - r * w for x, y, w in hs]
    if all(v <= 0 for v in d):
        return poly
    if all(v > 0 for v in d):
        return ConvexPolygon2(())
    out: list[tuple[int, int, int]] = []
    original: dict[tuple[int, int, int], Point2] = {}
    for i, (e, de) in enumerate(zip(hs, d)):  # edge vs[i-1] -> vs[i]
        s, ds = hs[i - 1], d[i - 1]
        if (ds > 0) != (de > 0):
            x = ds * e[0] - de * s[0]
            y = ds * e[1] - de * s[1]
            w = ds * e[2] - de * s[2]
            if w < 0:
                x, y, w = -x, -y, -w
            g = gcd(x, y, w)
            out.append((x // g, y // g, w // g))
        if de <= 0:
            out.append(e)
            original[e] = vs[i]
    pts = [p for i, p in enumerate(out) if p != out[i - 1]] or out[:1]

    def pair(p):
        return original.get(p) or (Fraction(p[0], p[2]), Fraction(p[1], p[2]))

    count = len(pts)
    hull = [
        pair(p) for i, p in enumerate(pts)
        if _det3(pts[i - 1], p, pts[(i + 1) % count]) != 0
    ]
    if len(hull) < 3:  # a point or a segment: its sorted extremes
        points = [pair(p) for p in pts]
        return ConvexPolygon2(tuple(sorted({min(points), max(points)})))
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

    All variables are nonnegative.  cone holds one row per original
    variable, A^T v - C^T w, read as <= 0 (A and b the feasible system
    rewritten in >=-form, so m counts the rewritten rows, not the input
    rows); image is b.v - y.w, read as = 0.  Every row has rhs 0, so the
    set is a cone, and its projection onto (w1, w2, w3) is the cone over
    the component of y: its slice w1 + w2 + w3 = 1 is the component.
    """

    cone: tuple[tuple[Fraction, ...], ...]
    image: tuple[Fraction, ...]
    m: int

    def for_image(self, y: Point3) -> "ComponentHrep":
        """The hrep of another image y of the same problem: the cone is
        shared, and only the image row's -y part changes."""
        image = self.image[: self.m] + tuple(-Fraction(v) for v in y)
        return ComponentHrep(cone=self.cone, image=image, m=self.m)


def component_hrep(t: Tolp, y: Point3) -> ComponentHrep:
    rows, rhs = ge_form(t.rows, t.rhs, t.senses)
    m = len(rows)
    C = t.cost_rows
    cone = tuple(
        tuple(rows[i][j] for i in range(m)) + tuple(-C[k][j] for k in range(3))
        for j in range(t.n)
    )
    image = tuple(rhs) + tuple(-Fraction(v) for v in y)
    return ComponentHrep(cone=cone, image=image, m=m)
