import pathlib
from fractions import Fraction

import pytest

from pblp import ConvexPolygon2, HalfPlane, Weight2, Weight3, parse_problem

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"


def load_instance(name: str):
    return parse_problem((INSTANCE_DIR / name).read_text())


def w3(a, b, c) -> Weight3:
    return Weight3(Fraction(a), Fraction(b), Fraction(c))


def w2(a, b) -> Weight2:
    return Weight2(Fraction(a), Fraction(b))


def as_tuple(w: Weight3) -> tuple[Fraction, Fraction, Fraction]:
    return (w.w1, w.w2, w.w3)


def project(w: Weight3) -> Weight2:
    return Weight2(w.w1, w.w2)


def component_of(dec, y) -> ConvexPolygon2:
    """The component polygon of image y in decomposition dec."""
    for e, poly in zip(dec.images, dec.components):
        if e.image == y:
            return poly
    raise KeyError(f"no component for image {y}")


def cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_of(points) -> ConvexPolygon2:
    """Canonicalize an arbitrary point soup via exact convex hull."""
    pts = sorted(set((Fraction(a), Fraction(b)) for a, b in points))
    if len(pts) <= 2:
        return ConvexPolygon2(tuple(pts))
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
        return ConvexPolygon2((pts[0], pts[-1]))
    start = hull.index(min(hull))
    return ConvexPolygon2(tuple(hull[start:] + hull[:start]))


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
