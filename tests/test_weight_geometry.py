"""Exact polygon geometry in the projected weight simplex."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pblp import (
    ConvexPolygon2,
    LinearProgram,
    LpStatus,
    Sense,
    clip_polygon,
    component_halfplanes,
    component_hrep,
    decompose,
    simplex_triangle,
    solve_lp,
)
from pblp.errors import DegenerateOperands, PblpError
from pblp.problem_model import ge_form
from pblp.weight_geometry import (
    HalfPlane,
    convex_hull,
    intersect_polygons,
    split_polygon,
)

from conftest import (
    component,
    cross,
    hull_of,
    int_image,
    plane,
    plane_contains,
    plane_is_trivial,
    polygon,
    polygon_contains,
    triple,
)

F = Fraction


def hrep_feasible_at(h, w):
    """Whether some v >= 0 makes (v, w) satisfy the lifted system:
    cone.(v, w) <= 0 and gap.(v, w) = 0."""
    lifted = h.cone + (h.gap,)
    lp = LinearProgram(
        objective=(F(0),) * h.m,
        rows=tuple(row[: h.m] for row in lifted),
        rhs=tuple(-sum(a * b for a, b in zip(row[h.m :], w)) for row in lifted),
        senses=(Sense.LE,) * len(h.cone) + (Sense.EQ,),
        nonneg=(True,) * h.m,
    )
    return solve_lp(lp).status is LpStatus.OPTIMAL


def test_hull_is_canonical_regardless_of_input_order():
    pts = [(F(0), F(0)), (F(2), F(0)), (F(2), F(2)), (F(0), F(2)), (F(1), F(1))]
    rng = random.Random(3)
    reference = hull_of(pts)
    assert reference.vertices == (
        (F(0), F(0)),
        (F(2), F(0)),
        (F(2), F(2)),
        (F(0), F(2)),
    )
    for _ in range(10):
        rng.shuffle(pts)
        assert hull_of(pts + pts).vertices == reference.vertices


def test_hull_drops_collinear_interior_points():
    pts = [(F(0), F(0)), (F(1), F(0)), (F(2), F(0)), (F(0), F(2))]
    poly = hull_of(pts)
    assert poly.vertices == ((F(0), F(0)), (F(2), F(0)), (F(0), F(2)))


def test_degenerate_hulls_are_points_and_segments():
    point = hull_of([(F(1), F(1)), (F(1), F(1))])
    assert point.vertices == ((F(1), F(1)),)
    assert point.area() == 0
    seg = hull_of([(F(0), F(0)), (F(2), F(2)), (F(1), F(1))])
    assert seg.vertices == ((F(0), F(0)), (F(2), F(2)))
    assert seg.area() == 0
    assert hull_of([]).is_empty()


def test_simplex_triangle_area_is_one_half():
    assert simplex_triangle().area() == F(1, 2)


def test_clip_cuts_a_corner_exactly():
    poly = clip_polygon(simplex_triangle(), plane(F(1), F(1), F(1, 2)))
    assert poly.vertices == (
        (F(0), F(0)),
        (F(1, 2), F(0)),
        (F(0), F(1, 2)),
    )
    assert poly.area() == F(1, 8)


def test_clip_by_trivial_halfplanes():
    tri = simplex_triangle()
    assert clip_polygon(tri, plane(F(0), F(0), F(1))).vertices == tri.vertices
    assert clip_polygon(tri, plane(F(0), F(0), F(-1))).is_empty()


def test_clip_to_empty_and_to_lower_dimensions():
    tri = simplex_triangle()
    assert clip_polygon(tri, plane(F(-1), F(0), F(-2))).is_empty()
    edge = clip_polygon(tri, plane(F(0), F(1), F(0)))
    assert edge.vertices == ((F(0), F(0)), (F(1), F(0)))
    corner = clip_polygon(edge, plane(F(-1), F(0), F(-1)))
    assert corner.vertices == ((F(1), F(0)),)


def test_contains_handles_interior_boundary_and_outside():
    tri = simplex_triangle()
    assert polygon_contains(tri, (F(1, 4), F(1, 4)))
    assert polygon_contains(tri, (F(1, 2), F(1, 2)))  # on the hypotenuse
    assert not polygon_contains(tri, (F(3, 4), F(3, 4)))
    seg = hull_of([(F(0), F(0)), (F(2), F(2))])
    assert polygon_contains(seg, (F(1), F(1)))
    assert not polygon_contains(seg, (F(1), F(0)))


def test_edge_halfplanes_recover_the_polygon():
    tri = simplex_triangle()
    rebuilt = simplex_triangle()
    grid = [
        (F(a, 8), F(b, 8)) for a in range(-2, 11) for b in range(-2, 11)
    ]
    planes = tri.edge_halfplanes()
    assert len(planes) == 3
    for pt in grid:
        assert polygon_contains(tri, pt) == all(plane_contains(hp, pt) for hp in planes)
    assert intersect_polygons(rebuilt, tri).vertices == tri.vertices


coords = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@given(
    st.lists(st.tuples(coords, coords), min_size=1, max_size=8),
    st.tuples(coords, coords, coords),
)
def test_clipping_shrinks_and_respects_the_halfplane(points, coefficients):
    a1, a2, rhs = coefficients
    hp = plane(a1, a2, rhs)
    poly = hull_of(points)
    clipped = clip_polygon(poly, hp)
    assert clipped.area() <= poly.area()
    for v in clipped.vertices:
        assert plane_contains(hp, v)
        assert polygon_contains(poly, v)
    # clipping is idempotent
    again = clip_polygon(clipped, hp)
    assert again.vertices == clipped.vertices


def _reference_clip(poly, hp):
    """The clip as it was before its linear canonicalization: one
    Sutherland-Hodgman pass, then the sorting hull of from_points."""
    if poly.is_empty():
        return poly
    if plane_is_trivial(hp):
        return poly if hp.rhs >= 0 else ConvexPolygon2(())
    vs = poly.vertices
    if len(vs) == 1:
        return poly if plane_contains(hp, vs[0]) else ConvexPolygon2(())
    out = []
    count = len(vs)
    for i in range(count if count > 2 else 1):
        s = vs[i]
        e = vs[(i + 1) % count]
        s_in, e_in = plane_contains(hp, s), plane_contains(hp, e)
        if s_in:
            out.append(s)
        if s_in != e_in:
            ds = hp.a1 * s[0] + hp.a2 * s[1] - hp.rhs
            de = hp.a1 * e[0] + hp.a2 * e[1] - hp.rhs
            t = ds / (ds - de)
            out.append((s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1])))
    if count == 2:
        if plane_contains(hp, vs[1]):
            out.append(vs[1])
    return hull_of(out)


def _plane_through(a1, a2, pt, flip=1):
    a1, a2 = flip * F(a1), flip * F(a2)
    return plane(a1, a2, a1 * pt[0] + a2 * pt[1])


def _clip_cases(rng, count):
    """Seeded canonical polygons (points, segments, triangles and larger)
    with random planes, planes through one vertex, planes along an edge
    in either orientation, and trivial planes."""

    def coord():
        return F(rng.randint(-6, 6), rng.randint(1, 3))

    def small():
        return rng.randint(-3, 3)

    for trial in range(count):
        size = rng.choice((1, 2, 3, 3, 5, 8))
        poly = hull_of(
            [(coord(), coord()) for _ in range(size)]
        )
        vs = poly.vertices
        kind = trial % 4
        if kind == 0:
            hp = plane(F(small()), F(small()), coord())
        elif kind == 1:
            hp = _plane_through(small(), small(), rng.choice(vs))
        elif kind == 2 and len(vs) > 1:
            i = rng.randrange(len(vs))
            (x1, y1), (x2, y2) = vs[i - 1], vs[i]
            hp = _plane_through(y2 - y1, x1 - x2, vs[i], rng.choice((1, -1)))
        else:
            hp = plane(F(0), F(0), F(rng.randint(-1, 1)))
        yield poly, hp


def test_linear_clip_matches_the_hull_clip():
    rng = random.Random(20)
    shapes = set()
    for poly, hp in _clip_cases(rng, 3000):
        clipped = clip_polygon(poly, hp)
        assert clipped.vertices == _reference_clip(poly, hp).vertices, (poly, hp)
        shapes.add((len(poly.vertices), len(clipped.vertices)))
    for size in (1, 2, 3, 4):  # inputs and results of every small size
        assert any(n_in == size for n_in, _ in shapes)
        assert any(n_out == size for _, n_out in shapes)
    assert any(n_out == 0 for _, n_out in shapes)


def test_a_split_keeps_the_clip_and_returns_the_piece_cut_off():
    """split_polygon keeps what the reference clip keeps, the hull of
    its cut points is the reference clip by the opposite closed
    half-plane, and the hull of both is the polygon again."""
    rng = random.Random(24)
    pieces = 0
    for poly, hp in _clip_cases(rng, 3000):
        kept, cut = split_polygon(poly, hp)
        assert kept.vertices == _reference_clip(poly, hp).vertices, (poly, hp)
        beyond = HalfPlane(-hp.a1, -hp.a2, -hp.rhs)
        piece = convex_hull(cut)
        assert piece.vertices == _reference_clip(poly, beyond).vertices, (poly, hp)
        assert convex_hull(kept.triples + tuple(cut)) == poly, (poly, hp)
        pieces += not kept.is_empty() and piece.area() > 0
    assert pieces > 500


def _hull_cases(rng, count):
    """Seeded point lists with repeats and collinear runs, of every size
    from 1 up, as Fraction pairs."""
    def coord():
        return F(rng.randint(-6, 6), rng.randint(1, 3))

    for trial in range(count):
        size = rng.choice((1, 1, 2, 2, 3, 4, 6, 10))
        points = [(coord(), coord()) for _ in range(size)]
        if trial % 3 == 0:  # a collinear run through the first point
            (x, y), dx, dy = points[0], F(rng.randint(-2, 2)), F(rng.randint(-2, 2))
            points += [(x + k * dx, y + k * dy) for k in range(rng.randint(1, 4))]
        if trial % 2 == 0:
            points += rng.sample(points, rng.randint(1, len(points)))
        rng.shuffle(points)
        yield points


def test_convex_hull_matches_the_fraction_hull():
    rng = random.Random(25)
    sizes = set()
    for points in _hull_cases(rng, 3000):
        got = convex_hull(triple(x, y) for x, y in points)
        assert got == hull_of(points), points
        sizes.add(min(len(got.triples), 4))
    assert sizes == {1, 2, 3, 4}


def test_the_hull_canonicalizes_redundant_boundary_points():
    """A canonical polygon's vertices padded with extra points on its
    edges give the polygon back through convex_hull, and a cut of it is
    the hull clip of the padded points: points from anywhere are made
    canonical by the hull, never by a cut."""
    rng = random.Random(21)
    cuts = 0
    for poly, hp in _clip_cases(rng, 2000):
        vs = poly.vertices
        if len(vs) < 3:
            continue
        padded = []
        for i, v in enumerate(vs):
            w = vs[(i + 1) % len(vs)]
            padded += [v, ((v[0] + w[0]) / 2, (v[1] + w[1]) / 2)]
        hull = convex_hull(triple(x, y) for x, y in padded)
        assert hull == poly
        if all(plane_contains(hp, v) for v in padded):
            continue  # an uncut polygon is returned as it is
        cuts += 1
        expected = _reference_clip(polygon(padded), hp).vertices
        assert clip_polygon(hull, hp).vertices == expected
    assert cuts > 500


def _hard_coord(rng):
    d = rng.randint(1, 10**6)
    return F(rng.randint(-d, d), d)


def _hard_coefficient(rng):
    return F(rng.randint(-9, 9), rng.choice((1, rng.randint(1, 10**6))))


def _hard_polygon(rng, sizes=(1, 2, 3, 3, 5, 8)):
    return hull_of(
        [(_hard_coord(rng), _hard_coord(rng)) for _ in range(rng.choice(sizes))]
    )


def _hard_clip_cases(rng, count):
    """Seeded polygons in [-1, 1]^2 with mixed denominators up to 10**6,
    and planes with fractional coefficients: random ones, ones through a
    vertex, ones along an edge scaled by a random positive fraction in
    either orientation, and zero-normal ones."""
    for trial in range(count):
        poly = _hard_polygon(rng)
        vs = poly.vertices
        kind = trial % 4
        if kind == 0:
            a1, a2 = _hard_coefficient(rng), _hard_coefficient(rng)
            pt = (_hard_coord(rng), _hard_coord(rng))
            hp = plane(a1, a2, a1 * pt[0] + a2 * pt[1])
        elif kind == 1:
            a1, a2 = _hard_coefficient(rng), _hard_coefficient(rng)
            hp = _plane_through(a1, a2, rng.choice(vs))
        elif kind == 2 and len(vs) > 1:
            i = rng.randrange(len(vs))
            (x1, y1), (x2, y2) = vs[i - 1], vs[i]
            k = F(rng.randint(1, 10**6), rng.randint(1, 10**6)) * rng.choice((1, -1))
            hp = _plane_through(k * (y2 - y1), k * (x1 - x2), vs[i])
        else:
            hp = plane(F(0), F(0), F(rng.randint(-1, 1), rng.randint(1, 10**6)))
        yield poly, hp


def test_integer_clip_matches_the_fraction_clip_on_hard_inputs():
    rng = random.Random(22)
    cuts = through_vertex = 0
    for poly, hp in _hard_clip_cases(rng, 2000):
        clipped = clip_polygon(poly, hp)
        assert clipped.vertices == _reference_clip(poly, hp).vertices, (poly, hp)
        if clipped.vertices and clipped.vertices != poly.vertices:
            cuts += 1
            through_vertex += any(
                hp.a1 * x + hp.a2 * y == hp.rhs for x, y in poly.vertices
            )
    assert cuts > 500 and through_vertex > 300


def test_area_matches_a_fraction_shoelace():
    rng = random.Random(23)
    for _ in range(300):
        vs = _hard_polygon(rng).vertices
        twice = F(0)
        for i in range(len(vs) if len(vs) >= 3 else 0):
            (x1, y1), (x2, y2) = vs[i], vs[(i + 1) % len(vs)]
            twice += x1 * y2 - x2 * y1
        assert polygon(vs).area() == twice / 2


def test_intersect_polygons_matches_a_fraction_clip_by_clip_reference():
    rng = random.Random(24)
    nonempty = empty = 0
    for _ in range(300):
        a = _hard_polygon(rng)
        b = _hard_polygon(rng, sizes=(3, 4, 5, 8))
        if len(b.vertices) < 3:
            continue
        expected = a
        vs = b.vertices
        for i in range(len(vs)):
            (x1, y1), (x2, y2) = vs[i], vs[(i + 1) % len(vs)]
            hp = plane(y2 - y1, x1 - x2, (y2 - y1) * x1 + (x1 - x2) * y1)
            expected = _reference_clip(expected, hp)
            if expected.is_empty():
                break
        got = intersect_polygons(a, b)
        assert got.vertices == expected.vertices, (a, b)
        nonempty += len(got.vertices) >= 3
        empty += got.is_empty()
    assert nonempty > 100 and empty > 40


def _reference_intersection(a, b):
    """a ∩ b in Fractions, for a full-dimensional polygon a: a point
    by membership, a segment p -> q by bounding p + t(q - p), 0 <= t <= 1,
    with each inward edge of a (Cyrus-Beck), and a polygon clip by clip
    with _reference_clip."""
    vs, edges = b.vertices, list(zip(a.vertices, a.vertices[1:] + a.vertices[:1]))
    if len(vs) == 1:
        return vs if polygon_contains(a, vs[0]) else ()
    if len(vs) == 2:
        p, q = vs
        low, high = F(0), F(1)
        for u, v in edges:  # inside: cross(u, v, x) >= 0, affine in t
            fp, fq = cross(u, v, p), cross(u, v, q)
            if fp == fq:
                if fp < 0:
                    return ()
            elif fq > fp:
                low = max(low, fp / (fp - fq))
            else:
                high = min(high, fp / (fp - fq))
        if low > high:
            return ()
        ends = [(p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])) for t in (low, high)]
        return hull_of(ends).vertices
    expected = b
    for (x1, y1), (x2, y2) in edges:
        hp = plane(y2 - y1, x1 - x2, (y2 - y1) * x1 + (x1 - x2) * y1)
        expected = _reference_clip(expected, hp)
    return expected.vertices


def test_intersect_polygons_takes_a_point_or_a_segment_in_either_place():
    """A point or a segment meets a full-dimensional polygon in what a
    Fraction reference gives, as the first operand or the second, and so
    does a polygon; two points or segments raise DegenerateOperands."""
    tri = simplex_triangle()
    quarter = polygon([(F(1, 4), F(1, 4))])
    spoke = polygon([(F(0), F(0)), (F(1, 4), F(1, 4))])
    for shape in (quarter, spoke):
        assert intersect_polygons(tri, shape) == shape
        assert intersect_polygons(shape, tri) == shape
    rng = random.Random(27)
    shapes = set()
    for _ in range(600):
        a = _hard_polygon(rng, sizes=(3, 4, 5, 8))
        if len(a.vertices) < 3:
            continue
        vs = a.vertices
        u, v = rng.choice(vs), rng.choice(vs)
        p, q, r = ((_hard_coord(rng), _hard_coord(rng)) for _ in range(3))
        middle = ((u[0] + v[0]) / 2, (u[1] + v[1]) / 2)
        beyond = (2 * v[0] - u[0], 2 * v[1] - u[1])
        points = rng.choice((
            [p], [u], [middle],  # points
            [p, q], [u, p], [u, v], [u, beyond], [middle, p],  # segments
            [p, q, r], [p, q, u],  # polygons
        ))
        b = hull_of(points)
        expected = _reference_intersection(a, b)
        assert intersect_polygons(a, b).vertices == expected, (a, b)
        assert intersect_polygons(b, a).vertices == expected, (a, b)
        shapes.add((min(len(b.vertices), 3), len(expected)))
    for size in (1, 2):  # degenerate operands that miss, touch and cross
        assert {(size, n) for n in range(size + 1)} <= shapes
    assert (3, 0) in shapes and (3, 3) in shapes
    for a, b in ((quarter, spoke), (spoke, spoke), (quarter, ConvexPolygon2(()))):
        with pytest.raises(DegenerateOperands):
            intersect_polygons(a, b)
    assert issubclass(DegenerateOperands, PblpError)


def test_cuts_and_hulls_are_fixed_points_of_the_hull():
    """Canonical in, canonical out: every part a cut keeps, whether the
    cut is proper (a vertex strictly inside and one strictly beyond,
    with or without the smallest vertex cut off) or leaves a point or a
    segment, and every hull, equals convex_hull of its own triples and
    the Fraction reference."""
    rng = random.Random(26)
    smallest_cut = {False: 0, True: 0}
    for poly, hp in _clip_cases(rng, 3000):
        kept = clip_polygon(poly, hp)
        assert kept == convex_hull(kept.triples), (poly, hp)
        assert kept.vertices == _reference_clip(poly, hp).vertices, (poly, hp)
        ts = poly.triples
        d = [hp.a1 * x + hp.a2 * y - hp.rhs * w for x, y, w in ts]
        if len(ts) >= 3 and min(d) < 0 < max(d):
            smallest_cut[d[0] > 0] += 1
    hulls = 0
    for points in _hull_cases(rng, 3000):
        hull = convex_hull(triple(x, y) for x, y in points)
        assert hull == convex_hull(hull.triples) == hull_of(points), points
        hulls += len(hull.triples) >= 3
    assert min(smallest_cut.values()) > 200 and hulls > 500


def test_component_halfplanes_known_values():
    y = (F(5), F(10), F(0))
    others = [(F(0), F(5), F(5)), (F(15), F(0), F(2))]
    planes = component_halfplanes(int_image(y), [int_image(o) for o in others])
    competitor = [(hp.a1, hp.a2, hp.rhs) for hp in planes[:2]]
    assert competitor == [(F(10), F(10), F(5)), (F(-8), F(12), F(2))]
    # the list closes with the three simplex bounds
    assert [(hp.a1, hp.a2, hp.rhs) for hp in planes[2:]] == [
        (F(-1), F(0), F(0)),
        (F(0), F(-1), F(0)),
        (F(1), F(1), F(1)),
    ]


def test_uniform_shift_gives_a_trivial_halfplane():
    y = (F(1), F(2), F(3))
    planes = component_halfplanes(int_image(y), [int_image((F(2), F(3), F(4)))])
    assert plane_is_trivial(planes[0])
    assert planes[0].rhs == 1  # 0 <= 1, satisfied everywhere


def test_component_vertices_known_polygons():
    others = [(F(0), F(5), F(5)), (F(5), F(10), F(0)), (F(15), F(0), F(2))]
    y = (F(5), F(10), F(0))
    poly = component(y, [o for o in others if o != y])
    assert poly.vertices == (
        (F(0), F(0)),
        (F(1, 2), F(0)),
        (F(1, 5), F(3, 10)),
        (F(0), F(1, 6)),
    )
    y = (F(0), F(5), F(5))
    poly = component(y, [o for o in others if o != y])
    assert poly.vertices == (
        (F(1, 5), F(3, 10)),
        (F(1, 2), F(0)),
        (F(1), F(0)),
        (F(1, 4), F(3, 4)),
    )


def test_dominated_far_competitor_leaves_the_full_simplex():
    y = (F(0), F(0), F(0))
    poly = component(y, [(F(10), F(10), F(10))])
    assert poly.vertices == simplex_triangle().vertices


def test_hrep_dimensions_and_membership(example2):
    """The gap row is the duality gap y.w - b.v as it stands, b the
    >=-form right side, for an integer image and a fractional one."""
    y = (F(5), F(10), F(0))
    h = component_hrep(example2, y)
    _, b = ge_form(example2.rows, example2.rhs, example2.senses)
    for image in (y, (F(1, 2), F(10, 3), F(0))):
        assert component_hrep(example2, image).gap == tuple(-v for v in b) + image
    assert len(h.cone) == example2.n
    assert all(len(row) == h.m + 3 for row in h.cone + (h.gap,))
    assert hrep_feasible_at(h, (F(1, 4), F(1, 4), F(1, 2)))
    assert not hrep_feasible_at(h, (F(1, 3), F(1, 3), F(1, 3)))


def test_hrep_for_another_image_shares_the_cone(example2, example1):
    """for_image keeps the cone rows and gives component_hrep's gap row."""
    for p in (example2, example1):
        images = [entry.image for entry in decompose(p).images]
        first = component_hrep(p, images[0])
        for y in images + [(F(-1, 2), F(3), F(0))]:
            h = first.for_image(y)
            assert h == component_hrep(p, y)
            assert h.cone is first.cone


def test_hrep_projection_matches_the_polygon_on_a_grid(
    example2, example2_case1, example1
):
    """The lifted system and the half-plane polygon must carve out the
    same region; compare them pointwise on a rational grid."""
    step = 6
    grid = [
        (F(a, step), F(b, step))
        for a in range(step + 1)
        for b in range(step + 1 - a)
    ]
    for p in (example2, example2_case1, example1):
        dec = decompose(p)
        for entry, poly in zip(dec.images, dec.components):
            h = component_hrep(p, entry.image)
            for w1, w2 in grid:
                lifted = (w1, w2, 1 - w1 - w2)
                assert hrep_feasible_at(h, lifted) == polygon_contains(poly, (w1, w2))
