"""Weight set decomposition of the triobjective companion problem.

The weight simplex is tiled by the components of the extreme nondominated
images.  The method here works outward from the centroid: keep a set K of
known images, tile the simplex tentatively with their pairwise
half-planes, then certify every tentative polygon vertex by solving the
weighted-sum LP there.  A vertex whose true optimum beats its polygon's
image yields a new member of K; when every vertex certifies, the
tentative tiling is the real one.  Certification at the vertices is
enough: the optimal-value function is concave and coincides with an
affine function at all vertices of each polygon, hence on the polygon.

Most vertices need no LP.  The lexicographic solve that finds an image
at w ends on a basis optimal for w: each tie stage bans the columns of
positive reduced cost for the stages before it, so it enters only
columns whose stage-1 reduced cost is zero, and such a pivot leaves
every stage-1 reduced cost as it was.  That basis therefore stays
optimal for every weight w' in its reduced-cost cone
{w' : sum_k w'_k r_kj >= 0 for every nonbasic column j}, r_k the reduced
costs of c1, c2 and d1, and w lies in it.  At a vertex w' of the image's
polygon inside that cone the weighted-sum optimum is w'.y for the
image y itself, so the vertex passes, and the LP a certificate would
run there is skipped.  The first vertex that fails, and so every
challenger, witness and component, is the one a solve at every vertex
finds.

No LP runs at the simplex corners up front.  Each corner, an extreme
point of the simplex, is a vertex of the tentative polygon holding it,
which the canonical form keeps even for a point or a segment, and every
vertex passes before the loop ends: in a cone the basis is optimal, and
a certificate LP without optimum raises UnboundedScalarization or
InfeasibleProblem in find_extreme_image.  As w.Cr is linear in w, a ray
r unbounded at some simplex weight is unbounded at a corner.

The loop runs in ints on weight_geometry's vertex triples (X, Y, W),
the weight (X, Y, W - X - Y)/W: cone tests and weighted values are
integer dot products, and a certificate's objective is a positive
multiple of the weighted sum w1 c1 + w2 c2 + w3 d1 at that weight, with
the same signs and pivots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import InfeasibleProblem, InvariantViolation, UnboundedScalarization
from .lp_core import FeasibleSystem, LinearProgram, LpStatus, solve_lex_lp
from .problem_model import Pblp, integral_image, system_lp
from .weight_geometry import (
    ConvexPolygon2,
    IntImage,
    Point3,
    Triple,
    competitor_halfplane,
    component_vertices,
    convex_hull,
    split_polygon,
)

__all__ = ["ExtremeImage", "Decomposition", "find_extreme_image", "decompose"]


@dataclass(frozen=True)
class ExtremeImage:
    """An image point of the triobjective problem with one witness.

    int_image is the image as integral_image gives it from the witness
    vertex, reduced ints (Y1, Y2, Y3, D), so equal images are equal
    tuples; image is its Fraction view, built once per record.  cone holds the reduced
    costs of (c1, c2, d1) at the basis that found the image, one integer
    triple per nonbasic column whose triple is not all zero, over one
    common positive scale (LpResult.reduced).  It plays no part in
    equality or repr.
    """

    int_image: IntImage
    witness: tuple[Fraction, ...]
    cone: tuple[tuple[int, int, int], ...] = field(compare=False, repr=False)

    @cached_property
    def image(self) -> Point3:
        *numerators, den = self.int_image
        return tuple(Fraction(a, den) for a in numerators)

    def covers(self, vertex: Triple) -> bool:
        """Whether the basis behind this image is optimal at the weight
        (X, Y, W - X - Y)/W of vertex = (X, Y, W), tested in integers."""
        a1, a2, w = vertex
        a3 = w - a1 - a2
        return all(a1 * r1 + a2 * r2 + a3 * r3 >= 0 for r1, r2, r3 in self.cone)


@dataclass(frozen=True)
class Decomposition:
    """Extreme nondominated images with their simplex components.

    images and components run in parallel, sorted by image
    lexicographically; every component is full-dimensional.  lp_solves
    counts the LP solves spent finding them, on their feasible system.
    """

    images: tuple[ExtremeImage, ...]
    components: tuple[ConvexPolygon2, ...]
    lp_solves: int

    def image_points(self) -> tuple[Point3, ...]:
        return tuple(e.image for e in self.images)


def _weighted_sum(p: Pblp, vertex: Triple) -> LinearProgram:
    """The weighted-sum LP at vertex = (X, Y, W): X c1 + Y c2 +
    (W - X - Y) d1 over the rows of p.integer_costs, each L > 0 times its
    cost row, is L*W times the weighted sum of the cost rows at that
    weight; p.case plays no part."""
    x, y, w = vertex
    z = w - x - y
    rows, _ = p.integer_costs
    return system_lp(p, (x * a + y * b + z * c for a, b, c in zip(*rows)))


def find_extreme_image(p: Pblp, w: Triple, system: FeasibleSystem) -> ExtremeImage:
    """Lexicographic weighted-sum solve (_weighted_sum) at the weight
    (X, Y, W - X - Y)/W of the vertex triple w = (X, Y, W), ties
    (c1, c2, d1) as the rows of p.integer_costs, each L times its cost
    row, with the same signs and pivots.

    The ties pin a single image even when w sits on a component
    boundary, and they guarantee the returned image is a nondominated
    extreme point, not merely weakly nondominated.  system is p's
    feasible system, so the solve runs phase two only.  The solve also
    prices those rows at its final basis, whose cone the result
    carries: ExtremeImage.covers needs the three over one common
    scale, which their one L gives.  p.case plays no part.
    """
    rows, _ = p.integer_costs
    result = solve_lex_lp(_weighted_sum(p, w), ties=rows, system=system, price=rows)
    if result.status is LpStatus.UNBOUNDED:
        x, y, den = w
        weight = ", ".join(str(Fraction(a, den)) for a in (x, y, den - x - y))
        raise UnboundedScalarization(f"weighted sum unbounded at w = ({weight})")
    if result.status is LpStatus.INFEASIBLE:
        raise InfeasibleProblem("feasible set is empty")
    image = integral_image(p.integer_costs, *result.vertex)
    return ExtremeImage(int_image=image, witness=result.x, cone=result.reduced)


def _below(vertex: Triple, y: IntImage, z: IntImage) -> bool:
    """Whether w.y < w.z at the weight w of vertex, in ints."""
    a1, a2, w = vertex
    a3 = w - a1 - a2
    (y1, y2, y3, dy), (z1, z2, z3, dz) = y, z
    return (a1 * y1 + a2 * y2 + a3 * y3) * dz < (a1 * z1 + a2 * z2 + a3 * z3) * dy


def decompose(p: Pblp) -> Decomposition:
    """Compute all extreme nondominated images of p's triobjective
    problem and their components; p.case plays no part."""
    # Every weighted sum shares p's constraints: phase one runs once here.
    system = FeasibleSystem(_weighted_sum(p, (1, 1, 3)))
    # Every solve's record, keyed by its int_image: each carries the cone
    # of one basis that yields that image.
    found: dict[IntImage, list[ExtremeImage]] = {}

    def solve_at(w: Triple) -> ExtremeImage:
        entry = find_extreme_image(p, w, system)
        found.setdefault(entry.int_image, []).append(entry)
        return entry

    known = [solve_at((1, 1, 3))]  # the centroid

    # A new image adds one half-plane to each known component, so the
    # known polygons are clipped by it rather than rebuilt.  They tile the
    # simplex, so the new image's component is the union of the pieces it
    # cuts off them: the hull of their points.  Clipping and the hull are
    # exact and ConvexPolygon2 canonical, so the tiling is the one that
    # component_vertices gives.
    polygons = [component_vertices(known[0].int_image, ())]
    # certified[i]: vertices that passed against known[i].  A pass depends
    # on the image and the vertex alone, so later rounds skip the pair and
    # find the same first failure, hence the same challenger.  A vertex in
    # the cone of a basis that yields known[i]'s image passes without an
    # LP (see the module docstring).
    certified: list[set[Triple]] = [set()]
    while True:
        challenger = None
        for entry, poly, done in zip(known, polygons, certified):
            for vertex in poly.triples:
                if vertex in done:
                    continue
                if not any(rec.covers(vertex) for rec in found[entry.int_image]):
                    best = solve_at(vertex)
                    if _below(vertex, best.int_image, entry.int_image):
                        challenger = best
                        break
                done.add(vertex)
            if challenger is not None:
                break
        if challenger is None:
            break
        y = challenger.int_image
        if any(entry.int_image == y for entry in known):
            raise InvariantViolation(f"tiling admitted known image {challenger.image}")
        splits = [
            split_polygon(poly, competitor_halfplane(entry.int_image, y))
            for entry, poly in zip(known, polygons)
        ]
        known.append(challenger)
        certified.append(set())
        polygons = [kept for kept, _ in splits]
        polygons.append(convex_hull(point for _, cut in splits for point in cut))

    # canonical polygons: three vertices or more is positive area
    keep = [
        (entry, poly) for entry, poly in zip(known, polygons) if len(poly.triples) >= 3
    ]
    keep.sort(key=lambda pair: pair[0].image)
    return Decomposition(
        images=tuple(entry for entry, _ in keep),
        components=tuple(poly for _, poly in keep),
        lp_solves=system.solves,
    )
