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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import lp_core
from .errors import InfeasibleProblem, InvariantViolation, UnboundedScalarization
from .lp_core import FeasibleSystem, LpStatus, solve_lex_lp, solve_lp
from .problem_model import Tolp, Weight2, Weight3, ws_scalarize
from .weight_geometry import (
    ConvexPolygon2,
    Point2,
    Point3,
    clip_polygon,
    competitor_halfplane,
    component_vertices,
)

__all__ = ["ExtremeImage", "Decomposition", "find_extreme_image", "decompose"]


@dataclass(frozen=True)
class ExtremeImage:
    """An image point of the triobjective problem with one witness.

    cone holds the reduced costs of (c1, c2, d1) at the basis that found
    the image, one integer triple per nonbasic column whose triple is not
    all zero, over one common positive scale (LpResult.reduced).  It
    plays no part in equality or repr.
    """

    image: Point3
    witness: tuple[Fraction, ...]
    cone: tuple[tuple[int, int, int], ...] = field(compare=False, repr=False)

    def covers(self, vertex: Point2) -> bool:
        """Whether the basis behind this image is optimal at the weight
        (w1, w2, 1 - w1 - w2) of vertex, tested in integers."""
        w1, w2 = vertex
        w3 = 1 - w1 - w2
        scale = lcm(w1.denominator, w2.denominator, w3.denominator)
        a1, a2, a3 = (w.numerator * (scale // w.denominator) for w in (w1, w2, w3))
        return all(a1 * r1 + a2 * r2 + a3 * r3 >= 0 for r1, r2, r3 in self.cone)


@dataclass(frozen=True)
class Decomposition:
    """Extreme nondominated images with their simplex components.

    images and components run in parallel, sorted by image
    lexicographically; every component is full-dimensional.  lp_solves
    counts the LP solves spent finding them.
    """

    images: tuple[ExtremeImage, ...]
    components: tuple[ConvexPolygon2, ...]
    lp_solves: int

    def image_points(self) -> tuple[Point3, ...]:
        return tuple(e.image for e in self.images)


def find_extreme_image(
    t: Tolp, w: Weight3, system: FeasibleSystem | None = None
) -> ExtremeImage:
    """Lexicographic weighted-sum solve at w, ties (c1, c2, d1).

    The ties pin a single image even when w sits on a component boundary,
    and they guarantee the returned image is a nondominated extreme
    point, not merely weakly nondominated.  system, when given, is t's
    feasible system and spares the solve its phase one.  The solve also
    prices the ties at its final basis, whose cone the result carries.
    """
    ties = (t.c1, t.c2, t.d1)
    result = solve_lex_lp(ws_scalarize(t, w), ties=ties, system=system, price=ties)
    if result.status is LpStatus.UNBOUNDED:
        raise UnboundedScalarization(f"weighted sum unbounded at w = {w}")
    if result.status is LpStatus.INFEASIBLE:
        raise InfeasibleProblem("feasible set is empty")
    return ExtremeImage(image=t.image(result.x), witness=result.x, cone=result.reduced)


def _dot3(w: Weight3, y: Point3) -> Fraction:
    return w.w1 * y[0] + w.w2 * y[1] + w.w3 * y[2]


def decompose(t: Tolp) -> Decomposition:
    """Compute all extreme nondominated images and their components."""
    start_count = lp_core.solve_calls()
    one = Fraction(1)
    unit_weights = (
        Weight3(one, Fraction(0), Fraction(0)),
        Weight3(Fraction(0), one, Fraction(0)),
        Weight3(Fraction(0), Fraction(0), one),
    )
    # Every weighted sum shares t's constraints: phase one runs once here.
    system = FeasibleSystem(ws_scalarize(t, unit_weights[0]))
    for w in unit_weights:
        status = solve_lp(ws_scalarize(t, w), system=system).status
        if status is LpStatus.UNBOUNDED:
            raise UnboundedScalarization(
                f"objective weighted ({w.w1}, {w.w2}, {w.w3}) is unbounded"
                " below over the feasible set"
            )
        if status is LpStatus.INFEASIBLE:
            raise InfeasibleProblem("feasible set is empty")
    # Bounded at the three corners implies bounded for every simplex
    # weight, because min (sum wi ci).x >= sum wi min ci.x.

    # Every solve's record, keyed by its image: each carries the cone of
    # one basis that yields that image.
    found: dict[Point3, list[ExtremeImage]] = {}

    def solve_at(w: Weight3) -> ExtremeImage:
        entry = find_extreme_image(t, w, system)
        found.setdefault(entry.image, []).append(entry)
        return entry

    centroid = Weight3(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    known: list[ExtremeImage] = [solve_at(centroid)]
    # One LP certificate per distinct vertex, ever: w -> (lifted weight,
    # value, image record; an index into discovered order is not stable).
    cache: dict[Point2, tuple[Weight3, Fraction, ExtremeImage]] = {}

    def certificate(vertex: Point2):
        rec = cache.get(vertex)
        if rec is None:
            w = Weight2(*vertex).lift()
            best = solve_at(w)
            rec = (w, _dot3(w, best.image), best)
            cache[vertex] = rec
        return rec

    # A new image adds one half-plane to each known component, so the
    # known polygons are clipped by it rather than rebuilt; intersection
    # is exact and ConvexPolygon2 canonical, so the tiling is the same.
    points = [known[0].image]
    polygons = [component_vertices(known[0].image, points)]
    # certified[i]: vertices that passed against known[i].  A pass depends
    # on the image and the vertex alone, so later rounds skip the pair and
    # find the same first failure, hence the same challenger.  A vertex in
    # the cone of a basis that yields known[i]'s image passes without an
    # LP (see the module docstring).
    certified: list[set[Point2]] = [set()]
    while True:
        challenger = None
        for entry, poly, done in zip(known, polygons, certified):
            for vertex in poly.vertices:
                if vertex in done:
                    continue
                if not any(rec.covers(vertex) for rec in found[entry.image]):
                    w, best_value, best = certificate(vertex)
                    if best_value < _dot3(w, entry.image):
                        challenger = best
                        break
                done.add(vertex)
            if challenger is not None:
                break
        if challenger is None:
            break
        y = challenger.image
        if y in points:
            raise InvariantViolation(f"tiling admitted known image {y}")
        polygons = [
            clip_polygon(poly, competitor_halfplane(entry.image, y))
            for entry, poly in zip(known, polygons)
        ]
        known.append(challenger)
        certified.append(set())
        points.append(y)
        polygons.append(component_vertices(y, points))

    keep = [
        (entry, poly)
        for entry, poly in zip(known, polygons)
        if poly.area() > 0
    ]
    keep.sort(key=lambda pair: pair[0].image)
    return Decomposition(
        images=tuple(entry for entry, _ in keep),
        components=tuple(poly for _, poly in keep),
        lp_solves=lp_core.solve_calls() - start_count,
    )
