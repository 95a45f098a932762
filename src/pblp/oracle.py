"""Independent checks for the decomposition machinery.

Vertices and extreme rays come from an exact double-description
conversion of the constraints, extreme nondominated images from
re-deriving each candidate's component against the vertex images that
no other vertex image dominates componentwise, and the parametric
picture from solving the biobjective problem from scratch on a lambda
grid.  Nothing here imports wsd or breakpoints.  The vertex path runs no
simplex: it shares only numerics.integer_row with the LP engine.  It
does share two things with decompose: problem_model.integral_image,
which maps a vertex to its image, and the weight geometry.
_has_full_component cuts weight_geometry.simplex_triangle by the
competitor_halfplane of each other image through clip_polygon, whose
split_polygon is the cut decompose makes, so a fault there can reach
both sides of the image check.  The lambda grid shares the LP engine
and no weight geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import InfeasibleProblem, TooLarge, UnboundedScalarization
from .lp_core import FeasibleSystem, LinearProgram, LpStatus, Sense, solve_lex_lp
from .numerics import integer_row
from .problem_model import Pblp, fix_lambda, integral_image, system_lp
from .weight_geometry import (
    IntImage, Point3, clip_polygon, competitor_halfplane, simplex_triangle,
)

__all__ = [
    "SweepReport",
    "extreme_nondominated_bruteforce",
    "dichotomic_bolp",
    "lambda_grid",
    "sweep_lambda",
]

RAY_BUDGET = 20000  # rays held at once before TooLarge


def _cone_rays(rows, rhs, senses, n):
    """Every vertex and extreme ray of {x >= 0 : rows (senses) rhs}, as
    (points, rays): points holds the extreme rays (x, t) of the cone
    below with t > 0, each the vertex x / t in ints, and rays the sorted
    x, primitive integer directions, of those with t = 0.

    Double description (Motzkin, Raiffa, Thompson and Thrall 1953;
    Fukuda and Prodon 1996) on the pointed cone {(x, t) >= 0 :
    a.x - b.t (sense) 0}: from the n + 1 unit rays of the orthant, cut by
    one integer row at a time, equalities first.  A cut keeps the rays on
    its side (on it, for an equality) and adds v+ r- - v- r+, over its
    gcd, for each adjacent pair it separates.  A ray's zero set, the rows
    it is tight on, is an int bitmask; two rays are adjacent when no
    other ray's zero set contains their common one.  If no ray has
    t > 0 the set is empty, both parts are empty, and the rays, of
    {A x (sense) 0}, are dropped.  Raises TooLarge when more than
    RAY_BUDGET rays are held at once.
    """
    d = n + 1
    cuts = []  # (g, is_eq): the cut g.z >= 0, or g.z = 0
    for row, b, sense in zip(rows, rhs, senses):
        g = integer_row([*row, -b])[0]
        if sense is Sense.LE:
            g = [-v for v in g]
        cuts.append((g, sense is Sense.EQ))
    cuts.sort(key=lambda cut: not cut[1])
    # zero-set bit j < d: coordinate j of z is zero; bit d + k: cut k is tight
    rays = [
        (tuple(int(i == j) for i in range(d)), ((1 << d) - 1) ^ (1 << j))
        for j in range(d)
    ]
    for k, (g, eq) in enumerate(cuts, start=d):
        values = [sum(map(mul, g, r)) for r, _ in rays]
        kept = [
            (r, z | (1 << k) if v == 0 else z)
            for (r, z), v in zip(rays, values)
            if v == 0 or (v > 0 and not eq)
        ]
        for ray in _crossings(rays, values, d, k):
            kept.append(ray)
            if len(kept) > RAY_BUDGET:
                raise TooLarge(f"more than {RAY_BUDGET} rays held at once")
        rays = kept
    points = [r for r, _ in rays if r[-1]]
    if not points:
        return [], ()
    return points, tuple(sorted(r[:-1] for r, _ in rays if not r[-1]))


def _crossings(rays, values, d: int, k: int):
    """The new rays on cut k: one per adjacent pair it separates.

    values holds g.r for each ray.  Bit sets over ray indices do the
    work: neg holds the rays with g.r < 0, holders[b] the rays tight on
    row b.
    """
    neg = sum(1 << i for i, v in enumerate(values) if v < 0)
    if not neg:
        return
    holders = [
        sum(1 << i for i, (_, z) in enumerate(rays) if z >> b & 1) for b in range(k)
    ]
    everyone = (1 << len(rays)) - 1
    for i, ((rp, zp), vp) in enumerate(zip(rays, values)):
        if vp <= 0:
            continue
        # near[j]: the negative rays missing at most j of zp's rows; an
        # adjacent one shares at least d - 2 of them
        slack = zp.bit_count() - (d - 2)
        near = [neg] * (slack + 1)
        for b in _bits(zp):
            for j in range(slack, 0, -1):
                near[j] = (near[j] & holders[b]) | near[j - 1]
            near[0] &= holders[b]
        for m in _bits(near[slack]):
            (rn, zn), vn = rays[m], values[m]
            common = zp & zn
            face = everyone
            for b in _bits(common):
                face &= holders[b]
            if face == (1 << i) | (1 << m):  # no other ray on their face
                r = [vp * a - vn * c for a, c in zip(rn, rp)]
                div = gcd(*r)
                yield tuple(a // div for a in r), common | (1 << k)


def _bits(mask: int):
    """The indices of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _nondominated(images) -> list[IntImage]:
    """The distinct images, reduced ints (Y..., D) as integral_image
    gives them, that no other one dominates, sorted by value.  Over one
    common denominator the numerators are the values, so they are both
    the sort key and what the dominance test compares.  A dominator is
    lexicographically smaller and dominance is transitive, so each image
    is compared only with those already kept."""
    images = set(images)
    scale = lcm(*(y[-1] for y in images))
    kept = []  # (values, image)
    for values, y in sorted(
        (tuple(a * (scale // y[-1]) for a in y[:-1]), y) for y in images
    ):
        if not any(all(a <= b for a, b in zip(z, values)) for z, _ in kept):
            kept.append((values, y))
    return [y for _, y in kept]


def _has_full_component(y: IntImage, images) -> bool:
    """Whether the component of y against images, as component_vertices
    gives it, has positive area.  The simplex triangle is clipped by the
    competitor half-planes alone, as its own bounds cut nothing from it,
    and the first clip that leaves a point or a segment ends the test."""
    poly = simplex_triangle()
    for other in images:
        if other != y:
            poly = clip_polygon(poly, competitor_halfplane(y, other))
            if len(poly.triples) < 3:
                return False
    return True


def extreme_nondominated_bruteforce(p: Pblp) -> tuple[Point3, ...]:
    """Extreme nondominated images of p's triobjective problem from
    first principles; p.case plays no part.

    Enumerate all vertices, in ints as _cone_rays holds them, and
    extreme rays.  A ray r with a negative entry of C r, C the cost
    rows, makes the scalarization by that corner of the weight simplex
    unbounded: UnboundedScalarization.
    Otherwise w.C r >= 0 for every weight w, so each scalarization is
    minimized at a vertex and the image's extreme points are vertex
    images.  Map the vertices through the cost rows, in reduced ints
    until the images are returned as Fractions, drop every image
    that another one dominates componentwise, and keep the images whose
    component against the remaining list has positive area
    (_has_full_component, which stops at the first clip that leaves a
    point or a segment).  The Pareto
    filter changes no result: with w >= 0 a dominated image's component
    lies in the simplex boundary (zero area), and its half-plane
    w.x <= w.y is implied by its dominator z's, w.x <= w.z <= w.y, so it
    never binds.
    """
    costs = p.integer_costs
    points, rays = _cone_rays(p.rows, p.rhs, p.senses, p.n)
    for r in rays:
        if any(c < 0 for c in integral_image(costs, r, 1)):
            raise UnboundedScalarization(f"ray {r} lowers a cost row")
    pareto = _nondominated(integral_image(costs, r[:-1], r[-1]) for r in points)
    return tuple(
        tuple(Fraction(a, y[-1]) for a in y[:-1])
        for y in pareto
        if _has_full_component(y, pareto)
    )


# -- parametric oracle -------------------------------------------------------


def _lex(system: FeasibleSystem, objective, ties):
    """The vertex (numerators, den) of a lexicographic solve on system."""
    lp = system.lp  # the system's own constraints
    lp = LinearProgram(tuple(objective), lp.rows, lp.rhs, lp.senses, lp.nonneg)
    res = solve_lex_lp(lp, ties, system)
    if res.status is LpStatus.UNBOUNDED:
        raise UnboundedScalarization("biobjective scalarization is unbounded")
    if res.status is LpStatus.INFEASIBLE:
        raise InfeasibleProblem("feasible set is empty")
    return res.vertex


def dichotomic_bolp(costs, system: FeasibleSystem, extra_ties=()) -> tuple:
    """All extreme nondominated images of the biobjective problem
    min (f1.x, f2.x) over system's feasible set.

    costs is the pair ((f1, f2), L) that fix_lambda gives.  Classic
    dichotomic search: solve both lexicographic corners, then
    recursively probe the weight orthogonal to each gap.  Ties inside
    every solve are broken by (f1, f2) and then extra_ties, making the
    witnesses deterministic.  f1 and f2 enter every solve as those
    integer rows, L times each objective, with the same signs and
    pivots.  Every solve runs phase two only, on system.  Images are
    held as integral_image gives them, reduced ints (Y1, Y2, D), so
    equal images are equal tuples and each probe is integer arithmetic.
    Returns (image, witness) pairs sorted by first objective value: the
    image as Fractions, the witness as the solve's vertex
    (numerators, den).
    """
    (f1, f2), _ = costs
    extra_ties = tuple(extra_ties)
    xa = _lex(system, f1, (f2,) + extra_ties)
    xb = _lex(system, f2, (f1,) + extra_ties)
    a, b = integral_image(costs, *xa), integral_image(costs, *xb)
    found = {a: xa}

    def probe(lo, hi):
        # lo has the smaller f1 and larger f2.  The weight orthogonal to
        # the gap, (lo_2 - hi_2, hi_1 - lo_1), times Dl Dh over the gcd:
        # both parts are positive, so the signs, and so the pivots, are
        # the weighted sum's, and _lex never reads the value
        l1, l2, dl = lo
        h1, h2, dh = hi
        k1, k2 = l2 * dh - h2 * dl, h1 * dl - l1 * dh
        common = gcd(k1, k2)
        k1, k2 = k1 // common, k2 // common
        objective = tuple(k1 * f + k2 * g for f, g in zip(f1, f2))
        x = _lex(system, objective, (f1, f2) + extra_ties)
        y = integral_image(costs, *x)
        y1, y2, dy = y
        if (k1 * y1 + k2 * y2) * dl < (k1 * l1 + k2 * l2) * dy:  # strictly below
            found[y] = x
            probe(lo, y)
            probe(y, hi)

    if a != b:
        found[b] = xb
        probe(a, b)
    return tuple(sorted(
        ((Fraction(y1, d), Fraction(y2, d)), x) for (y1, y2, d), x in found.items()
    ))


@dataclass(frozen=True)
class SweepReport:
    """Grid sweep of the parametric problem.

    grid holds the lambda values; witness_images[i] is the sorted set of
    triobjective images witnessing grid[i]'s extreme biobjective images;
    changes lists the (previous, current) grid pairs where that set
    moved.  Breakpoint locations are thereby bracketed to grid cells.
    """

    lambda_max: Fraction
    steps: int
    grid: tuple[Fraction, ...]
    witness_images: tuple[tuple[Point3, ...], ...]
    bolp_images: tuple[tuple, ...]
    changes: tuple[tuple[Fraction, Fraction], ...]
    lp_solves: int  # counted on the feasible system the grid shares


def lambda_grid(lambda_max: Fraction, steps: int) -> tuple[Fraction, ...]:
    """steps + 1 evenly spaced lambdas from 0 to lambda_max."""
    if steps <= 0:
        raise ValueError("steps must be positive")
    if lambda_max < 0:
        raise ValueError("lambda_max must be nonnegative")
    return tuple(Fraction(i) * lambda_max / steps for i in range(steps + 1))


def sweep_lambda(p: Pblp, lambda_max: Fraction, steps: int) -> SweepReport:
    """Solve the biobjective problem on an exact lambda grid.

    Witnesses carry their triobjective images, which are constant between
    breakpoints; consecutive grid points with different witness image
    sets bracket a breakpoint.  Fixing lambda changes only the
    objectives, so the whole grid shares one feasible system, and the
    extra ties (c1, c2, d1) are p.integer_costs rows, scaled once.  A
    witness set is keyed by its images as integral_image gives them, so
    each distinct set is turned into sorted Fractions once.
    """
    grid = lambda_grid(lambda_max, steps)
    system = FeasibleSystem(system_lp(p, p.c1))
    ties, _ = p.integer_costs
    sorted_sets = {}  # frozenset of integral images -> sorted Fraction images
    witness_images = []
    bolp_images = []
    for lam in grid:
        pairs = dichotomic_bolp(fix_lambda(p, lam), system, ties)
        key = frozenset(integral_image(p.integer_costs, *x) for _, x in pairs)
        if key not in sorted_sets:
            sorted_sets[key] = tuple(sorted(
                tuple(Fraction(a, y[-1]) for a in y[:-1]) for y in key
            ))
        witness_images.append(sorted_sets[key])
        bolp_images.append(tuple(y for y, _ in pairs))
    changes = tuple(
        (grid[i - 1], grid[i])
        for i in range(1, len(grid))
        if witness_images[i] != witness_images[i - 1]
    )
    return SweepReport(
        lambda_max=Fraction(lambda_max),
        steps=steps,
        grid=grid,
        witness_images=tuple(witness_images),
        bolp_images=tuple(bolp_images),
        changes=changes,
        lp_solves=system.solves,
    )
