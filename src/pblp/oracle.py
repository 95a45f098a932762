"""Independent brute-force checks for the decomposition machinery.

Nothing here shares logic with the component/interval code: vertices come
from exhaustive basis enumeration, extreme nondominated images from
re-deriving each candidate's component against the vertex images that no
other vertex image dominates componentwise, and the parametric picture
from solving the biobjective problem from scratch on a lambda grid.  Slow
on purpose, exact on purpose.  Candidate bases are solved by lp_core's
fraction-free elimination, a primitive of the LP engine, not of wsd or
breakpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import (
    InfeasibleProblem,
    InvariantViolation,
    TooLarge,
    UnboundedFeasibleSet,
    UnboundedScalarization,
)
from .lp_core import (
    FeasibleSystem,
    LinearProgram,
    LpStatus,
    Sense,
    eliminate,
    integer_row,
    solve_lex_lp,
    solve_lp,
    solve_square,
)
from .problem_model import Bolp, Case, Pblp, Tolp, build_tolp, fix_lambda
from .weight_geometry import Point3, component_vertices

__all__ = [
    "VertexSet",
    "SweepReport",
    "enumerate_vertices_bruteforce",
    "extreme_nondominated_bruteforce",
    "dichotomic_bolp",
    "lambda_grid",
    "sweep_lambda",
]

DEFAULT_BASIS_BUDGET = 10**6


@dataclass(frozen=True)
class VertexSet:
    """All vertices of a bounded feasible set, sorted."""

    vertices: tuple[tuple[Fraction, ...], ...]


def enumerate_vertices_bruteforce(
    rows, rhs, senses, n: int, max_bases: int = DEFAULT_BASIS_BUDGET
) -> VertexSet:
    """Every vertex of {x >= 0 : rows (senses) rhs} by basis enumeration.

    Proves boundedness first (one LP per coordinate) and raises
    UnboundedFeasibleSet otherwise; raises TooLarge when the number of
    candidate bases exceeds max_bases.  An infeasible system yields the
    empty vertex set.
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
        probe = replace(system_lp, objective=objective)
        res = solve_lp(probe, system=system)
        if res.status is LpStatus.INFEASIBLE:
            return VertexSet(())
        if res.status is LpStatus.UNBOUNDED:
            raise UnboundedFeasibleSet(f"coordinate {j} is unbounded")

    # Standard form: one slack (LE) or surplus (GE) column per inequality,
    # each row [coefficients | rhs] scaled to integers.
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

    # Reduce to an independent row set so degenerate inputs cannot hide
    # vertices behind singular bases.  Any independent set spanning the
    # rows gives each basis the same solution.
    echelon = eliminate(std)
    if not echelon.consistent:
        raise InvariantViolation("a feasible system reduced to 0 = nonzero")
    reduced = echelon.rows
    rank = len(reduced)

    if comb(total, rank) > max_bases:
        raise TooLarge(
            f"{comb(total, rank)} candidate bases exceed budget {max_bases}"
        )

    seen: set[tuple[Fraction, ...]] = set()
    for basis in combinations(range(total), rank):
        sol = solve_square([[row[c] for c in basis] + [row[-1]] for row in reduced])
        if sol is None:
            continue
        z = [zero] * total
        for c, v in zip(basis, sol):
            z[c] = v
        if any(v < 0 for v in z):
            continue
        x = tuple(z[:n])
        if x in seen:
            continue
        if _satisfies(rows, rhs, senses, x):
            seen.add(x)
    return VertexSet(tuple(sorted(seen)))


def _satisfies(rows, rhs, senses, x) -> bool:
    for row, b, sense in zip(rows, rhs, senses):
        lhs = sum(Fraction(a) * v for a, v in zip(row, x))
        if sense is Sense.GE and lhs < b:
            return False
        if sense is Sense.LE and lhs > b:
            return False
        if sense is Sense.EQ and lhs != b:
            return False
    return True


def extreme_nondominated_bruteforce(
    t: Tolp, max_bases: int = DEFAULT_BASIS_BUDGET
) -> tuple[Point3, ...]:
    """Extreme nondominated images from first principles.

    Enumerate all vertices, map them through the cost rows, drop every
    image that another one dominates componentwise, and keep the images
    whose component against the remaining list has positive area.  The
    feasible set must be bounded, so its image is the convex hull of the
    vertex images and the component test is exact.  The Pareto filter
    changes no result: with w >= 0 a dominated image's component lies in
    the simplex boundary (zero area), and its half-plane w.x <= w.y is
    implied by its dominator z's, w.x <= w.z <= w.y, so it never binds.
    """
    verts = enumerate_vertices_bruteforce(t.rows, t.rhs, t.senses, t.n, max_bases)
    images = sorted({t.image(x) for x in verts.vertices})
    # a dominator is lexicographically smaller, so only earlier ones count
    pareto = [
        y for i, y in enumerate(images)
        if not any(all(a <= b for a, b in zip(z, y)) for z in images[:i])
    ]
    keep = []
    for y in pareto:
        others = [z for z in pareto if z != y]
        if component_vertices(y, others).area() > 0:
            keep.append(y)
    return tuple(keep)


# -- parametric oracle -------------------------------------------------------


def _bolp_lp(bolp: Bolp, objective) -> LinearProgram:
    return LinearProgram(
        objective=tuple(objective),
        rows=bolp.rows,
        rhs=bolp.rhs,
        senses=bolp.senses,
        nonneg=(True,) * bolp.n,
    )


def _lex(bolp: Bolp, objective, ties, system: FeasibleSystem):
    res = solve_lex_lp(_bolp_lp(bolp, objective), ties, system)
    if res.status is LpStatus.UNBOUNDED:
        raise UnboundedScalarization("biobjective scalarization is unbounded")
    if res.status is LpStatus.INFEASIBLE:
        raise InfeasibleProblem("feasible set is empty")
    return res.x


def dichotomic_bolp(
    bolp: Bolp, extra_ties=(), system: FeasibleSystem | None = None
) -> tuple:
    """All extreme nondominated images of a biobjective problem.

    Classic dichotomic search: solve both lexicographic corners, then
    recursively probe the weight orthogonal to each gap.  Ties inside
    every solve are broken by (f1, f2) and then extra_ties, making the
    witnesses deterministic.  Every solve runs on system, bolp's
    feasible system, which is built here when not given.  Returns
    (image, witness) pairs sorted by first objective value.
    """
    if system is None:
        system = FeasibleSystem(_bolp_lp(bolp, bolp.f1))
    ties_a = (bolp.f2,) + tuple(extra_ties)
    ties_b = (bolp.f1,) + tuple(extra_ties)
    xa = _lex(bolp, bolp.f1, ties_a, system)
    xb = _lex(bolp, bolp.f2, ties_b, system)
    a, b = bolp.image(xa), bolp.image(xb)
    if a == b:
        return ((a, xa),)
    found = {a: xa, b: xb}

    def probe(lo, hi):
        # lo has the smaller f1 and larger f2, so both parts are positive
        w1, w2 = lo[1] - hi[1], hi[0] - lo[0]
        objective = tuple(w1 * f + w2 * g for f, g in zip(bolp.f1, bolp.f2))
        x = _lex(bolp, objective, (bolp.f1, bolp.f2) + tuple(extra_ties), system)
        y = bolp.image(x)
        if w1 * y[0] + w2 * y[1] < w1 * lo[0] + w2 * lo[1]:
            found[y] = x
            probe(lo, y)
            probe(y, hi)

    probe(a, b)
    return tuple(sorted((y, x) for y, x in found.items()))


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
    objectives, so the whole grid shares one feasible system.
    """
    grid = lambda_grid(lambda_max, steps)
    t = build_tolp(p)
    extra = (p.c1, p.c2, p.d1)
    system = FeasibleSystem(
        LinearProgram(p.c1, p.rows, p.rhs, p.senses, nonneg=(True,) * p.n)
    )
    witness_images = []
    bolp_images = []
    for lam in grid:
        bolp = fix_lambda(p, lam)
        pairs = dichotomic_bolp(bolp, extra_ties=extra, system=system)
        witness_images.append(tuple(sorted({t.image(x) for _, x in pairs})))
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
    )
