"""Random bounded problem instances for the randomized suites.

Every generated system carries a box row x1 + ... + xn <= U, which keeps
the feasible set bounded no matter what the other rows do, and draws
whose system is infeasible are rejected with a feasibility LP.  All
downstream code therefore sees only bounded nonempty instances, which is
what the interval and oracle machinery assumes.
"""

import random
from fractions import Fraction

from pblp import Case, LinearProgram, LpStatus, Pblp, Sense, solve_lp

# one EQ in five keeps equality handling exercised without rejecting
# most draws as infeasible
_SENSE_POOL = (Sense.LE, Sense.GE, Sense.LE, Sense.GE, Sense.EQ)


def random_bounded_system(rng: random.Random, max_vars=5, max_rows=7, min_vars=2):
    n = rng.randint(min_vars, max_vars)
    while True:
        extra = rng.randint(1, max_rows - 1)
        rows = []
        rhs = []
        senses = []
        for _ in range(extra):
            rows.append(tuple(Fraction(rng.randint(-9, 9)) for _ in range(n)))
            rhs.append(Fraction(rng.randint(-9, 9)))
            senses.append(rng.choice(_SENSE_POOL))
        rows.append((Fraction(1),) * n)
        rhs.append(Fraction(rng.randint(5, 9)))
        senses.append(Sense.LE)
        probe = LinearProgram(
            objective=(Fraction(0),) * n,
            rows=tuple(rows),
            rhs=tuple(rhs),
            senses=tuple(senses),
            nonneg=(True,) * n,
        )
        if solve_lp(probe).status is LpStatus.OPTIMAL:
            return n, tuple(rows), tuple(rhs), tuple(senses)


def random_cost(rng: random.Random, n: int):
    return tuple(Fraction(rng.randint(-9, 9)) for _ in range(n))


def random_pblp(rng: random.Random, case: Case, **sizes) -> Pblp:
    """A bounded instance; sizes (max_vars, max_rows, min_vars) pass to
    random_bounded_system."""
    n, rows, rhs, senses = random_bounded_system(rng, **sizes)
    c1 = random_cost(rng, n)
    c2 = random_cost(rng, n)
    d1 = random_cost(rng, n)
    while not any(d1):
        d1 = random_cost(rng, n)
    return Pblp(
        case=case, n=n, rows=rows, rhs=rhs, senses=senses, c1=c1, c2=c2, d1=d1
    )


def degenerate_pblp(rng: random.Random, case: Case) -> Pblp:
    """A bounded instance made degenerate four ways: one column is
    duplicated, rows and costs alike, so preimages are not unique; one
    more column costs nothing in all three objectives; d1 is a nonzero
    multiple of c1, so the images are collinear in (c1, d1); and one row
    is repeated as a positive multiple, so vertices are degenerate.  The
    box row covers both new columns, so the set stays bounded."""
    n, rows, rhs, senses = random_bounded_system(rng)
    j = rng.randrange(n)
    rows = [row + (row[j], Fraction(rng.randint(-9, 9))) for row in rows[:-1]]
    rows.append((Fraction(1),) * (n + 2))
    c1 = random_cost(rng, n)
    while not any(c1):
        c1 = random_cost(rng, n)
    c2 = random_cost(rng, n)
    c1, c2 = c1 + (c1[j], Fraction(0)), c2 + (c2[j], Fraction(0))
    k = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    i = rng.randrange(len(rows))
    scale = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    return Pblp(
        case=case,
        n=n + 2,
        rows=tuple(rows) + (tuple(scale * a for a in rows[i]),),
        rhs=rhs + (scale * rhs[i],),
        senses=senses + (senses[i],),
        c1=c1,
        c2=c2,
        d1=tuple(k * a for a in c1),
    )
