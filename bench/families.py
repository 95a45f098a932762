"""Seeded problem families for the benchmark.

The draws follow the acceptance suite's bounded-instance recipe call for
call, so `acceptance_family(1405, 200)` is the acceptance batch.  Every
system carries a box row x1 + ... + xn <= U and infeasible draws are
rejected with one feasibility LP, so all instances are bounded and
nonempty.
"""

import random
from fractions import Fraction

from pblp import Case, LinearProgram, LpStatus, Pblp, Sense, solve_lp

ACCEPTANCE_SEED = 1405

# one EQ in five keeps equality handling exercised without rejecting
# most draws as infeasible
_SENSE_POOL = (Sense.LE, Sense.GE, Sense.LE, Sense.GE, Sense.EQ)


def _coeffs(rng, n):
    return tuple(Fraction(rng.randint(-9, 9)) for _ in range(n))


def _draw(rng, case, min_vars, max_vars, max_rows):
    n = rng.randint(min_vars, max_vars)
    while True:
        extra = rng.randint(1, max_rows - 1)
        rows, rhs, senses = [], [], []
        for _ in range(extra):
            rows.append(_coeffs(rng, n))
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
            break
    c1 = _coeffs(rng, n)
    c2 = _coeffs(rng, n)
    d1 = _coeffs(rng, n)
    while not any(d1):
        d1 = _coeffs(rng, n)
    return Pblp(
        case=case, n=n, rows=tuple(rows), rhs=tuple(rhs), senses=tuple(senses),
        c1=c1, c2=c2, d1=d1,
    )


def _family(seed, count, min_vars, max_vars, max_rows):
    rng = random.Random(seed)
    return [
        _draw(rng, Case.ONE if i % 2 == 0 else Case.TWO, min_vars, max_vars, max_rows)
        for i in range(count)
    ]


def acceptance_family(seed, count):
    """2-5 vars, at most 7 rows with the box row, cases alternating."""
    return _family(seed, count, 2, 5, 7)


def scaled_family(seed, count):
    """Larger tableaux: 4-8 vars, at most 12 rows with the box row."""
    return _family(seed, count, 4, 8, 12)


def relabel(p: Pblp, rng: random.Random) -> Pblp:
    """The same problem with its variables and rows in a random order.

    Images, components, intervals and LP solve counts are unchanged; the
    simplex pivot paths and every emitted byte that names a variable or
    row move.
    """
    cols = list(range(p.n))
    rng.shuffle(cols)
    order = list(range(len(p.rows)))
    rng.shuffle(order)

    def permute(vec):
        return tuple(vec[j] for j in cols)

    return Pblp(
        case=p.case, n=p.n,
        rows=tuple(permute(p.rows[i]) for i in order),
        rhs=tuple(p.rhs[i] for i in order),
        senses=tuple(p.senses[i] for i in order),
        c1=permute(p.c1), c2=permute(p.c2), d1=permute(p.d1),
    )
