"""Problem records and the weight/parameter correspondence.

A parametric biobjective problem (Pblp) carries a feasible system
rows (sense) rhs with x >= 0 implicit, three cost rows c1, c2, d1 and a
case tag, read as a share vector s: objective k is c_k + lambda*s_k*d1,
with s = (1, 0) in case ONE and (1, 1) in case TWO.  Without its case
tag the record is the associated triobjective problem
min (c1.x, c2.x, d1.x), whose weight set decomposition every case
shares; each lambda >= 0 corresponds to a line segment inside the
projected weight simplex {(w1, w2) : w1, w2 >= 0, w1 + w2 <= 1}, and
every case-dependent formula below follows from s.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul

from .errors import DimensionMismatch, NegativeParameter
from .lp_core import LinearProgram, Sense
from .numerics import integer_row


class Case(Enum):
    ONE = "1"
    TWO = "2"

    @property
    def shares(self) -> tuple[int, int]:
        """(s1, s2), each 0 or 1: objective k is c_k + lambda*s_k*d1."""
        return (1, 0) if self is Case.ONE else (1, 1)


@dataclass(frozen=True)
class Pblp:
    """One parametric instance; x >= 0 is implicit in the feasible system.

    cost_rows and integer_costs belong to the triobjective problem
    min (c1.x, c2.x, d1.x): case plays no part in them.
    """

    case: Case
    n: int
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    senses: tuple[Sense, ...]
    c1: tuple[Fraction, ...]
    c2: tuple[Fraction, ...]
    d1: tuple[Fraction, ...]

    def __post_init__(self):
        if not (len(self.rows) == len(self.rhs) == len(self.senses)):
            raise DimensionMismatch("row, rhs and sense counts differ")
        if any(len(row) != self.n for row in self.rows):
            raise DimensionMismatch("constraint row width differs from n")
        if any(len(cost) != self.n for cost in self.cost_rows):
            raise DimensionMismatch("cost row width differs from n")

    @property
    def cost_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return (self.c1, self.c2, self.d1)

    @cached_property
    def integer_costs(self) -> tuple[tuple[list[int], ...], int]:
        """(rows, L) of cost_rows, scaled once per record."""
        values, scale = integer_row([a for row in self.cost_rows for a in row])
        n = len(self.cost_rows[0])
        return tuple(values[k : k + n] for k in range(0, len(values), n)), scale


def integral_image(costs, x, den: int) -> tuple[int, ...]:
    """C x / den, for costs = (rows, L) as Pblp.integer_costs and
    fix_lambda give them (each cost row of C times L) and ints x over
    den > 0 as an LP vertex is held: one dot product per row, as reduced
    ints (Y..., D), D > 0, so equal images are equal tuples."""
    rows, scale = costs
    y = (*(sum(map(mul, row, x)) for row in rows), scale * den)
    common = gcd(*y)
    return tuple(v // common for v in y)


def system_lp(p: Pblp, objective) -> LinearProgram:
    """The LP  min objective.x  over p's feasible system, x >= 0."""
    return LinearProgram(
        objective=tuple(objective),
        rows=p.rows,
        rhs=p.rhs,
        senses=p.senses,
        nonneg=(True,) * p.n,
    )


def fix_lambda(p: Pblp, lam: Fraction) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The objectives of the biobjective problem at a concrete
    lambda >= 0, over p's feasible system, as the pair ((f1, f2), L).

    With lambda = a/q and p.integer_costs (C1, C2, D) over L, objective k
    is (q C_k + a s_k D) / (q L).  Divided by the gcd of qL and every
    entry, those are the rows and the scale, the lcm of the objectives'
    denominators, that numerics.integer_row gives the Fraction rows.
    """
    if lam < 0:
        raise NegativeParameter(f"lambda = {lam}")
    a, q = lam.numerator, lam.denominator
    (c1, c2, d), scale = p.integer_costs
    rows = [  # a zero share leaves its row as it is, times q
        [q * c + a * e for c, e in zip(row, d)] if share else [q * c for c in row]
        for row, share in zip((c1, c2), p.case.shares)
    ]
    common = gcd(q * scale, *rows[0], *rows[1])
    rows = tuple(tuple([v // common for v in row]) for row in rows)
    return rows, q * scale // common


# -- weights ---------------------------------------------------------------


def segment_for_lambda(
    case: Case, lam: Fraction
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """The projected-simplex segment carrying all weights of a fixed
    lambda, as its two end points ((w1, w2), (w1, w2)).

    It runs from (0, 1/(1+lambda*s2)) to (1/(1+lambda*s1), 0): in case
    ONE from (0, 1) with slope -(1+lambda), in case TWO with slope -1.
    """
    if lam < 0:
        raise NegativeParameter(f"lambda = {lam}")
    s1, s2 = case.shares
    return (
        (Fraction(0), Fraction(1) / (1 + lam * s2)),
        (Fraction(1) / (1 + lam * s1), Fraction(0)),
    )


def ge_form(rows, rhs, senses):
    """Rewrite a mixed-sense system as all >= rows (LE negated, EQ split).

    Row order is preserved: each input row contributes its >= forms in
    place, so indices stay predictable for dual bookkeeping.
    """
    out_rows: list[tuple[Fraction, ...]] = []
    out_rhs: list[Fraction] = []
    for row, b, sense in zip(rows, rhs, senses):
        if sense is Sense.GE:
            out_rows.append(tuple(row))
            out_rhs.append(b)
        elif sense is Sense.LE:
            out_rows.append(tuple(-a for a in row))
            out_rhs.append(-b)
        else:
            out_rows.append(tuple(row))
            out_rhs.append(b)
            out_rows.append(tuple(-a for a in row))
            out_rhs.append(-b)
    return tuple(out_rows), tuple(out_rhs)
