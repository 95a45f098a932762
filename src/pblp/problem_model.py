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
from .numerics import INF, integer_row


class Case(Enum):
    ONE = "1"
    TWO = "2"

    @property
    def shares(self) -> tuple[int, int]:
        """(s1, s2), each 0 or 1: objective k is c_k + lambda*s_k*d1."""
        return (1, 0) if self is Case.ONE else (1, 1)


class _CostRecord:
    """The images of points under a record's costs, read from its
    integer_costs (rows, L): each cost row times L, the lcm of all the
    rows' denominators."""

    def image(self, x, den=1) -> tuple[Fraction, ...]:
        """C x / den for x ints over den > 0, as an LP vertex is held, or
        rationals with den 1: one dot product per row of integer_costs
        over L * den, and no lcm."""
        rows, scale = self.integer_costs
        return tuple(Fraction(sum(map(mul, row, x)), scale * den) for row in rows)

    def integral_image(self, x, den: int) -> tuple[int, ...]:
        """image(x, den) for ints x as reduced ints (Y..., D), D > 0,
        the form weight_geometry.integral_image gives: equal images give
        equal tuples."""
        rows, scale = self.integer_costs
        y = (*(sum(map(mul, row, x)) for row in rows), scale * den)
        common = gcd(*y)
        return tuple(v // common for v in y)


@dataclass(frozen=True)
class Pblp(_CostRecord):
    """One parametric instance; x >= 0 is implicit in the feasible system.

    cost_rows, integer_costs and image belong to the triobjective
    problem min (c1.x, c2.x, d1.x): case plays no part in them.
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


@dataclass(frozen=True)
class Bolp(_CostRecord):
    """A plain biobjective problem, as produced by fixing lambda: its
    objectives are held as integer_costs (rows, L) alone, and f1, f2
    and cost_rows are their Fraction views, built on each read."""

    n: int
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    senses: tuple[Sense, ...]
    integer_costs: tuple[tuple[tuple[int, ...], ...], int]

    @property
    def cost_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        rows, scale = self.integer_costs
        return tuple(tuple(Fraction(a, scale) for a in row) for row in rows)

    @property
    def f1(self) -> tuple[Fraction, ...]:
        return self.cost_rows[0]

    @property
    def f2(self) -> tuple[Fraction, ...]:
        return self.cost_rows[1]


def system_lp(record: Pblp | Bolp, objective) -> LinearProgram:
    """The LP  min objective.x  over record's feasible system, x >= 0."""
    return LinearProgram(
        objective=tuple(objective),
        rows=record.rows,
        rhs=record.rhs,
        senses=record.senses,
        nonneg=(True,) * record.n,
    )


def fix_lambda(p: Pblp, lam: Fraction) -> Bolp:
    """Substitute a concrete lambda >= 0 into the parametric objectives.

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
    return Bolp(p.n, p.rows, p.rhs, p.senses, (rows, q * scale // common))


# -- weights ---------------------------------------------------------------


@dataclass(frozen=True)
class Weight3:
    """A point of the weight simplex: nonnegative, summing to one."""

    w1: Fraction
    w2: Fraction
    w3: Fraction

    def __post_init__(self):
        if self.w1 < 0 or self.w2 < 0 or self.w3 < 0:
            raise ValueError(f"negative weight in {self}")
        if self.w1 + self.w2 + self.w3 != 1:
            raise ValueError(f"weights do not sum to 1 in {self}")


@dataclass(frozen=True)
class Weight2:
    """The simplex projected to its first two coordinates."""

    w1: Fraction
    w2: Fraction

    def __post_init__(self):
        if self.w1 < 0 or self.w2 < 0:
            raise ValueError(f"negative weight in {self}")
        if self.w1 + self.w2 > 1:
            raise ValueError(f"projected weight outside simplex: {self}")

    def lift(self) -> Weight3:
        return Weight3(self.w1, self.w2, 1 - self.w1 - self.w2)


@dataclass(frozen=True)
class Segment2:
    """A nondegenerate segment in the projected simplex."""

    p: Weight2
    q: Weight2

    def __post_init__(self):
        if self.p == self.q:
            raise ValueError("degenerate segment")


def ws_scalarize(p: Pblp, w: Weight3) -> LinearProgram:
    """The weighted-sum LP  min (w1 c1 + w2 c2 + w3 d1).x  over p's
    system; p.case plays no part."""
    return system_lp(
        p, (w.w1 * a + w.w2 * b + w.w3 * c for a, b, c in zip(p.c1, p.c2, p.d1))
    )


def lambda_from_weight(case: Case, w: Weight3):
    """Invert the weight map: which lambda does a simplex weight encode.

    lambda = w3/(s1*w1 + s2*w2).  Returns a Fraction, INF for the limit
    lambda -> infinity (a zero denominator with w3 > 0), or None when
    the weight corresponds to no lambda at all (case ONE at (0, 1, 0)).
    """
    s1, s2 = case.shares
    den = (w.w1 if s1 else 0) + (w.w2 if s2 else 0)  # a zero share costs nothing
    if den > 0:
        return w.w3 / den
    if w.w3 > 0:
        return INF
    return None


def segment_for_lambda(case: Case, lam: Fraction) -> Segment2:
    """The projected-simplex segment carrying all weights of a fixed lambda.

    It runs from (0, 1/(1+lambda*s2)) to (1/(1+lambda*s1), 0): in case
    ONE from (0, 1) with slope -(1+lambda), in case TWO with slope -1.
    """
    if lam < 0:
        raise NegativeParameter(f"lambda = {lam}")
    s1, s2 = case.shares
    return Segment2(
        Weight2(Fraction(0), Fraction(1) / (1 + lam * s2)),
        Weight2(Fraction(1) / (1 + lam * s1), Fraction(0)),
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
