"""Exact rational linear programming.

A small two-phase primal simplex on a fraction-free integer dictionary
(Chvatal, Linear Programming, 1983): each basic variable keeps one row
over the nonbasic columns only.  Each row is scaled to integers once;
from then on the rows are Python ints over one positive common
denominator det, and every pivot is the integer-preserving update of
Bareiss (Math. Comp. 1968) and Edmonds (J. Res. NBS 1967), whose
division by the previous pivot is exact, run on the dictionary as in
Avis's lrs (2000).  Costs are scaled to integers once per stage, so
pricing and the ratio test read only signs of integer expressions and
take the decisions a Fraction tableau would take.  Bland's rule makes it
immune to cycling and every number stays exact.  Lexicographic ties are
solved on the same dictionary after phase two: each stage bans the
columns whose positive reduced cost takes them off the previous stage's
optimal face (Ehrgott, Multicriteria Optimization, 2005), so one
dictionary and one phase one serve every stage; once every nonbasic
column is banned the face is the current vertex and the stages stop.

Rows keep the sense they are given in.  Phase one starts a row on its
own slack when that slack reads +1 once the right side is made
nonnegative (a <= row with rhs >= 0, a >= row with rhs <= 0) and on an
artificial otherwise, so rows that z = 0 satisfies, written in <= form,
need no artificial.  The rank reduction eliminates over the equality
rows only: an inequality row is the one row with a nonzero in its slack
column, so it never depends on the others.

Phase one never reads the objective.  A FeasibleSystem runs the
standard-form set-up, the rank reduction and phase one once for a set of
constraints and keeps the feasible dictionary; every LP over those
constraints then starts phase two from a copy of it (the reuse across
weights of Przybylski, Gandibleux and Ehrgott, INFORMS J. Comput. 2010).
The pivot path, and so the optimal vertex, is the one a fresh solve
takes.  FeasibleSystem.face(f) minimizes f once on a copy and drops the
nonbasic columns whose positive reduced cost holds them at zero on f's
optimal face, so LPs on the face run on a narrower dictionary with no
new row and no phase one.  On a face the optimal value is a fresh
solve's with the row f.x = min f appended; the optimal vertex may
differ.

integer_row, eliminate and solve_square are the package's one exact
elimination routine, shared by the tableau's rank reduction and the
duals; the vertex oracle and the problem records scale their rows with
it.  It raises NotRational on an entry that is no int or Fraction.

Optimal duals are solved exactly from the final basis of a plain solve
only: one with no ties and no FeasibleSystem, face or not.  Reduced
costs at the final basis are reported for the objectives a caller asks
to price, over one common positive scale, so that the weights for which
that basis stays optimal form an integer cone (Ehrgott, Multicriteria
Optimization, 2005, ch. 7).

Every variable is nonnegative.  Sign conventions for duals of
min c.x  s.t. rows (sense) rhs, x >= 0:

    >= rows get dual >= 0,  <= rows get dual <= 0,  = rows are free,
    and dual . rhs == optimal value.
"""

from __future__ import annotations

import copy
from bisect import bisect
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import DimensionMismatch, InvariantViolation, NotRational, SystemMismatch

__all__ = [
    "Sense",
    "LpStatus",
    "LinearProgram",
    "LpResult",
    "FeasibleSystem",
    "solve_lp",
    "solve_lex_lp",
    "integer_row",
    "Echelon",
    "eliminate",
    "solve_square",
]


class Sense(Enum):
    GE = ">="
    EQ = "="
    LE = "<="


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """min objective.x subject to rows[i].x (senses[i]) rhs[i], x >= 0.

    nonneg holds one True per variable: every variable is nonnegative,
    and a False entry raises ValueError.
    """

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    senses: tuple[Sense, ...]
    nonneg: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.objective)
        if len(self.nonneg) != n:
            raise DimensionMismatch("objective and domain lengths differ")
        if not all(self.nonneg):
            raise ValueError("every variable must be nonnegative")
        if not (len(self.rows) == len(self.rhs) == len(self.senses)):
            raise DimensionMismatch("row, rhs and sense counts differ")
        for row in self.rows:
            if len(row) != n:
                raise DimensionMismatch("row length differs from objective")

    @property
    def num_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpResult:
    """Outcome of a solve; x and value are set when status is OPTIMAL
    (value only, from FeasibleSystem.face).

    dual holds one optimal dual per original row for a plain solve (no
    ties, no FeasibleSystem) and is None otherwise.

    reduced is set by an optimal solve that was asked to price objectives
    (see solve_lp) and is None otherwise.  It holds one integer tuple per
    nonbasic standard-form column, slack columns included, in column
    order, whose tuple is not all zero: objective k's reduced cost
    there, every objective over one common positive scale.  So for
    weights a the final basis is optimal for sum_k a_k objective_k
    exactly when no sum_k a_k r_k is negative.
    """

    status: LpStatus
    x: tuple[Fraction, ...] | None = None
    value: Fraction | None = None
    dual: tuple[Fraction, ...] | None = None
    reduced: tuple[tuple[int, ...], ...] | None = None


# -- exact elimination ------------------------------------------------------


def integer_row(values) -> tuple[list[int], int]:
    """values (ints or Fractions) times the lcm of their denominators.

    Returns the integer row and the scale.  A row of a linear system so
    scaled keeps its rank and its solutions.
    """
    try:
        scale = lcm(*(v.denominator for v in values))
        return [v.numerator * (scale // v.denominator) for v in values], scale
    except AttributeError:
        bad = next((v for v in values if not isinstance(v, (int, Fraction))), None)
        raise NotRational(f"{bad!r} is neither an int nor a Fraction") from None


@dataclass(frozen=True)
class Echelon:
    """Outcome of eliminate on integer rows [coefficients | rhs].

    kept indexes the kept rows and pivots holds their pivot columns.
    rows holds them reduced: row k is zero in the pivot columns of rows
    0..k-1, so in pivot-column order the kept system is triangular.
    consistent is False when a dropped row reduces to 0 = nonzero.
    """

    kept: list[int]
    pivots: list[int]
    rows: list[list[int]]
    consistent: bool


def eliminate(rows: list[list[int]]) -> Echelon:
    """Forward elimination in integers, one row at a time, in order.

    Each row is reduced against the kept rows before it, fraction-free
    (row * pivot - row[col] * kept row, both factors divided by their
    gcd), and kept when a coefficient survives; its first nonzero
    coefficient is its pivot and its content is divided out.  So the
    kept rows are the greedy independent set in row order.
    """
    kept: list[int] = []
    pivots: list[int] = []
    reduced: list[list[int]] = []
    consistent = True
    width = len(rows[0]) - 1 if rows else 0
    for idx, work in enumerate(rows):
        for col, elim in zip(pivots, reduced):
            f = work[col]
            if f:
                p = elim[col]
                g = gcd(p, f)
                p, f = p // g, f // g
                work = [a * p - f * e for a, e in zip(work, elim)]
        piv = next((j for j in range(width) if work[j]), None)
        if piv is None:
            consistent = consistent and work[-1] == 0
            continue
        content = gcd(*work)
        reduced.append([a // content for a in work])
        pivots.append(piv)
        kept.append(idx)
    return Echelon(kept, pivots, reduced, consistent)


def solve_square(rows: list[list[int]]) -> list[Fraction] | None:
    """x with A x = b for a square integer system [A | b], None if A is
    singular.

    Back-substitutes the triangular rows of eliminate in integers over
    D, the product of their pivots.  D is the determinant of that
    triangular system up to sign, so by Cramer's rule every D * x_j is
    an integer and every division below is exact.
    """
    echelon = eliminate(rows)
    if len(echelon.kept) < len(rows):
        return None
    det = prod(row[col] for row, col in zip(echelon.rows, echelon.pivots))
    scaled = [0] * len(rows)  # det * x, filled from the last pivot back
    for row, col in zip(reversed(echelon.rows), reversed(echelon.pivots)):
        rest = sum(a * v for a, v in zip(row, scaled) if a)
        scaled[col] = (row[-1] * det - rest) // row[col]
    return [Fraction(v, det) for v in scaled]


class _Tableau:
    """Standard-form system  A z = b, z >= 0  as a dictionary over a basis.

    A label is a standard-form column index: the variables, then one
    slack per inequality row, then phase one's artificials.  basis holds
    the basic label of each row and nonbasic the other labels, in label
    order; each basic label keeps one row over the nonbasic labels only,
    its row of B^-1 A, since every basic column is a unit vector.
    Fraction-free: rows and b hold ints over one positive common
    denominator det, so the true dictionary is rows/det and the true
    right side b/det.  Until phase one installs a basis, every label
    < num_cols is nonbasic.  A face (see face) drops nonbasic labels.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        # Label layout: one per variable, then one slack/surplus per
        # inequality.
        cols = lp.num_vars
        slack_col: list[int | None] = []
        for sense in lp.senses:
            if sense is Sense.EQ:
                slack_col.append(None)
            else:
                slack_col.append(cols)
                cols += 1
        self.num_cols = cols

        # Each row is scaled to integers by the lcm of its denominators,
        # which leaves its rank and its solutions alone, and negated where
        # its rhs is negative, so that b >= 0.  row_factor is that scale
        # times that sign, the factor from original to integer row.
        self.rows: list[list[int]] = []
        self.b: list[int] = []
        self.row_factor: list[int] = []
        self.orig_row: list[int] = []  # index into lp.rows, for duals
        for i, row in enumerate(lp.rows):
            scaled, scale = integer_row([*row, lp.rhs[i]])
            b = scaled.pop()
            scaled += [0] * (cols - lp.num_vars)
            if slack_col[i] is not None:
                scaled[slack_col[i]] = scale if lp.senses[i] is Sense.LE else -scale
            if b < 0:
                scaled = [-a for a in scaled]
                b, scale = -b, -scale
            self.b.append(b)
            self.rows.append(scaled)
            self.row_factor.append(scale)
            self.orig_row.append(i)
        self.slack_col = slack_col
        self.basis: list[int] = []
        self.nonbasic = list(range(cols))
        # Simplex basis bookkeeping (and dual recovery from the basis)
        # needs full row rank.  Dependent rows are dropped before any
        # pivoting and get dual zero; a dependent row whose right side
        # disagrees proves infeasibility.  Only equality rows can be
        # dependent: an inequality row alone is nonzero in its slack
        # column, so it is independent of every other row, and no
        # equality row depends on it.  Eliminating the equality rows
        # over the variable columns (they are zero in every slack
        # column) so keeps exactly the rows a pass over all rows keeps.
        eq_rows = [i for i, col in enumerate(slack_col) if col is None]
        echelon = eliminate(
            [self.rows[i][: lp.num_vars] + [self.b[i]] for i in eq_rows]
        )
        self.infeasible_by_rank = not echelon.consistent
        if len(echelon.kept) != len(eq_rows):
            kept_eq = {eq_rows[k] for k in echelon.kept}
            keep = [
                i for i, col in enumerate(slack_col)
                if col is not None or i in kept_eq
            ]
            self.rows = [self.rows[i] for i in keep]
            self.b = [self.b[i] for i in keep]
            self.row_factor = [self.row_factor[i] for i in keep]
            self.orig_row = [self.orig_row[i] for i in keep]
        self.start_rows = [row[:] for row in self.rows]  # B for the duals
        # The product of the row scales, not their lcm, is the determinant
        # of the starting basis in the integer system, and only with it
        # are the Bareiss divisions in _pivot exact.
        scales = [abs(f) for f in self.row_factor]
        self.det = prod(scales)
        for i, scale in enumerate(scales):
            if scale != self.det:
                up = self.det // scale
                self.rows[i] = [a * up for a in self.rows[i]]
                self.b[i] *= up

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r: int, col: int):
        """Bareiss's integer-preserving pivot (Bareiss 1968, Edmonds 1967):
        label col enters in row r, and basis[r] leaves.

        With p the pivot entry, every other row becomes
        (row * p - row[col] * pivot row) / det and det becomes p.  The
        division is exact by Sylvester's identity: each entry stays a
        minor of the starting integer system.  A negative p flips the
        sign of row r, so det stays positive.  The leaving column was det
        times a unit vector, so its new entries follow without arithmetic:
        -row[col] in every other row and det in row r, both negated when
        p < 0.  It moves to its place in label order.
        """
        rows, b, det, nonbasic = self.rows, self.b, self.det, self.nonbasic
        k = nonbasic.index(col)
        leaving = self.basis[r]
        del nonbasic[k]
        at = bisect(nonbasic, leaving)
        nonbasic.insert(at, leaving)
        prow, pb = rows[r], b[r]
        p, sign = prow[k], 1
        if p < 0:
            p, sign = -p, -1
            prow = rows[r] = [-a for a in prow]
            pb = b[r] = -pb
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[k]
            if f != 0:
                row = rows[i] = [(a * p - f * q) // det for a, q in zip(row, prow)]
                b[i] = (b[i] * p - f * pb) // det
            elif p != det:
                row = rows[i] = [a * p // det for a in row]
                b[i] = b[i] * p // det
            del row[k]
            row.insert(at, -sign * f)
        del prow[k]
        prow.insert(at, sign * det)
        self.det = p
        self.basis[r] = col

    def _priced_columns(self, cost: list[int], banned: set[int]):
        """(j, reduced cost times det) of every nonbasic label j free to
        enter, in label order.

        cost is integer (see _column_cost) and det positive, so each
        value has the sign of the true reduced cost, which is all that
        pricing reads.
        """
        det = self.det
        priced = [
            (cost[col], row) for col, row in zip(self.basis, self.rows) if cost[col]
        ]
        for k, j in enumerate(self.nonbasic):
            if j in banned:
                continue
            reduced = cost[j] * det
            for c, row in priced:
                if row[k] != 0:
                    reduced -= c * row[k]
            yield j, reduced

    def _simplex(self, cost: list[int], banned: set[int]) -> LpStatus:
        """Minimize cost.z with Bland's rule; banned labels never enter."""
        rows, b, basis = self.rows, self.b, self.basis
        while True:
            entering = next(
                (j for j, reduced in self._priced_columns(cost, banned) if reduced < 0),
                -1,
            )
            if entering < 0:
                return LpStatus.OPTIMAL
            k = self.nonbasic.index(entering)
            # Minimum ratio b[i] / a over a > 0, compared cross-multiplied.
            leaving = -1
            best_b = best_a = 0
            for i in range(len(rows)):
                a = rows[i][k]
                if a > 0:
                    lhs, rhs = b[i] * best_a, best_b * a
                    if (
                        leaving < 0
                        or lhs < rhs
                        or (lhs == rhs and basis[i] < basis[leaving])
                    ):
                        best_b, best_a = b[i], a
                        leaving = i
            if leaving < 0:
                return LpStatus.UNBOUNDED
            self._pivot(leaving, entering)

    def _ban_optimal_face(self, cost: list[int], banned: set[int]) -> bool:
        """Confine later stages to the optimal face of cost; False when
        no label is left free, so the face is the current vertex.

        At an optimal basis cost.z equals the optimum plus the sum of
        reduced cost times z_j over nonbasic labels, every reduced cost
        nonnegative.  So the optimal face is exactly where each nonbasic
        label of positive reduced cost is zero; banning those labels
        keeps every later pivot on that face.
        """
        priced = list(self._priced_columns(cost, banned))
        banned.update(j for j, reduced in priced if reduced > 0)
        return any(reduced == 0 for _, reduced in priced)

    def _drop(self, labels):
        """Remove the nonbasic labels in labels, entries and all."""
        keep = [k for k, j in enumerate(self.nonbasic) if j not in labels]
        self.nonbasic = [self.nonbasic[k] for k in keep]
        self.rows = [[row[k] for k in keep] for row in self.rows]

    # -- phases -----------------------------------------------------------

    def phase_one(self) -> bool:
        """Install a feasible basis.  Returns False when infeasible.

        Each row starts on its slack where that slack column is already
        det times a unit vector, and on an artificial, the next label
        from num_cols on, everywhere else.  The sum of the artificials is
        minimized, and those left basic at zero are driven out; a
        departed artificial stays a priced nonbasic label until then and
        is dropped after.  The rows are independent (see __init__), so a
        zero-valued artificial always has a label to pivot on.
        """
        width = self.num_cols  # labels so far, artificials included
        for i, row in enumerate(self.rows):
            col = self.slack_col[self.orig_row[i]]
            if col is not None and row[col] == self.det:
                self.basis.append(col)
            else:
                self.basis.append(width)
                width += 1
        self._drop(set(self.basis))
        if width == self.num_cols:
            return True
        cost = [0] * self.num_cols + [1] * (width - self.num_cols)
        # Phase one is bounded below by zero, so it always ends optimal.
        if self._simplex(cost, banned=set()) is not LpStatus.OPTIMAL:
            raise InvariantViolation("phase one reported an unbounded objective")
        if any(b for col, b in zip(self.basis, self.b) if col >= self.num_cols):
            return False
        for i, row in enumerate(self.rows):
            if self.basis[i] < self.num_cols:
                continue
            pivot_col = next(
                (j for j, a in zip(self.nonbasic, row) if a and j < self.num_cols),
                None,
            )
            if pivot_col is None:
                raise InvariantViolation("an artificial row has no pivot column")
            self._pivot(i, pivot_col)
        self._drop(range(self.num_cols, width))
        return True

    def _column_cost(self, objective) -> tuple[list[int], int]:
        """objective as costs per label < num_cols, scaled to integers by
        the lcm of its denominators, and that scale.  Pricing reads only
        signs, which a positive scale keeps, and scaling once per stage
        spares every pricing pass the Fraction arithmetic."""
        values, scale = integer_row(objective)
        return values + [0] * (self.num_cols - len(values)), scale

    def reduced_costs(self, objectives) -> tuple[tuple[int, ...], ...]:
        """LpResult.reduced for objectives at this basis.

        _priced_columns gives det * s_k times objective k's reduced cost,
        s_k its _column_cost scale, so times L / s_k, L the lcm of the
        s_k, every objective is over det * L.  Nothing is banned: every
        nonbasic label, slack or structural, bounds the cone.
        """
        costs = [self._column_cost(objective) for objective in objectives]
        common = lcm(*(scale for _, scale in costs))
        ups = [common // scale for _, scale in costs]
        priced = [self._priced_columns(cost, set()) for cost, _ in costs]
        out = []
        for column in zip(*priced):
            entry = tuple(r * up for (_, r), up in zip(column, ups))
            if any(entry):
                out.append(entry)
        return tuple(out)

    def phase_two(self, objectives) -> Fraction | None:
        """Lexicographic minimum of objectives in order, on this tableau:
        the first objective's optimal value, or None when a stage is
        unbounded.

        Each stage runs from the previous stage's optimal basis with the
        labels that leave its optimal face banned, so phase one runs
        once however many ties follow.  Once every nonbasic label is
        banned the face is the current vertex, which no later stage
        could leave, so the stages stop.  The value is sum_i
        cost[basis_i] * b_i over det times the first cost's scale.
        """
        banned: set[int] = set()
        value = None
        for objective in objectives:
            if value is not None and not self._ban_optimal_face(cost, banned):
                break
            cost, scale = self._column_cost(objective)
            if self._simplex(cost, banned) is LpStatus.UNBOUNDED:
                return None
            if value is None:
                total = sum(cost[col] * b for col, b in zip(self.basis, self.b))
                value = Fraction(total, self.det * scale)
        return value

    def face(self, objective) -> Fraction | None:
        """Minimize objective, then narrow this tableau to its optimal
        face: the minimum, or None when it is unbounded.

        At the optimal basis each nonbasic label of positive reduced
        cost is zero on the whole face (see _ban_optimal_face), so it is
        dropped.  The rest keep their label order, so Bland's rule and
        the ratio test's ties take the pivots of a full tableau with the
        dropped labels banned.  No row is added and det stays.
        """
        value = self.phase_two((objective,))
        if value is None:
            return None
        cost, _ = self._column_cost(objective)
        off: set[int] = set()
        self._ban_optimal_face(cost, off)
        self._drop(off)
        return value

    def copy(self, lp: LinearProgram) -> "_Tableau":
        """An independent twin for solving lp, an LP over the same system.

        Pivots write rows, b, basis and nonbasic in place, so those four
        are copied; det is an int, rebound by each pivot, and the label
        layout and the row bookkeeping are shared.
        """
        twin = copy.copy(self)
        twin.lp = lp
        twin.rows = [row[:] for row in self.rows]
        twin.b = self.b[:]
        twin.basis = self.basis[:]
        twin.nonbasic = self.nonbasic[:]
        return twin

    # -- extraction -------------------------------------------------------

    def solution(self) -> tuple[Fraction, ...]:
        x = [Fraction(0)] * self.lp.num_vars
        for col, b in zip(self.basis, self.b):
            if col < len(x):
                x[col] = Fraction(b, self.det)
        return tuple(x)

    def duals(self) -> tuple[Fraction, ...]:
        """Dual of each original row from B^T y = c_B on the final basis.

        B is read off start_rows, the kept integer rows over every label
        before any pivot, and c is the objective times the lcm of its
        denominators, so y_i times row_factor[i] over that lcm is the
        dual of original row orig_row[i].  Dropped rows get dual zero.
        """
        cost, scale = self._column_cost(self.lp.objective)
        y = solve_square(
            [[row[col] for row in self.start_rows] + [cost[col]] for col in self.basis]
        )
        if y is None:
            raise InvariantViolation("final simplex basis is singular")
        duals = [Fraction(0)] * len(self.lp.rows)
        for i, factor, v in zip(self.orig_row, self.row_factor, y):
            duals[i] = v * factor / scale
        return tuple(duals)


def _feasible_tableau(lp: LinearProgram) -> _Tableau | None:
    """lp's tableau after phase one, or None when lp is infeasible."""
    tab = _Tableau(lp)
    if tab.infeasible_by_rank or not tab.phase_one():
        return None
    return tab


class FeasibleSystem:
    """The constraints of an LP, taken through phase one once.

    Built from lp, any LP over the system; its objective plays no part.
    Holds the feasible tableau, or None when the system is infeasible.
    solve_lp and solve_lex_lp accept it for any LP with the same rows,
    rhs, senses and nonneg, and run only phase two on a copy.  Nothing
    is cached beyond the object, so it lives as long as its caller
    keeps it.

    face(f) is the system restricted to the optimal face of f, on a
    dictionary without the labels that leave that face (see
    _Tableau.face); it keeps lp, so the same LPs are accepted on it.
    Its pivot path is not a fresh solve's, so an LP on it may end on
    another optimal vertex of the same value.  No system, face or not,
    reports duals, and a face that drops a label prices nothing.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self._tableau = _feasible_tableau(lp)

    def face(self, objective) -> tuple[LpResult, "FeasibleSystem | None"]:
        """The minimum of objective over this system (status and value,
        no x) and the system on its optimal face, None unless the
        minimum is attained.  Phase two runs once, on a copy of the
        tableau held here; it is not counted as a solve."""
        if len(objective) != self.lp.num_vars:
            raise DimensionMismatch("face objective length differs")
        if self._tableau is None:
            return LpResult(LpStatus.INFEASIBLE), None
        tab = self._tableau.copy(self.lp)
        value = tab.face(objective)
        if value is None:
            return LpResult(LpStatus.UNBOUNDED), None
        twin = copy.copy(self)
        twin._tableau = tab
        return LpResult(LpStatus.OPTIMAL, value=value), twin

    def tableau_for(self, lp: LinearProgram) -> _Tableau | None:
        """A fresh copy of the feasible tableau for lp, None if infeasible."""
        own = self.lp
        if (lp.rows, lp.rhs, lp.senses, lp.nonneg) != (
            own.rows, own.rhs, own.senses, own.nonneg
        ):
            raise SystemMismatch("LP constraints differ from the feasible system's")
        if self._tableau is None:
            return None
        return self._tableau.copy(lp)


_solve_calls = 0


def solve_calls() -> int:
    """Total solve_lp invocations so far, one per tableau built: a
    lexicographic solve with any number of ties counts once.  Snapshot
    around a phase to count its LP work deterministically."""
    return _solve_calls


def solve_lp(
    lp: LinearProgram,
    ties=(),
    system: FeasibleSystem | None = None,
    price=(),
) -> LpResult:
    """Exact lexicographic minimum of lp: lp.objective, then each tie.

    Every tie is minimized over the optimal face of the objectives
    before it, all on one tableau, so phase one runs once.  With a
    system, lp must have its rows, rhs, senses and nonneg (else
    SystemMismatch), and only phase two runs, on a copy of its feasible
    tableau.  value is the first objective's.  Optimal duals are
    reported for a plain solve only: no ties and no system.  price lists
    objectives whose reduced costs at the final basis an optimal result
    reports in LpResult.reduced; the default prices nothing.
    """
    global _solve_calls
    _solve_calls += 1
    ties = tuple(ties)
    price = tuple(price)
    for objective in ties + price:
        if len(objective) != lp.num_vars:
            raise DimensionMismatch("tie or priced objective length differs")
    tab = _feasible_tableau(lp) if system is None else system.tableau_for(lp)
    if tab is None:
        return LpResult(LpStatus.INFEASIBLE)
    if price and len(tab.basis) + len(tab.nonbasic) < tab.num_cols:
        raise SystemMismatch("a face keeps no label off the face to price")
    value = tab.phase_two((lp.objective,) + ties)
    if value is None:
        return LpResult(LpStatus.UNBOUNDED)
    plain = not ties and system is None
    return LpResult(
        LpStatus.OPTIMAL,
        tab.solution(),
        value,
        tab.duals() if plain else None,
        tab.reduced_costs(price) if price else None,
    )


def solve_lex_lp(
    lp: LinearProgram, ties, system: FeasibleSystem | None = None, price=()
) -> LpResult:
    """Lexicographic minimum: lp.objective first, then each tie in order.

    One solve_lp call on one tableau (a copy of system's, when given):
    each tie is minimized over the optimal face of the stages before it.
    The result is an optimum of the first objective that is
    lexicographically minimal for the ties.  The returned value is the
    first objective's; duals are computed only when ties is empty and no
    system is given, and reduced costs only for the objectives in price.
    """
    return solve_lp(lp, ties, system, price)
