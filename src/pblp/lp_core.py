"""Exact rational linear programming.

A small two-phase primal simplex on a fraction-free integer dictionary
(Chvatal, Linear Programming, 1983): each basic variable keeps one row
over the nonbasic columns only.  Each row is scaled to integers once;
from then on the rows are Python ints over one positive common
denominator det, and every pivot is the integer-preserving update of
Bareiss (Math. Comp. 1968) and Edmonds (J. Res. NBS 1967), whose
division by the previous pivot is exact, run on the dictionary as in
Avis's lrs (2000).  The dictionary also keeps the reduced-cost row of
the objective being minimized, det times the true one: a simplex run
builds it once from its integer cost row, and every pivot updates it by
the same integer step as the rows.  It is the objective row of the
bordered integer system [[1, c], [0, A]], so Sylvester's identity makes
its divisions exact too.  Pricing, the ratio test and the face bans
read only signs of integer expressions and take the decisions a
Fraction tableau would take.  A cost row is scaled to integers once per
stage; callers that reuse an objective pass it as ints, which need no
scaling.  An optimal vertex leaves the dictionary as it is held there,
ints over det, and the optimal value as a reduced pair of ints;
Fractions are built only for a caller that reads LpResult.x or
LpResult.value.  Every number stays exact.  Bland's rule, immune to
cycling, chooses the entering column, except on a value-only system
(below).  Lexicographic ties are solved on the same dictionary after
phase two: each stage bans the columns whose positive reduced cost
takes them off the previous stage's optimal face (Ehrgott,
Multicriteria Optimization, 2005), so one dictionary and one phase one
serve every stage; once every nonbasic column is banned the face is the
current vertex and the stages stop.

Rows keep the sense they are given in.  Phase one starts a row on its
own slack when that slack reads +1 once the right side is made
nonnegative (a <= row with rhs >= 0, a >= row with rhs < 0) and on an
artificial otherwise, so rows that z = 0 satisfies, written in <= form,
need no artificial.  The rank reduction eliminates over the equality
rows only: an inequality row is the one row with a nonzero in its slack
column, so it never depends on the others.

Phase one never reads the objective, and every LP runs one way.  A
FeasibleSystem runs the standard-form set-up, the rank reduction and
phase one once for a set of constraints and keeps the feasible
dictionary; solve_lp checks that an LP has the system's constraints
and starts phase two from a copy of it (the reuse across weights of
Przybylski, Gandibleux and Ehrgott, INFORMS J. Comput. 2010).  A plain
solve_lp(lp) builds FeasibleSystem(lp) for itself, so a solve on a
shared system takes a plain solve's pivot path and ends on its optimal
vertex.  A system counts the solves run on it and on its faces
(FeasibleSystem.solves); no count lives at module level.
FeasibleSystem.face(f) runs phase two of f on a copy and drops the
nonbasic columns whose positive reduced cost holds them at zero on f's
optimal face, so LPs on the face run on a narrower dictionary with no
new row and no phase one.  On a face the optimal value is a plain
solve's with the row f.x = min f appended; the optimal vertex may
differ.

A value-only system, FeasibleSystem(lp, value_only=True), and its faces
price by Dantzig's rule (Linear Programming and Extensions, 1963), with
Bland's (Math. Oper. Res. 1977) as the anti-cycling fallback, and
report optimal values only: at any optimal basis the columns of
positive reduced cost cut out the same optimal face, so faces and
values do not depend on the pivot path, but the final basis does.

_Tableau._exchange, the Bareiss step, is the package's one exact
elimination: a simplex pivot takes it with a label swap around it, and
_row_reduce runs it as Gauss-Jordan elimination for the tableau's rank
reduction and the duals.  Rows and objectives reach the integers
through numerics.integer_row, which raises NotRational on an entry that
is no int or Fraction.

Optimal duals are solved exactly from the final basis of a plain solve
only: one with no ties whose caller gave no FeasibleSystem.  Reduced
costs at the final basis are reported for the objectives a caller asks
to price, int rows over one common positive scale, so that the weights
for which that basis stays optimal form an integer cone (Ehrgott,
Multicriteria Optimization, 2005, ch. 7).

Every variable is nonnegative.  Sign conventions for duals of
min c.x  s.t. rows (sense) rhs, x >= 0:

    >= rows get dual >= 0,  <= rows get dual <= 0,  = rows are free,
    and dual . rhs == optimal value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, prod

from .errors import DimensionMismatch, InvariantViolation, NotRational, SystemMismatch
from .numerics import integer_row

__all__ = [
    "Sense",
    "LpStatus",
    "LinearProgram",
    "LpResult",
    "FeasibleSystem",
    "solve_lp",
    "solve_lex_lp",
]

_DEGENERATE_RUN = 50  # degenerate pivots in a row that end Dantzig's rule


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
    """Outcome of a solve; vertex and value are set when status is
    OPTIMAL, vertex only for a system that is not value-only (see
    FeasibleSystem).

    vertex is the optimal vertex as the tableau holds it, in integers:
    (numerators, den), den > 0 the final det, variable j is
    numerators[j] / den.  x is its Fraction view, built on each read.
    int_value is the optimal value the same way, (numerator, den)
    reduced by their gcd, den > 0, so equal values are equal pairs;
    value is its Fraction view.

    dual holds one optimal dual per original row for a plain solve (no
    ties, no FeasibleSystem given) and is None otherwise.

    reduced is set by an optimal solve that was asked to price objectives
    (see solve_lp) and is None otherwise.  It holds one integer tuple per
    nonbasic standard-form column, slack columns included, in column
    order, whose tuple is not all zero: objective k's reduced cost
    there, every objective over one common positive scale.  So for
    weights a the final basis is optimal for sum_k a_k objective_k
    exactly when no sum_k a_k r_k is negative.
    """

    status: LpStatus
    vertex: tuple[tuple[int, ...], int] | None = None
    int_value: tuple[int, int] | None = None
    dual: tuple[Fraction, ...] | None = None
    reduced: tuple[tuple[int, ...], ...] | None = None

    @property
    def x(self) -> tuple[Fraction, ...] | None:
        if self.vertex is None:
            return None
        numerators, den = self.vertex
        return tuple(Fraction(a, den) for a in numerators)

    @property
    def value(self) -> Fraction | None:
        if self.int_value is None:
            return None
        return Fraction(*self.int_value)


def _pivoted(
    row: list[int], k: int, prow: list[int], p: int, det: int, sign: int
) -> list[int]:
    """row after an exchange on entry k of prow, p = |prow[k]| (see
    _Tableau._exchange): (row * p - row[k] * prow) / det, exact by
    Sylvester's identity since each entry stays a minor of the starting
    integer system; slot k passes to the leaving label, at -sign *
    row[k].  A row with row[k] = 0 is only rescaled, unchanged if p = det."""
    f = row[k]
    if f:
        row = [(a * p - f * q) // det for a, q in zip(row, prow)]
        row[k] = -sign * f
    elif p != det:
        row = [a * p // det for a in row]
    return row


class _Tableau:
    """Standard-form system  A z = b, z >= 0  as a dictionary over a basis.

    A label is a standard-form column index: the variables, then one
    slack per inequality row, then phase one's artificials.  basis holds
    the basic label of each row and nonbasic the label in each slot, in
    no set order (see _pivot); each basic label keeps one row over the
    slots only, its row of B^-1 A, since every basic column is a unit
    vector, with its right side as the last entry, as in lrs.
    Fraction-free: rows hold ints over one positive common denominator
    det, so the true dictionary and right side are rows/det.  d is the
    kept reduced-cost row of the current simplex run's cost, det times
    the true one in each slot (see _reduced_row), or None outside a
    run's reach: a new tableau or a copy has none.  Until phase one
    installs a basis, every label < num_cols is nonbasic.  A face (see
    FeasibleSystem.face) drops nonbasic labels.  dantzig selects the
    pivot rule (see _simplex).
    """

    def __init__(self, lp: LinearProgram, dantzig: bool = False):
        self.dantzig = dantzig
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
        self.slack_col = slack_col

        # Each standard-form row [A | b], its slack +1 in a <= row and -1
        # in a >= row, is scaled to integers by the lcm of its
        # denominators, which leaves its rank and its solutions alone.
        scaled = []
        for row, b, sense, col in zip(lp.rows, lp.rhs, lp.senses, slack_col):
            unit = [0] * (cols - lp.num_vars)
            if col is not None:
                unit[col - lp.num_vars] = 1 if sense is Sense.LE else -1
            scaled.append(integer_row([*row, *unit, b]))
        # Simplex basis bookkeeping (and dual recovery from the basis)
        # needs full row rank.  Dependent rows are dropped before any
        # pivoting and get dual zero; a dependent row whose right side
        # disagrees proves infeasibility.  Only equality rows can be
        # dependent: an inequality row alone is nonzero in its slack
        # column, so it is independent of every other row, and no
        # equality row depends on it.  Eliminating the equality rows
        # (they are zero in every slack column) so keeps exactly the rows
        # a pass over all rows keeps.
        eq_rows = [i for i, col in enumerate(slack_col) if col is None]
        _, _, pivots, consistent = _row_reduce([scaled[i][0] for i in eq_rows])
        self.infeasible_by_rank = not consistent
        kept_eq = {i for i, col in zip(eq_rows, pivots) if col is not None}
        self.orig_row = [  # index into lp.rows, for duals
            i for i, col in enumerate(slack_col) if col is not None or i in kept_eq
        ]
        # The product of the kept rows' scales, not their lcm, is the
        # determinant of the starting basis in the integer system, and
        # only with it are the Bareiss divisions in _exchange exact.  Each
        # row is brought to det and negated where its right side is
        # negative, so that every right side is >= 0; row_factor is the
        # factor from original to integer row, det times that sign.
        # start_rows, B for the duals, is rows itself: phase one's first
        # _drop builds new rows before any pivot.
        kept = [scaled[i] for i in self.orig_row]
        self.det = prod(scale for _, scale in kept)
        self.row_factor = [self.det if row[-1] >= 0 else -self.det for row, _ in kept]
        self.start_rows = self.rows = [
            [a * up for a in row]
            for (row, scale), factor in zip(kept, self.row_factor)
            for up in (factor // scale,)
        ]
        self.basis: list[int] = []
        self.nonbasic = list(range(cols))
        self.d: list[int] | None = None

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r: int, col: int):
        """A simplex pivot: label col enters in row r, basis[r] leaves
        and takes col's slot, and _exchange updates the numbers."""
        k = self.nonbasic.index(col)
        self.nonbasic[k] = self.basis[r]
        self._exchange(r, k)
        self.basis[r] = col

    def _exchange(self, r: int, k: int):
        """Bareiss's integer-preserving exchange (Bareiss 1968, Edmonds
        1967) of row r's basic column with slot k's, on the numbers only.

        With p the pivot entry, every other row, right side included,
        and the kept row d become (row * p - row[k] * pivot row) / det
        and det becomes p (see _pivoted); d, which has no right side,
        stops where it does.  A negative p flips the sign of row r, so
        det stays positive.  Slot k passes to the leaving column.  It
        was det times a unit vector, so its new entries follow without
        arithmetic: -row[k] in every other row and det in row r, both
        negated when p < 0.
        """
        rows, det = self.rows, self.det
        prow = rows[r]
        p, sign = prow[k], 1
        if p < 0:
            p, sign = -p, -1
            prow = rows[r] = [-a for a in prow]
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = _pivoted(row, k, prow, p, det, sign)
        if self.d is not None:
            self.d = _pivoted(self.d, k, prow, p, det, sign)
        prow[k] = sign * det
        self.det = p

    def _reduced_row(self, cost: list[int]) -> list[int]:
        """det times the reduced cost of the label in each slot:
        cost[j] * det - sum_i cost[basis_i] * rows[i][k] for
        j = nonbasic[k].

        cost is integer (see _column_cost) and det positive, so each
        entry has the sign of the true reduced cost, which is all that
        pricing reads.
        """
        det = self.det
        d = [cost[j] * det for j in self.nonbasic]
        for col, row in zip(self.basis, self.rows):
            c = cost[col]
            if c:
                d = [a - c * q for a, q in zip(d, row)]
        return d

    def _simplex(self, cost: list[int], banned: set[int]) -> LpStatus:
        """Minimize cost.z; banned labels never enter.

        The kept row d is built here once and updated by each pivot, so
        pricing reads it: of the labels of negative d, the one of least
        key enters, and keys read labels, not slots.  Bland's key is the
        label; with dantzig set it is (d, label), every d over one det,
        until _DEGENERATE_RUN degenerate pivots in a row hand the rest of
        the run to Bland's key, which cannot cycle.
        """
        rows, basis, nonbasic = self.rows, self.basis, self.nonbasic
        self.d = self._reduced_row(cost)
        bland, stalled = not self.dantzig, 0
        while True:
            k = best = -1
            for slot, reduced in enumerate(self.d):
                if reduced < 0:
                    j = nonbasic[slot]
                    if j not in banned:
                        key = j if bland else (reduced, j)
                        if k < 0 or key < best:
                            k, best = slot, key
            if k < 0:
                return LpStatus.OPTIMAL
            # Minimum ratio of right side to a over a > 0, compared
            # cross-multiplied.
            leaving = -1
            best_b = best_a = 0
            for i, row in enumerate(rows):
                a = row[k]
                if a > 0:
                    lhs, rhs = row[-1] * best_a, best_b * a
                    if (
                        leaving < 0
                        or lhs < rhs
                        or (lhs == rhs and basis[i] < basis[leaving])
                    ):
                        best_b, best_a = row[-1], a
                        leaving = i
            if leaving < 0:
                return LpStatus.UNBOUNDED
            stalled = stalled + 1 if best_b == 0 else 0
            bland = bland or stalled >= _DEGENERATE_RUN
            self._pivot(leaving, nonbasic[k])

    def _ban_optimal_face(self, banned: set[int]) -> bool:
        """Confine later stages to the optimal face of the cost of the
        _simplex run just ended, whose kept row d this reads; False when
        no label is left free, so the face is the current vertex.

        At an optimal basis cost.z equals the optimum plus the sum of
        reduced cost times z_j over nonbasic labels, every reduced cost
        nonnegative.  So the optimal face is exactly where each nonbasic
        label of positive reduced cost is zero; banning those labels
        keeps every later pivot on that face.
        """
        free = False
        for j, reduced in zip(self.nonbasic, self.d):
            if j not in banned:
                if reduced > 0:
                    banned.add(j)
                elif reduced == 0:
                    free = True
        return free

    def _drop(self, labels):
        """Remove the nonbasic labels in labels, entries and all; each
        row's right side stays last."""
        keep = [k for k, j in enumerate(self.nonbasic) if j not in labels]
        self.nonbasic = [self.nonbasic[k] for k in keep]
        if self.d is not None:
            self.d = [self.d[k] for k in keep]
        keep.append(-1)
        self.rows = [[row[k] for k in keep] for row in self.rows]

    # -- phases -----------------------------------------------------------

    def phase_one(self) -> bool:
        """Install a feasible basis.  Returns False when infeasible.

        Each row starts on its slack where that slack column is already
        det times a unit vector, and on an artificial, the next label
        from num_cols on, everywhere else.  The sum of the artificials is
        minimized, and those left basic at zero are driven out with that
        cost's kept row dropped, since no later stage reads it; a
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
        self.d = None
        if any(r[-1] for col, r in zip(self.basis, self.rows) if col >= self.num_cols):
            return False
        for i, row in enumerate(self.rows):
            if self.basis[i] < self.num_cols:
                continue
            pivot_col = min(
                (j for j, a in zip(self.nonbasic, row) if a and j < self.num_cols),
                default=None,
            )
            if pivot_col is None:
                raise InvariantViolation("an artificial row has no pivot column")
            self._pivot(i, pivot_col)
        self._drop(range(self.num_cols, width))
        return True

    def _column_cost(self, objective) -> tuple[list[int], int]:
        """objective as costs per label < num_cols, scaled to integers by
        the lcm of its denominators, and that scale.  Pricing reads only
        signs, which a positive scale keeps; an int objective comes back
        at scale 1, unchanged."""
        values, scale = integer_row(objective)
        return list(values) + [0] * (self.num_cols - len(values)), scale

    def _value(self, cost: list[int], scale: int) -> tuple[int, int]:
        """The objective cost / scale at the current vertex, as
        (numerator, den) reduced by their gcd, den > 0."""
        total = sum(cost[col] * row[-1] for col, row in zip(self.basis, self.rows))
        den = self.det * scale
        common = gcd(total, den)
        return total // common, den // common

    def reduced_costs(self, objectives) -> tuple[tuple[int, ...], ...]:
        """LpResult.reduced at this basis for objectives, int rows over
        one common positive scale L, in label order: _reduced_row gives
        each over det * L.  Nothing is banned: every nonbasic label,
        slack or structural, bounds the cone.  Raises NotRational on an
        entry that is no int.
        """
        priced = []
        for objective in objectives:
            if any(type(v) is not int for v in objective):
                raise NotRational("priced objectives must be int rows")
            pad = [0] * (self.num_cols - len(objective))
            priced.append(self._reduced_row([*objective, *pad]))
        by_label = sorted(zip(self.nonbasic, zip(*priced)))
        return tuple(entry for _, entry in by_label if any(entry))

    def phase_two(self, objectives) -> tuple[int, int] | None:
        """Lexicographic minimum of objectives in order, on this tableau:
        the first objective's optimal value as _value gives it, or None
        when a stage is unbounded.

        Each stage runs from the previous stage's optimal basis with the
        labels that leave its optimal face banned, so phase one runs
        once however many ties follow.  Once every nonbasic label is
        banned the face is the current vertex, which no later stage
        could leave, so the stages stop.
        """
        banned: set[int] = set()
        value = None
        for objective in objectives:
            if value is not None and not self._ban_optimal_face(banned):
                break
            cost, scale = self._column_cost(objective)
            if self._simplex(cost, banned) is LpStatus.UNBOUNDED:
                return None
            if value is None:
                value = self._value(cost, scale)
        return value

    def copy(self) -> "_Tableau":
        """An independent twin of this feasible tableau, for phase two of
        another LP over the same system.

        Pivots write rows, basis and nonbasic in place, so those three
        are copied; det is an int, rebound by each pivot, the row
        bookkeeping of the duals and the pivot rule are shared, and the
        twin starts with no kept row.  What only phase one reads stays
        behind.
        """
        twin = _Tableau.__new__(_Tableau)
        twin.num_cols, twin.start_rows = self.num_cols, self.start_rows
        twin.dantzig = self.dantzig
        twin.row_factor, twin.orig_row = self.row_factor, self.orig_row
        twin.rows = [row[:] for row in self.rows]
        twin.det, twin.d = self.det, None
        twin.basis, twin.nonbasic = self.basis[:], self.nonbasic[:]
        return twin

    # -- extraction -------------------------------------------------------

    def vertex(self, n: int) -> tuple[tuple[int, ...], int]:
        """The current vertex's first n labels, the LP's variables, as
        (numerators, det): label j is numerators[j] / det."""
        x = [0] * n
        for col, row in zip(self.basis, self.rows):
            if col < n:
                x[col] = row[-1]
        return tuple(x), self.det

    def duals(self, lp: LinearProgram) -> tuple[Fraction, ...]:
        """Dual of each row of lp from B^T y = c_B on the final basis,
        solved by _row_reduce.

        B is read off start_rows, the kept integer rows as built before
        any pivot, and c is lp's objective times the lcm of its
        denominators, so y_i times row_factor[i] over that lcm is the
        dual of original row orig_row[i].  Dropped rows get dual zero.
        """
        cost, scale = self._column_cost(lp.objective)
        rows, det, pivots, _ = _row_reduce(
            [[row[col] for row in self.start_rows] + [cost[col]] for col in self.basis]
        )
        if None in pivots:
            raise InvariantViolation("final simplex basis is singular")
        duals = [Fraction(0)] * len(lp.rows)
        for row, k in zip(rows, pivots):  # y_k = row[-1] / det
            factor = self.row_factor[k]
            duals[self.orig_row[k]] = Fraction(row[-1] * factor, det * scale)
        return tuple(duals)


def _row_reduce(rows: list[list[int]]):
    """Gauss-Jordan elimination of integer rows [A | b] by _exchange:
    (rows, det, pivots, consistent).

    On a bare tableau, the rows at det 1 with A's columns in the slots,
    each row in order is exchanged on the first slot still nonzero in it
    that no earlier row took, and that slot, which now holds the column
    that left, is retired.  A row with no such slot depends on the rows
    before it and is dropped: pivots holds None for it, consistent turns
    False if it reads 0 = nonzero, and later exchanges only rescale it.
    So the kept rows are the greedy independent set in row order.  Column
    pivots[i] of A is basic in kept row i, so a square A that keeps every
    row solves A x = b as x[pivots[i]] = rows[i][-1] / det.
    """
    tab = _Tableau.__new__(_Tableau)
    tab.rows, tab.det, tab.d = [row[:] for row in rows], 1, None
    free = list(range(len(rows[0]) - 1)) if rows else []
    pivots: list[int | None] = []
    consistent = True
    for r in range(len(rows)):
        row = tab.rows[r]  # as the exchanges so far left it
        k = next((j for j in free if row[j]), None)
        if k is None:
            consistent = consistent and row[-1] == 0
        else:
            free.remove(k)
            tab._exchange(r, k)
        pivots.append(k)
    return tab.rows, tab.det, pivots, consistent


class FeasibleSystem:
    """The constraints of an LP, taken through phase one once.

    Built from lp, any LP over the system; its objective plays no part.
    Holds the feasible tableau, or None when the system is infeasible.
    Every solve runs on one: solve_lp and solve_lex_lp accept it for any
    LP with the same rows, rhs, senses and nonneg and run only phase two
    on a copy, and a plain solve builds its own.  Nothing is cached
    beyond the object, so it lives as long as its caller keeps it.  No
    solve on a system the caller gives reports duals.  A value_only
    system and its faces pivot by Dantzig's rule (see _Tableau._simplex):
    an optimal result on one has vertex, dual and reduced None, and
    price raises SystemMismatch.
    """

    def __init__(self, lp: LinearProgram, value_only: bool = False):
        self.lp, self.value_only, self._solves = lp, value_only, [0]
        tab = _Tableau(lp, dantzig=value_only)
        self._tableau = None if tab.infeasible_by_rank or not tab.phase_one() else tab

    @property
    def solves(self) -> int:
        """solve_lp calls accepted on this system and its faces, which
        share one count: one per call, infeasible or not; face counts none."""
        return self._solves[0]

    def face(self, objective) -> tuple[Fraction | None, "FeasibleSystem | None"]:
        """(value, face): the minimum of objective over this system and
        the system on its optimal face, both None when the system is
        empty or objective is unbounded below.  Phase two runs once, on
        a copy of the tableau held here; it is not counted as a solve.

        At the optimal basis each nonbasic label of positive reduced
        cost is zero on the whole face (see _Tableau._ban_optimal_face),
        so the face drops it; the kept row of the minimization tells
        which.  Pricing and the ratio test's ties read labels, not slots,
        so they take the pivots of a full tableau with the dropped labels
        banned; no row is added and det stays.  The face keeps lp and
        value_only, so the same LPs are accepted on it, on another pivot
        path than a plain solve's: one may end on another optimal vertex
        of the same value.  A face that drops a label prices nothing.
        """
        if len(objective) != self.lp.num_vars:
            raise DimensionMismatch("face objective length differs")
        tab = self._tableau and self._tableau.copy()
        value = tab and tab.phase_two((objective,))
        if value is None:
            return None, None
        off: set[int] = set()
        tab._ban_optimal_face(off)
        tab._drop(off)
        twin = object.__new__(type(self))
        twin.lp, twin._tableau, twin.value_only = self.lp, tab, self.value_only
        twin._solves = self._solves  # a face counts on its system
        return Fraction(*value), twin


def solve_lp(
    lp: LinearProgram,
    ties=(),
    system: FeasibleSystem | None = None,
    price=(),
) -> LpResult:
    """Exact lexicographic minimum of lp: lp.objective, then each tie.

    Every tie is minimized over the optimal face of the objectives
    before it, all in one phase two on a copy of the feasible tableau of
    system, or of FeasibleSystem(lp) when none is given.  lp must have
    system's rows, rhs, senses and nonneg (else SystemMismatch).  value
    is the first objective's.  Optimal duals are reported for a plain
    solve only: no ties and no system given.  price lists objectives,
    int rows over one common scale, whose reduced costs at the final
    basis an optimal result reports in LpResult.reduced; the default
    prices nothing.  On a value-only system an optimal result holds the
    value alone, and price raises SystemMismatch.
    """
    ties = tuple(ties)
    price = tuple(price)
    for objective in ties + price:
        if len(objective) != lp.num_vars:
            raise DimensionMismatch("tie or priced objective length differs")
    plain = system is None
    if plain:
        system = FeasibleSystem(lp)
    elif (lp.rows, lp.rhs, lp.senses, lp.nonneg) != (
        system.lp.rows, system.lp.rhs, system.lp.senses, system.lp.nonneg
    ):
        raise SystemMismatch("LP constraints differ from the feasible system's")
    system._solves[0] += 1
    if price and system.value_only:
        raise SystemMismatch("a value-only system's basis depends on the pivot path")
    if system._tableau is None:
        return LpResult(LpStatus.INFEASIBLE)
    tab = system._tableau.copy()
    if price and len(tab.basis) + len(tab.nonbasic) < tab.num_cols:
        raise SystemMismatch("a face keeps no label off the face to price")
    value = tab.phase_two((lp.objective,) + ties)
    if value is None:
        return LpResult(LpStatus.UNBOUNDED)
    if system.value_only:
        return LpResult(LpStatus.OPTIMAL, int_value=value)
    return LpResult(
        LpStatus.OPTIMAL,
        tab.vertex(lp.num_vars),
        value,
        tab.duals(lp) if plain and not ties else None,
        tab.reduced_costs(price) if price else None,
    )


def solve_lex_lp(
    lp: LinearProgram, ties, system: FeasibleSystem | None = None, price=()
) -> LpResult:
    """Lexicographic minimum: lp.objective first, then each tie in order.

    One solve_lp call on one tableau (a copy of system's feasible one):
    each tie is minimized over the optimal face of the stages before it.
    The result is an optimum of the first objective that is
    lexicographically minimal for the ties.  The returned value is the
    first objective's; duals are computed only when ties is empty and no
    system is given, and reduced costs only for the objectives in price.
    """
    return solve_lp(lp, ties, system, price)
