"""Exact two-phase simplex: optima, duals, degeneracy, determinism."""

import random
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from pblp import (
    Case,
    FeasibleSystem,
    LinearProgram,
    LpStatus,
    Method,
    Sense,
    enumerate_breakpoints,
    solve_lex_lp,
    solve_lp,
)
from pblp import lp_core
from pblp.errors import DimensionMismatch, NotRational, SystemMismatch
from pblp.numerics import integer_row
from conftest import _satisfies, build_lp, reference_phase_two, vertices_and_rays
from instance_gen import degenerate_pblp


def test_minimum_on_a_triangle():
    # min -x - y  over  x + y <= 4, x <= 3, x,y >= 0
    lp = build_lp([-1, -1], [[1, 1], [1, 0]], [4, 3], ["<=", "<="])
    res = solve_lp(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == -4
    assert sum(res.x) == 4


def test_reports_infeasible():
    lp = build_lp([1], [[1], [1]], [2, 1], [">=", "<="])
    assert solve_lp(lp).status is LpStatus.INFEASIBLE


def test_reports_unbounded():
    lp = build_lp([-1, 0], [[0, 1]], [1], ["<="])
    assert solve_lp(lp).status is LpStatus.UNBOUNDED


def test_equality_rows_and_exact_rationals():
    # min x + y  over  2x + 3y = 1, x,y >= 0
    lp = build_lp([1, 1], [[2, 3]], [1], ["="])
    res = solve_lp(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == Fraction(1, 3)
    assert res.x == (Fraction(0), Fraction(1, 3))


def test_duplicate_row_is_tolerated():
    lp = build_lp(
        [-1, -1], [[1, 1], [1, 1], [1, 0]], [4, 4, 3], ["<=", "<=", "<="]
    )
    res = solve_lp(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == -4
    assert sum(d * b for d, b in zip(res.dual, lp.rhs)) == res.value


def test_contradictory_dependent_rows_are_infeasible():
    lp = build_lp([0, 0], [[1, 1], [1, 1]], [1, 2], ["=", "="])
    assert solve_lp(lp).status is LpStatus.INFEASIBLE


def _beale():
    """Beale's degenerate example, of optimal value -1/20."""
    return build_lp(
        [Fraction(-3, 4), 150, Fraction(-1, 50), 6],
        [
            [Fraction(1, 4), -60, Fraction(-1, 25), 9],
            [Fraction(1, 2), -90, Fraction(-1, 50), 3],
            [0, 0, 1, 0],
        ],
        [0, 0, 1],
        ["<=", "<=", "<="],
    )


def test_blands_rule_finishes_a_classic_cycling_instance():
    """Beale's degenerate example loops forever under naive most-negative
    pivoting; Bland's rule must terminate at value -1/20."""
    lp = _beale()
    res = solve_lp(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == Fraction(-1, 20)
    # cross-check against vertex enumeration on a boxed copy that keeps
    # the same optimum reachable
    rows = list(lp.rows) + [
        tuple(Fraction(1 if j == i else 0) for j in range(4)) for i in range(4)
    ]
    rhs = list(lp.rhs) + [Fraction(1000)] * 4
    senses = list(lp.senses) + [Sense.LE] * 4
    verts = vertices_and_rays(tuple(rows), tuple(rhs), tuple(senses), 4)
    assert verts.rays == ()
    best = min(
        sum(c * v for c, v in zip(lp.objective, x)) for x in verts.vertices
    )
    assert best == Fraction(-1, 20)


def test_dual_signs_follow_row_senses():
    # one binding GE row, one binding LE row, one slack row
    lp = build_lp(
        [1, 1], [[1, 1], [1, -1], [1, 0]], [2, 0, 5], [">=", "<=", "<="]
    )
    res = solve_lp(lp)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == 2
    ge_dual, le_dual, slack_dual = res.dual
    assert ge_dual >= 0
    assert le_dual <= 0
    assert slack_dual == 0
    assert sum(d * b for d, b in zip(res.dual, lp.rhs)) == res.value


def _random_bounded_lp(rng):
    n = rng.randint(1, 4)
    rows = [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(rng.randint(1, 3))]
    rhs = [Fraction(rng.randint(-6, 6)) for _ in rows]
    senses = [rng.choice(["<=", ">=", "="]) for _ in rows]
    rows.append([Fraction(1)] * n)
    rhs.append(Fraction(rng.randint(3, 8)))
    senses.append("<=")
    obj = [Fraction(rng.randint(-6, 6)) for _ in range(n)]
    return build_lp(obj, rows, rhs, senses)


def test_random_lps_match_vertex_minima_and_duality():
    """Seeded batch: simplex value equals the brute-force vertex minimum
    and the dual certificate prices the rhs exactly."""
    rng = random.Random(7)
    solved = 0
    while solved < 60:
        lp = _random_bounded_lp(rng)
        res = solve_lp(lp)
        if res.status is not LpStatus.OPTIMAL:
            continue
        solved += 1
        verts = vertices_and_rays(lp.rows, lp.rhs, lp.senses, lp.num_vars)
        assert verts.rays == ()
        best = min(
            sum(c * v for c, v in zip(lp.objective, x)) for x in verts.vertices
        )
        assert res.value == best
        assert sum(d * b for d, b in zip(res.dual, lp.rhs)) == res.value
        # complementary slackness: a priced row must be tight
        for drow, dval, b in zip(lp.rows, res.dual, lp.rhs):
            if dval != 0:
                assert sum(a * v for a, v in zip(drow, res.x)) == b


def test_lex_solve_breaks_ties_with_later_objectives():
    # every point of x + y <= 1 ties on the zero objective; the tie row
    # -x then selects the corner (1, 0)
    lp = build_lp([0, 0], [[1, 1]], [1], ["<="])
    res = solve_lex_lp(lp, ties=[(Fraction(-1), Fraction(0))])
    assert res.status is LpStatus.OPTIMAL
    assert res.x == (Fraction(1), Fraction(0))
    assert res.value == 0  # value reports the first objective


def test_lex_solve_pins_the_first_optimum_before_the_next():
    # square [0,1]^2: min x fixes the edge x = 0, then min -y picks (0, 1)
    lp = build_lp([1, 0], [[1, 0], [0, 1]], [1, 1], ["<=", "<="])
    res = solve_lex_lp(lp, ties=[(Fraction(0), Fraction(-1))])
    assert res.x == (Fraction(0), Fraction(1))


def _pinned_lex(lp, ties):
    """Reference lexicographic solve: one fresh LP per stage, each earlier
    objective pinned to its optimum by an equality row."""
    rows, rhs, senses = list(lp.rows), list(lp.rhs), list(lp.senses)
    objective = lp.objective
    res = solve_lp(lp)
    for tie in ties:
        if res.status is not LpStatus.OPTIMAL:
            break
        rows.append(objective)
        rhs.append(res.value)
        senses.append(Sense.EQ)
        objective = tuple(Fraction(c) for c in tie)
        res = solve_lp(
            LinearProgram(objective, tuple(rows), tuple(rhs), tuple(senses), lp.nonneg)
        )
    return res


def _stage_values(lp, ties, x):
    return [sum(c * v for c, v in zip(obj, x)) for obj in (lp.objective, *ties)]


def _random_lex_case(rng):
    """Small coefficients and many zeros, so optimal faces are often
    edges or whole facets and ties have real work to do."""
    n = rng.randint(1, 4)

    def vec():
        return [rng.choice((0, 0, 0, 1, -1, 2, -2, 3)) for _ in range(n)]

    m = rng.randint(0, 3)
    rows = [vec() for _ in range(m)]
    rhs = [rng.randint(-3, 4) for _ in range(m)]
    senses = [rng.choice(["<=", ">=", "="]) for _ in range(m)]
    if rng.random() < 0.5:  # often bounded: cap the nonnegative orthant
        rows.append([1] * n)
        rhs.append(rng.randint(1, 5))
        senses.append("<=")
    lp = build_lp(vec(), rows, rhs, senses)
    ties = [tuple(Fraction(c) for c in vec()) for _ in range(rng.randint(1, 3))]
    return lp, ties


def test_lex_solve_matches_stage_by_stage_pinning():
    """Seeded oracle: one-tableau lexicographic solves agree with pinning
    each stage's optimum as an equality row, in status and in the value
    of every objective in order."""
    rng = random.Random(2005)
    known = [
        # rowless: ties act on the orthant
        (build_lp([1, 0], [], [], []), [(0, 0), (-1, 0)], LpStatus.OPTIMAL),
        (build_lp([0, 1], [], [], []), [(1, 0), (0, -1)], LpStatus.OPTIMAL),
        (build_lp([0, 0], [], [], []), [(0, -1)], LpStatus.UNBOUNDED),
        # square [0,1]^2: min x leaves the edge x = 0, -y is bounded there
        (build_lp([1, 0], [[1, 0], [0, 1]], [1, 1], ["<=", "<="]), [(0, -1)],
         LpStatus.OPTIMAL),
        # x + y >= 1: min x leaves the ray x = 0, y >= 1, where -y is unbounded
        (build_lp([1, 0], [[1, 1]], [1], [">="]), [(0, -1)],
         LpStatus.UNBOUNDED),
    ]
    for lp, ties, status in known:
        assert solve_lex_lp(lp, ties).status is status, (lp, ties)
    cases = [_random_lex_case(rng) for _ in range(400)]
    cases += [(lp, ties) for lp, ties, _ in known]
    seen = {"rowless": 0, "face": 0, "unbounded tie": 0}
    for lp, ties in cases:
        got = solve_lex_lp(lp, ties)
        want = _pinned_lex(lp, ties)
        assert got.status is want.status, (lp, ties)
        first = solve_lp(lp)
        if got.status is LpStatus.OPTIMAL:
            assert _stage_values(lp, ties, got.x) == _stage_values(lp, ties, want.x)
            assert got.value == first.value
            assert got.dual is None
            if _stage_values(lp, ties, got.x) != _stage_values(lp, ties, first.x):
                seen["face"] += 1
        seen["rowless"] += not lp.rows
        if first.status is LpStatus.OPTIMAL and got.status is LpStatus.UNBOUNDED:
            seen["unbounded tie"] += 1
    assert all(count >= 5 for count in seen.values()), seen


def _random_system_case(rng):
    """Mixed senses, redundant and contradictory equality pairs, and an
    orthant cap only half the time, so infeasible and
    unbounded objectives both occur; then 3-4 objectives, some with ties.
    Returns the LPs, their tie lists and the set of row kinds added."""
    n = rng.randint(1, 4)
    kinds = set()

    def vec():
        return [rng.choice((0, 0, 1, -1, 2, -2, 3)) for _ in range(n)]

    m = rng.randint(0, 3)
    rows = [vec() for _ in range(m)]
    rhs = [rng.randint(-3, 4) for _ in range(m)]
    senses = [rng.choice(["<=", ">=", "="]) for _ in range(m)]
    if rng.random() < 0.4:  # an equality row and a redundant multiple of it
        row, b = vec(), rng.randint(-2, 3)
        rows += [row, [2 * a for a in row]]
        rhs += [b, 2 * b]
        senses += ["=", "="]
        kinds.add("redundant")
    if rng.random() < 0.1:  # two equality rows that contradict each other
        row = vec()
        rows += [row, row]
        rhs += [1, 2]
        senses += ["=", "="]
        kinds.add("contradictory")
    if rng.random() < 0.5:
        rows.append([1] * n)
        rhs.append(rng.randint(1, 5))
        senses.append("<=")
    lps = [
        build_lp(vec(), rows, rhs, senses) for _ in range(rng.randint(3, 4))
    ]
    ties = [
        [tuple(Fraction(c) for c in vec()) for _ in range(rng.choice((0, 0, 1, 2)))]
        for _ in lps
    ]
    return lps, ties, kinds


def test_solves_on_a_shared_system_match_fresh_solves():
    """Seeded oracle: phase one never reads the objective, so solving on a
    shared FeasibleSystem takes a fresh solve's pivot path and must give
    its status, its x and its value, for every objective and tie list."""
    rng = random.Random(2010)
    seen = {status: 0 for status in LpStatus}
    seen.update(redundant=0, contradictory=0, ties=0)
    for _ in range(300):
        lps, ties, kinds = _random_system_case(rng)
        system = FeasibleSystem(lps[0])
        statuses = set()
        for lp, lp_ties in zip(lps, ties):
            before = system.solves
            got = solve_lp(lp, lp_ties, system=system)
            assert system.solves == before + 1
            want = solve_lp(lp, lp_ties)
            assert got.status is want.status, (lp, lp_ties)
            assert (got.x, got.value) == (want.x, want.value), (lp, lp_ties)
            assert got.dual is None
            statuses.add(got.status)
            seen[got.status] += 1
            seen["ties"] += bool(lp_ties)
        # infeasibility belongs to the system, not to an objective
        assert LpStatus.INFEASIBLE not in statuses or statuses == {LpStatus.INFEASIBLE}
        for kind in kinds:
            seen[kind] += 1
    assert all(count >= 20 for count in seen.values()), seen


def _gauss_jordan(aug):
    """Solve the square system given as rows of [coeffs | rhs]."""
    m = len(aug)
    for col in range(m):
        piv = next(r for r in range(col, m) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [a / aug[col][col] for a in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                aug[r] = [a - aug[r][col] * b for a, b in zip(aug[r], aug[col])]
    return [row[m] for row in aug]


def _fraction_reference(lp, ties, price):
    """Two-phase simplex on a Fraction tableau, normalized after every
    pivot: the textbook form of the engine's algorithm.  It takes the
    same decisions in the same order (column layout, rank reduction,
    phase-one start, Bland's rule, ratio-test ties, stage bans), so the
    engine must reproduce its pivot path exactly.  Returns (status, x,
    value, dual, basis, reduced); basis is None when the rank reduction
    already proves infeasibility, dual is set on optimal plain solves
    only, and reduced on optimal solves: one tuple per nonbasic column,
    in label order, of the reduced costs of the price rows there,
    unless all are zero.
    """
    zero, one = Fraction(0), Fraction(1)
    cols = lp.num_vars
    slack_col = []
    for sense in lp.senses:
        slack_col.append(None if sense is Sense.EQ else cols)
        cols += sense is not Sense.EQ
    n = cols

    def column_cost(objective):
        return [Fraction(c) for c in objective] + [zero] * (n - lp.num_vars)

    std, sign = [], []  # standard-form [row | rhs], sign-flipped to rhs >= 0
    for i, row in enumerate(lp.rows):
        dense = [Fraction(a) for a in row] + [zero] * (n - lp.num_vars)
        if slack_col[i] is not None:
            dense[slack_col[i]] = one if lp.senses[i] is Sense.LE else -one
        sign.append(-1 if lp.rhs[i] < 0 else 1)
        std.append([sign[i] * a for a in dense + [Fraction(lp.rhs[i])]])

    keep, elims, piv_cols = [], [], []
    for i, work in enumerate(std):
        for pc, elim in zip(piv_cols, elims):
            work = [a - work[pc] * e for a, e in zip(work, elim)]
        pc = next((j for j in range(n) if work[j] != 0), None)
        if pc is None:
            if work[-1] != 0:
                return LpStatus.INFEASIBLE, None, None, None, None, None
            continue
        elims.append([a / work[pc] for a in work])
        piv_cols.append(pc)
        keep.append(i)
    tab = [std[i][:] for i in keep]  # [B^-1 A | B^-1 b]
    m = len(tab)

    def pivot(r, col):
        tab[r] = [a / tab[r][col] for a in tab[r]]
        for i in range(m):
            if i != r and tab[i][col] != 0:
                tab[i] = [a - tab[i][col] * p for a, p in zip(tab[i], tab[r])]
        basis[r] = col

    def priced(cost, banned):
        for j in range(len(cost)):
            if j not in banned and j not in basis:
                yield j, cost[j] - sum(cost[c] * tab[i][j] for i, c in enumerate(basis))

    def simplex(cost, banned):
        while True:
            entering = next((j for j, red in priced(cost, banned) if red < 0), None)
            if entering is None:
                return LpStatus.OPTIMAL
            rows = [i for i in range(m) if tab[i][entering] > 0]
            if not rows:
                return LpStatus.UNBOUNDED
            pivot(min(rows, key=lambda i: (tab[i][-1] / tab[i][entering], basis[i])),
                  entering)

    # Phase one.  Each kept row starts on its own slack when that
    # column reads 1 there, else on an artificial.
    basis, arts = [], []
    for i in range(m):
        col = slack_col[keep[i]]
        if col is not None and tab[i][col] == 1:
            basis.append(col)
            continue
        arts.append(n + len(arts))
        for k in range(m):
            tab[k].insert(-1, one if k == i else zero)
        basis.append(arts[-1])
    if arts:
        simplex([zero] * n + [one] * len(arts), set())
        if any(tab[i][-1] != 0 for i in range(m) if basis[i] in arts):
            return LpStatus.INFEASIBLE, None, None, None, basis, None
        for i in range(m):
            if basis[i] in arts:
                pivot(i, next(j for j in range(n) if tab[i][j] != 0))
        for i in range(m):
            tab[i] = tab[i][:n] + tab[i][-1:]

    banned, cost = set(), None
    for objective in (lp.objective, *ties):
        if cost is not None:
            banned.update(j for j, red in priced(cost, banned) if red > 0)
        cost = column_cost(objective)
        if simplex(cost, banned) is LpStatus.UNBOUNDED:
            return LpStatus.UNBOUNDED, None, None, None, basis, None
    z = [zero] * n
    for i, col in enumerate(basis):
        z[col] = tab[i][-1]
    x = tuple(z[: lp.num_vars])
    value = sum((Fraction(c) * v for c, v in zip(lp.objective, x)), zero)
    dual = None
    if not ties:  # B^T y = c_B over the untouched kept rows
        y = _gauss_jordan(
            [[std[keep[i]][col] for i in range(m)] + [cost[col]] for col in basis]
        )
        dual = [zero] * len(lp.rows)
        for i, yi in zip(keep, y):
            dual[i] = sign[i] * yi
        dual = tuple(dual)
    by_row = [dict(priced(column_cost(row), set())) for row in price]
    reduced = tuple(
        entry for j in range(n) if j not in basis
        for entry in [tuple(red[j] for red in by_row)] if any(entry)
    )
    return LpStatus.OPTIMAL, x, value, dual, basis, reduced


def _random_fractional_case(rng):
    """Fractional rows, rhs, costs and ties (denominators 2-7) with many
    zeros, so det > 1 from the start and ties have optimal faces to act
    on; negative rhs, equality rows, redundant and contradictory rows,
    and an orthant cap only half the time."""
    n = rng.randint(1, 4)
    kinds = set()

    def num():
        if rng.random() < 0.35:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(2, 7))

    def vec():
        return [num() for _ in range(n)]

    m = rng.randint(0, 4)
    rows = [vec() for _ in range(m)]
    rhs = [num() for _ in range(m)]
    senses = [rng.choice(["<=", ">=", "="]) for _ in range(m)]
    if rng.random() < 0.3:  # an equality row and a fractional multiple of it
        row, b, k = vec(), num(), Fraction(rng.randint(1, 9), rng.randint(2, 7))
        rows += [row, [k * a for a in row]]
        rhs += [b, k * b]
        senses += ["=", "="]
        kinds.add("redundant")
    if rng.random() < 0.1:  # two rows that contradict each other
        row = vec()
        rows += [row, row]
        rhs += [Fraction(1, 2), Fraction(2, 3)]
        senses += ["=", "="]
        kinds.add("contradictory")
    if rng.random() < 0.5:
        rows.append([Fraction(rng.randint(1, 3), rng.randint(2, 7))] * n)
        rhs.append(Fraction(rng.randint(1, 9), rng.randint(2, 7)))
        senses.append("<=")
    order = list(range(len(rows)))
    rng.shuffle(order)
    lp = build_lp(
        vec(), [rows[i] for i in order], [rhs[i] for i in order],
        [senses[i] for i in order],
    )
    ties = [tuple(vec()) for _ in range(rng.choice((0, 0, 1, 2)))]
    return lp, ties, kinds


def _assert_fraction_free(tab, infeasible=False, face=False):
    """tab is an integer dictionary over a positive det: one int row per
    basic label over its nonbasic labels, which are distinct, in any
    slot order, and disjoint from the basic ones, then its right side.
    Every right side is >= 0: the set-up makes it so, and the ratio test
    keeps it, so once phase one has succeeded the dictionary is primal
    feasible.  Unless phase one found tab infeasible no artificial label
    is left, and unless tab is a face, which drops labels, every label
    < num_cols is basic or nonbasic."""
    assert type(tab.det) is int and tab.det > 0
    assert all(len(row) == len(tab.nonbasic) + 1 for row in tab.rows)
    assert all(type(a) is int for row in tab.rows for a in row)
    assert all(row[-1] >= 0 for row in tab.rows)
    assert len(set(tab.nonbasic)) == len(tab.nonbasic)
    assert not set(tab.basis) & set(tab.nonbasic)
    labels = set(tab.basis) | set(tab.nonbasic)
    if not infeasible:
        assert all(j < tab.num_cols for j in labels)
        if not face:
            assert labels == set(range(tab.num_cols))


def _label_count(tab):
    return len(tab.basis) + len(tab.nonbasic)


def _primitive(reduced):
    """The entries of reduced tuples, in order, over their gcd: tuples
    that differ by one positive common factor come out equal."""
    if reduced is None:
        return None
    flat, _ = integer_row([v for entry in reduced for v in entry])
    common = gcd(*flat) or 1
    return len(reduced), [v // common for v in flat]


def test_integer_tableau_matches_a_fraction_reference():
    """Seeded oracle for the fraction-free tableau: on LPs with
    fractional data it must take the pivot path of a plain Fraction
    tableau, so status, x, value, duals, the final basis and the reduced
    costs of the objective and ties, in label order and up to their
    positive common scale, agree, and every entry stays an int over a
    positive det."""
    rng = random.Random(1968)
    seen = {status: 0 for status in LpStatus}
    seen.update(redundant=0, contradictory=0, ties=0, negative_rhs=0, det=0)
    for _ in range(500):
        lp, ties, kinds = _random_fractional_case(rng)
        price = _over_one_scale((lp.objective, *ties))
        want_status, want_x, want_value, want_dual, want_basis, want_reduced = (
            _fraction_reference(lp, ties, price)
        )
        got = solve_lp(lp, ties, price=price)
        assert (got.status, got.x, got.value) == (want_status, want_x, want_value), (
            lp, ties,
        )
        assert got.dual == want_dual, (lp, ties)
        assert _primitive(got.reduced) == _primitive(want_reduced), (lp, ties)
        tab = lp_core._Tableau(lp)
        _assert_fraction_free(tab)
        seen["det"] += tab.det > 1
        if not tab.infeasible_by_rank:
            feasible = tab.phase_one()
            if feasible:
                tab.phase_two((lp.objective, *ties))
            _assert_fraction_free(tab, infeasible=not feasible)
            assert tab.basis == want_basis, (lp, ties)
        seen[got.status] += 1
        seen["ties"] += bool(ties)
        seen["negative_rhs"] += any(b < 0 for b in lp.rhs)
        for kind in kinds:
            seen[kind] += 1
    assert all(count >= 20 for count in seen.values()), seen


def _weighted_sum_case(rng):
    """A _random_fractional_case system with three fractional objectives
    of unlike denominators, and now and then a duplicated column or a
    zero-cost column, so optimal faces and degenerate cones occur."""
    lp, _, _ = _random_fractional_case(rng)
    n = lp.num_vars

    def cost(den):
        return [
            Fraction(0) if rng.random() < 0.3 else Fraction(rng.randint(-9, 9), den)
            for _ in range(n)
        ]

    costs = [cost(1), cost(rng.randint(2, 4)), cost(rng.randint(5, 9))]
    rows = [list(row) for row in lp.rows]
    kind = rng.choice(("plain", "duplicate", "zero cost"))
    if kind == "duplicate":
        j = rng.randrange(n)
        for row in rows + costs:
            row.append(row[j])
    elif kind == "zero cost":
        for row in rows:
            row.append(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for row in costs:
            row.append(Fraction(0))
    costs = [tuple(row) for row in costs]

    def weighted(w):
        objective = [sum(a * c for a, c in zip(w, column)) for column in zip(*costs)]
        return build_lp(objective, rows, lp.rhs, lp.senses)

    return weighted, costs, kind


def _simplex_weight(rng):
    while True:
        parts = [rng.choice((0, 0, 1, 2, 3, 5, 8)) for _ in range(3)]
        if any(parts):
            return tuple(Fraction(p, sum(parts)) for p in parts)


def _in_cone(reduced, w):
    return all(sum(a * r for a, r in zip(w, entry)) >= 0 for entry in reduced)


def _over_one_scale(rows):
    """rows as int rows, all times the lcm of every denominator, as
    price takes them: each reduced cost is that positive multiple of
    the Fraction row's, so the cone is the same."""
    flat, _ = integer_row([v for row in rows for v in row])
    n = len(rows[0])
    return tuple(tuple(flat[i : i + n]) for i in range(0, len(flat), n))


def test_priced_cone_holds_the_weights_its_basis_solves():
    """solve_lp(..., price=C) reports the reduced costs of C's rows at
    the final basis, C passed as ints over one scale.  On seeded
    weighted-sum LPs w.C, plain and lexicographic on C as
    find_extreme_image solves them, the cone holds
    w itself, and at every simplex weight w' it holds a fresh plain
    solve of w'.C has the value w'.(C x).  Without price, reduced is
    None."""
    rng = random.Random(2005)
    seen = dict(covered=0, uncovered=0, ties=0, duplicate=0, zero_cost=0)
    for _ in range(300):
        weighted, costs, kind = _weighted_sum_case(rng)
        w = _simplex_weight(rng)
        lp = weighted(w)
        ties = costs if rng.random() < 0.5 else ()
        assert solve_lex_lp(lp, ties).reduced is None
        res = solve_lex_lp(lp, ties, price=_over_one_scale(costs))
        if res.status is not LpStatus.OPTIMAL:
            assert res.reduced is None
            continue
        assert all(
            len(entry) == 3 and any(entry) and all(type(r) is int for r in entry)
            for entry in res.reduced
        )
        assert _in_cone(res.reduced, w), (lp, costs)
        image = [sum(c * v for c, v in zip(row, res.x)) for row in costs]
        for _ in range(12):
            other = _simplex_weight(rng)
            if not _in_cone(res.reduced, other):
                seen["uncovered"] += 1
                continue
            seen["covered"] += 1
            fresh = solve_lp(weighted(other))
            assert fresh.status is LpStatus.OPTIMAL, (lp, costs, other)
            assert fresh.value == sum(a * y for a, y in zip(other, image)), (
                lp, costs, other,
            )
        seen["ties"] += bool(ties)
        if kind != "plain":
            seen[kind.replace(" ", "_")] += 1
    assert all(count >= 20 for count in seen.values()), seen


def _lex_equivalence_case(rng):
    """(lp, ties, price, kind): a _random_fractional_case LP with its
    ties, or a degenerate _weighted_sum_case, a weighted sum of its cost
    rows C (now and then the zero weight) lexicographic on C, where
    duplicated and zero-cost columns leave an edge or more as the first
    stage's optimal face, so later stages pivot.  price is the
    objective and ties, or C, over one scale."""
    if rng.random() < 0.5:
        lp, ties, _ = _random_fractional_case(rng)
        return lp, ties, _over_one_scale((lp.objective, *ties)), "fractional"
    weighted, costs, kind = _weighted_sum_case(rng)
    w = (0, 0, 0) if rng.random() < 0.2 else _simplex_weight(rng)
    return weighted(w), costs, _over_one_scale(costs), kind


def test_phase_two_stops_at_a_vertex_face_as_every_stage_would(monkeypatch):
    """Seeded oracle for the vertex-face stop: _Tableau.phase_two against
    conftest.reference_phase_two, which runs every stage and takes the
    value as a Fraction dot product.  Status, x, value, duals, reduced
    costs and the pivot sequence agree, and value is objective . x.
    Both the stop and later stages that pivot occur."""
    rng = random.Random(1967)
    pivots, stage_starts = [], []
    pivot, column_cost = lp_core._Tableau._pivot, lp_core._Tableau._column_cost

    def recording_pivot(self, r, col):
        pivots.append((r, col))
        pivot(self, r, col)

    def recording_column_cost(self, objective):
        stage_starts.append(len(pivots))
        return column_cost(self, objective)

    def run(lp, ties, price):
        pivots.clear()
        stage_starts.clear()
        return solve_lp(lp, ties, price=price), pivots[:], stage_starts[:]

    monkeypatch.setattr(lp_core._Tableau, "_pivot", recording_pivot)
    monkeypatch.setattr(lp_core._Tableau, "_column_cost", recording_column_cost)
    seen = {status: 0 for status in LpStatus}
    seen.update(stopped=0, later_pivots=0, duplicate=0, zero_cost=0)
    for _ in range(600):
        lp, ties, price, kind = _lex_equivalence_case(rng)
        got, got_pivots, got_starts = run(lp, ties, price)
        with monkeypatch.context() as patch:
            patch.setattr(lp_core._Tableau, "phase_two", reference_phase_two)
            want, want_pivots, want_starts = run(lp, ties, price)
        assert got == want, (lp, ties)
        assert got_pivots == want_pivots, (lp, ties)
        if got.status is LpStatus.OPTIMAL:
            assert got.value == sum(
                (c * v for c, v in zip(lp.objective, got.x)), Fraction(0)
            )
        seen[got.status] += 1
        seen["stopped"] += len(got_starts) < len(want_starts)
        seen["later_pivots"] += len(want_starts) > 1 and len(want_pivots) > want_starts[1]
        if kind in ("duplicate", "zero cost"):
            seen[kind.replace(" ", "_")] += 1
    assert all(count >= 20 for count in seen.values()), seen


def _kept_row_reference(tab, cost) -> list:
    """det times each nonbasic label's reduced cost, summed from rows."""
    return [
        cost[j] * tab.det
        - sum(cost[col] * row[k] for col, row in zip(tab.basis, tab.rows))
        for k, j in enumerate(tab.nonbasic)
    ]


def test_kept_row_equals_a_fresh_reduced_row_after_every_pivot(monkeypatch):
    """Seeded check of the kept reduced-cost row: after every pivot of a
    simplex run, on the 600 cases of the vertex-face oracle and on the
    LP route of degenerate problems in both cases, d holds ints equal to
    det times the reduced costs of the run's cost summed afresh from the
    rows.  (A simplex pivot enters a label of negative reduced cost on a
    positive entry, so d is never only rescaled, and never negated.)"""
    pivot, simplex = lp_core._Tableau._pivot, lp_core._Tableau._simplex
    runs = []  # (tableau, cost) of the simplex run in progress
    checked = []

    def recording_simplex(self, cost, banned):
        runs.append((self, cost))
        try:
            return simplex(self, cost, banned)
        finally:
            runs.pop()

    def checking_pivot(self, r, col):
        kept = self.d is not None
        pivot(self, r, col)
        # phase one drops its row before it drives out zero artificials
        assert kept == (self.d is not None) == bool(runs)
        if kept:
            tab, cost = runs[-1]
            assert tab is self
            assert all(type(a) is int for a in self.d)
            assert self.d == _kept_row_reference(self, cost)
            checked.append(col)

    monkeypatch.setattr(lp_core._Tableau, "_pivot", checking_pivot)
    monkeypatch.setattr(lp_core._Tableau, "_simplex", recording_simplex)
    rng = random.Random(1967)
    for _ in range(600):
        lp, ties, price, _ = _lex_equivalence_case(rng)
        solve_lp(lp, ties, price=price)
    rng = random.Random(7)
    for i in range(105):
        p = degenerate_pblp(rng, (Case.ONE, Case.TWO)[i % 2])
        enumerate_breakpoints(p, Method.LP)
    assert len(checked) > 3000, len(checked)


def test_phase_one_starts_each_inequality_row_on_its_own_slack(monkeypatch):
    """A duplicate row dropped by the rank reduction must not hide the
    slack of a later row: min x + y over x + y = 2, x + y = 2, x <= 3
    takes the single phase-one pivot of the system without the
    duplicate, with the x <= 3 row left on its slack."""
    pivots = []
    original = lp_core._Tableau._pivot

    def counting(self, r, col):
        pivots.append(col)
        original(self, r, col)

    monkeypatch.setattr(lp_core._Tableau, "_pivot", counting)
    duplicated = build_lp(
        [1, 1], [[1, 1], [1, 1], [1, 0]], [2, 2, 3], ["=", "=", "<="]
    )
    plain = build_lp([1, 1], [[1, 1], [1, 0]], [2, 3], ["=", "<="])
    for lp in (duplicated, plain):
        tab = lp_core._Tableau(lp)
        pivots.clear()
        assert tab.phase_one()
        assert pivots == [0]
        assert tab.basis == [0, 2]
        assert solve_lp(lp).x == (2, 0)


def _standard_form_rows(lp):
    """lp's rows in the tableau's column layout, [coefficients | rhs]:
    one column per variable, then one slack or surplus column per
    inequality row."""
    inequalities = [i for i, s in enumerate(lp.senses) if s is not Sense.EQ]
    out = []
    for i, (row, b) in enumerate(zip(lp.rows, lp.rhs)):
        slack = Fraction(1 if lp.senses[i] is Sense.LE else -1)
        dense = [*row, *(slack if k == i else Fraction(0) for k in inequalities)]
        out.append(dense + [b])
    return out


def test_rank_reduction_over_equality_rows_keeps_what_all_rows_keep():
    """The tableau eliminates over its equality rows only, since an
    inequality row alone touches its slack column.  Its kept rows and
    its infeasibility verdict must be those of a Fraction Gauss-Jordan
    over every row, with duplicated and summed equality rows, duplicated
    inequality rows and contradictory duplicates mixed in."""
    rng = random.Random(1405)
    seen = dict(duplicate=0, summed=0, inequality_twins=0, contradictory=0)

    def num():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    for _ in range(500):
        n = rng.randint(1, 4)
        rows, rhs, senses = [], [], []
        groups = {}  # kind -> indices (before shuffling) of the rows involved

        def add(row, b, sense):
            rows.append(row)
            rhs.append(b)
            senses.append(sense)
            return len(rows) - 1

        for _ in range(rng.randint(1, 4)):
            add([num() for _ in range(n)], num(), rng.choice(["<=", ">=", "="]))
        eq = [i for i, s in enumerate(senses) if s == "="]
        ineq = [i for i, s in enumerate(senses) if s != "="]
        if eq and rng.random() < 0.5:
            i = rng.choice(eq)
            groups["duplicate"] = (i, add(rows[i][:], rhs[i], "="))
        if len(eq) > 1 and rng.random() < 0.5:
            i, j = rng.sample(eq, 2)
            total = [a + c for a, c in zip(rows[i], rows[j])]
            groups["summed"] = (i, j, add(total, rhs[i] + rhs[j], "="))
        if ineq and rng.random() < 0.5:
            i = rng.choice(ineq)
            groups["inequality_twins"] = (i, add(rows[i][:], rhs[i], senses[i]))
        if eq and rng.random() < 0.3:
            i = rng.choice(eq)
            groups["contradictory"] = (i, add(rows[i][:], rhs[i] + 1, "="))
        order = list(range(len(rows)))
        rng.shuffle(order)
        lp = build_lp(
            [num() for _ in range(n)], [rows[i] for i in order],
            [rhs[i] for i in order], [senses[i] for i in order],
        )
        kept, _, consistent, _ = _fraction_elimination(_standard_form_rows(lp))
        tab = lp_core._Tableau(lp)
        assert tab.orig_row == kept, lp
        assert tab.infeasible_by_rank == (not consistent), lp

        kept = {order[k] for k in kept}  # indices before shuffling
        assert all(senses[i] == "=" for i in set(order) - kept), lp
        for kind, group in groups.items():
            # a dependent group loses a row; inequality twins both stay
            assert kept.issuperset(group) == (kind == "inequality_twins"), lp
            seen[kind] += 1
        if "contradictory" in groups:
            assert not consistent, lp
    assert all(count >= 20 for count in seen.values()), seen


def _fraction_elimination(rows):
    """Greedy independent rows by Fraction Gauss-Jordan, in row order.

    Returns (kept, pivots, consistent, reduced): reduced holds the kept
    rows normalized to 1 at their pivot and 0 at every other pivot."""
    kept, pivots, reduced, consistent = [], [], [], True
    for idx, row in enumerate(rows):
        work = [Fraction(a) for a in row]
        for pc, done in zip(pivots, reduced):
            work = [a - work[pc] * d for a, d in zip(work, done)]
        pc = next((j for j in range(len(work) - 1) if work[j] != 0), None)
        if pc is None:
            consistent = consistent and work[-1] == 0
            continue
        work = [a / work[pc] for a in work]
        reduced = [[a - done[pc] * w for a, w in zip(done, work)] for done in reduced]
        kept.append(idx)
        pivots.append(pc)
        reduced.append(work)
    return kept, pivots, consistent, reduced


def _random_rows(rng, count, width):
    """Integer or fractional rows [coefficients | rhs] with dependent
    and contradictory rows mixed in."""

    def num():
        if rng.random() < 0.3:
            return Fraction(0)
        den = 1 if rng.random() < 0.4 else rng.randint(2, 7)
        return Fraction(rng.randint(-9, 9), den)

    rows = []
    while len(rows) < count:
        if rows and rng.random() < 0.3:  # a combination of earlier rows
            mix = [num() for _ in rows]
            row = [sum(k * r[j] for k, r in zip(mix, rows)) for j in range(width + 1)]
            if rng.random() < 0.3:  # with a contradicting right side
                row[-1] += Fraction(rng.randint(1, 5), rng.randint(1, 3))
            rows.append(row)
        else:
            rows.append([num() for _ in range(width + 1)])
    return rows


def _reduced(rows):
    """lp_core._row_reduce on rows scaled to integers: (kept, pivots,
    consistent, reduced, det), kept indexing the kept rows, pivots their
    columns and reduced their reduced rows, ints over det."""
    reduced, det, pivots, consistent = lp_core._row_reduce(
        [integer_row(row)[0] for row in rows]
    )
    kept = [i for i, col in enumerate(pivots) if col is not None]
    return (
        kept, [pivots[i] for i in kept], consistent, [reduced[i] for i in kept], det
    )


def test_elimination_matches_a_fraction_gauss_jordan():
    """Seeded oracle for the one exact elimination routine, Gauss-Jordan
    by the simplex's exchange step: the kept rows, their pivots, the
    consistency verdict, every entry of a kept row outside the pivot
    columns and every square solve agree with a Fraction Gauss-Jordan,
    and the rows stay ints over a positive det."""
    rng = random.Random(1968)
    seen = dict(dropped=0, inconsistent=0, fractional=0, singular=0, solved=0)
    for _ in range(400):
        rows = _random_rows(rng, rng.randint(0, 6), rng.randint(1, 5))
        want = _fraction_elimination(rows)
        kept, pivots, consistent, reduced, det = _reduced(rows)
        assert (kept, pivots, consistent) == want[:3], rows
        assert type(det) is int and det > 0, rows
        assert all(type(a) is int for row in reduced for a in row), rows
        free = [j for j in range(len(rows[0])) if j not in pivots] if rows else []
        for row, want_row in zip(reduced, want[3]):
            assert [Fraction(row[j], det) for j in free] == [want_row[j] for j in free]
        seen["dropped"] += len(kept) < len(rows)
        seen["inconsistent"] += not consistent
        seen["fractional"] += any(a.denominator > 1 for row in rows for a in row)

        k = rng.randint(0, 5)
        square = _random_rows(rng, k, k)
        if k > 1 and rng.random() < 0.2:  # a repeated column
            for row in square:
                row[1] = row[0]
        kept, pivots, _, reduced = _fraction_elimination(square)
        want = None
        if len(kept) == k:
            want = [Fraction(0)] * k
            for pc, row in zip(pivots, reduced):
                want[pc] = row[-1]
        kept, pivots, _, reduced, det = _reduced(square)
        got = None
        if len(kept) == k:
            got = [Fraction(0)] * k
            for col, row in zip(pivots, reduced):
                got[col] = Fraction(row[-1], det)
        assert got == want, square
        if got is None:
            seen["singular"] += 1
        else:
            seen["solved"] += 1
            for row in square:
                assert sum(a * v for a, v in zip(row, got)) == row[-1]
    assert all(count >= 20 for count in seen.values()), seen


def test_integer_row_scales_by_the_lcm_of_denominators():
    assert integer_row([Fraction(1, 2), 3, Fraction(-2, 3)]) == ([3, 18, -4], 6)
    assert integer_row([0, 0]) == ([0, 0], 1)


def test_an_int_row_comes_back_as_it_is():
    """A row of ints needs no scaling: integer_row returns it at scale 1.
    A float or a str among ints is still refused."""
    row = [3, -7, 0, 2**70]
    got, scale = integer_row(row)
    assert got is row and scale == 1
    assert integer_row([True, 2]) == ([1, 2], 1)
    for bad in ([1, 2, 0.5], [1.0], [4, "3"], ("1",)):
        with pytest.raises(NotRational):
            integer_row(bad)


def _face_case(rng):
    """A _random_fractional_case LP and an objective f to take the
    optimal face of: a multiple of one of its equality rows, constant on
    the feasible set, or a fractional row with zeros."""
    lp, _, _ = _random_fractional_case(rng)
    eqs = [i for i, s in enumerate(lp.senses) if s is Sense.EQ]
    if eqs and rng.random() < 0.3:
        k = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))
        return lp, tuple(k * a for a in lp.rows[rng.choice(eqs)])
    return lp, _random_objective(rng, lp.num_vars)


def _random_objective(rng, n):
    return tuple(
        Fraction(0) if rng.random() < 0.3
        else Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        for _ in range(n)
    )


def _pinned(lp, objective, value):
    """lp with the row objective.x = value appended."""
    return LinearProgram(
        lp.objective, lp.rows + (objective,), lp.rhs + (value,),
        lp.senses + (Sense.EQ,), lp.nonneg,
    )


def _snapshot(tab):
    return [row[:] for row in tab.rows], tab.basis[:], tab.det, tab.nonbasic[:]


def test_face_matches_a_solve_with_its_row_appended():
    """Seeded oracle for FeasibleSystem.face: face(f) gives the value of
    solve_lp for f, and a face exactly when that solve is optimal; on
    the face every LP, min and max of g, has the status and value of a
    plain solve with the row f.x = min f appended, at a point of that
    system.  The narrowed tableau is fraction-free, drops labels, is no
    LP solve and leaves the base as it was, and a face of the face is
    the system with both rows appended."""
    rng = random.Random(2026)
    seen = {status: 0 for status in LpStatus}
    seen.update(dropped=0, nested=0)
    for _ in range(400):
        lp, f = _face_case(rng)
        base = FeasibleSystem(lp)
        kept = None if base._tableau is None else _snapshot(base._tableau)
        got, face = base.face(f)
        assert base.solves == 0
        want = solve_lp(replace(lp, objective=f))
        optimal = want.status is LpStatus.OPTIMAL
        assert (got, face is not None) == (want.value, optimal), (lp, f)
        seen[want.status] += 1
        if not optimal:
            continue
        tab = face._tableau
        _assert_fraction_free(tab, face=True)
        assert face.lp is lp
        seen["dropped"] += _label_count(tab) < tab.num_cols
        full = _pinned(lp, f, got)
        g = _random_objective(rng, lp.num_vars)
        for objective in (g, tuple(-a for a in g)):
            res = solve_lp(replace(lp, objective=objective), system=face)
            ref = solve_lp(replace(full, objective=objective))
            assert (res.status, res.value) == (ref.status, ref.value), (lp, f, g)
            if res.status is LpStatus.OPTIMAL:
                assert _satisfies(full.rows, full.rhs, full.senses, res.x)
                assert all(v >= 0 for v in res.x)
        inner, nested = face.face(g)
        ref = solve_lp(replace(full, objective=g))
        assert (inner, nested is not None) == (
            ref.value, ref.status is LpStatus.OPTIMAL
        ), (lp, f, g)
        if nested is not None:
            both = _pinned(full, g, inner)
            h = _random_objective(rng, lp.num_vars)
            res = solve_lp(replace(lp, objective=h), system=nested)
            ref = solve_lp(replace(both, objective=h))
            assert (res.status, res.value) == (ref.status, ref.value), (lp, f, g, h)
            _assert_fraction_free(nested._tableau, face=True)
            seen["nested"] += _label_count(nested._tableau) < _label_count(tab)
        assert _snapshot(base._tableau) == kept
    assert all(count >= 20 for count in seen.values()), seen


def test_faces_of_one_base_are_independent():
    """Faces of one base are independent of each other and leave the
    base as it was: over x + y <= 4, x - y <= 1, max 2x + y is at
    (5/2, 3/2) on the face x + y = 4, at (1, 0) on y = 0 and at (0, 4)
    on x = 0.  A face prices nothing: it keeps no column off the face."""
    lp = build_lp([1, 1], [[1, 1], [1, -1]], [4, 1], ["<=", "<="])
    base = FeasibleSystem(lp)
    want = solve_lp(lp, system=base)
    pinned = [base.face(f) for f in ((-1, -1), (0, 1), (1, 0))]
    assert [value for value, _ in pinned] == [-4, 0, 0]
    assert solve_lp(lp, system=base) == want
    top = replace(lp, objective=(Fraction(-2), Fraction(-1)))
    got = [solve_lp(top, system=face).x for _, face in pinned]
    assert got == [(Fraction(5, 2), Fraction(3, 2)), (1, 0), (0, 4)]
    with pytest.raises(SystemMismatch):
        solve_lp(lp, system=pinned[0][1], price=[(1, 0)])


class _PivotLimit(Exception):
    pass


def _recorded_entering(monkeypatch, limit=None) -> list:
    """The entering label of every _Tableau._pivot from here on; past
    limit pivots, _PivotLimit stops the solve."""
    entered = []
    pivot = lp_core._Tableau._pivot

    def recording_pivot(self, r, col):
        entered.append(col)
        if limit is not None and len(entered) > limit:
            raise _PivotLimit
        pivot(self, r, col)

    monkeypatch.setattr(lp_core._Tableau, "_pivot", recording_pivot)
    return entered


def test_dantzig_and_bland_enter_different_labels(monkeypatch):
    """min -x - 3y - 3z over x + y + z <= 2, at -6: Bland's rule enters
    x, the first label of negative reduced cost, then y; on a value-only
    system Dantzig's rule enters y, the most negative and the lower
    label of its tie with z, and is optimal at once."""
    lp = build_lp([-1, -3, -3], [[1, 1, 1]], [2], ["<="])
    entered = _recorded_entering(monkeypatch)
    for value_only, want in ((False, [0, 1]), (True, [1])):
        entered.clear()
        res = solve_lp(lp, system=FeasibleSystem(lp, value_only=value_only))
        assert (res.value, entered) == (-6, want), value_only


def test_dantzig_cycles_on_beale_until_bland_takes_over(monkeypatch):
    """Dantzig's rule alone cycles on Beale's example through six
    degenerate bases.  A value-only solve leaves the cycle after
    _DEGENERATE_RUN degenerate pivots and ends by Bland's rule at
    -1/20."""
    lp = _beale()
    with monkeypatch.context() as patch:
        patch.setattr(lp_core, "_DEGENERATE_RUN", 10**9)
        entered = _recorded_entering(patch, limit=60)
        with pytest.raises(_PivotLimit):
            solve_lp(lp, system=FeasibleSystem(lp, value_only=True))
        assert entered[:60] == entered[:6] * 10
    entered = _recorded_entering(monkeypatch)
    res = solve_lp(lp, system=FeasibleSystem(lp, value_only=True))
    assert (res.status, res.value) == (LpStatus.OPTIMAL, Fraction(-1, 20))
    assert len(entered) > lp_core._DEGENERATE_RUN
    assert entered[:48] == entered[:6] * 8


def test_value_only_solves_and_faces_match_plain_ones():
    """Seeded check of value-only systems, which pivot by Dantzig's
    rule: every solve on one, lexicographic or not, and every face of
    one and solve on that face, has the status and value of the same
    step on a plain system, and reports no x, dual or reduced.  price
    raises SystemMismatch on a value-only system, feasible or not, and
    on its faces."""
    rng = random.Random(1963)
    seen = {status: 0 for status in LpStatus}
    seen.update(ties=0, faces=0)
    for _ in range(400):
        lp, ties, _ = _random_fractional_case(rng)
        value_only, plain = FeasibleSystem(lp, value_only=True), FeasibleSystem(lp)
        ones = [(1,) * lp.num_vars]
        with pytest.raises(SystemMismatch):
            solve_lp(lp, system=value_only, price=ones)
        got, want = solve_lp(lp, ties, value_only), solve_lp(lp, ties, plain)
        assert (got.status, got.value) == (want.status, want.value), (lp, ties)
        assert got.x is None and got.dual is None and got.reduced is None
        seen[got.status] += 1
        seen["ties"] += bool(ties) and got.status is LpStatus.OPTIMAL
        f = _random_objective(rng, lp.num_vars)
        (low, face), (want_low, want_face) = value_only.face(f), plain.face(f)
        assert (low, face is None) == (want_low, want_face is None), (lp, f)
        if face is None:
            continue
        seen["faces"] += 1
        assert face.value_only
        with pytest.raises(SystemMismatch):
            solve_lp(lp, system=face, price=ones)
        g = _random_objective(rng, lp.num_vars)
        for objective in (g, tuple(-a for a in g)):
            on_face = replace(lp, objective=objective)
            res = solve_lp(on_face, system=face)
            ref = solve_lp(on_face, system=want_face)
            assert (res.status, res.value) == (ref.status, ref.value), (lp, f, g)
            assert res.x is None
    assert all(count >= 20 for count in seen.values()), seen


def _shuffle_slots(tab, rng):
    """Permute tab's slots in place: nonbasic, the entries of every row
    before its right side, and d, all by one permutation."""
    order = list(range(len(tab.nonbasic)))
    rng.shuffle(order)
    tab.nonbasic[:] = [tab.nonbasic[k] for k in order]
    for row in tab.rows:
        row[:-1] = [row[k] for k in order]
    if tab.d is not None:
        tab.d[:] = [tab.d[k] for k in order]


def test_slot_order_changes_no_pivot_or_result(monkeypatch):
    """Seeded metamorphic check: pricing and the drive-out of phase one
    read labels, not slots.  Shuffling a tableau's slots before and
    after every simplex run, so before phase one's drive-out, before
    each stage of phase two and before the reduced costs are read,
    changes no pivot, status, vertex, value, dual or reduced, on plain
    solves and on value-only systems, which price by Dantzig's rule,
    and on their faces.  Drive-outs and Dantzig ties both occur."""
    pivot, simplex = lp_core._Tableau._pivot, lp_core._Tableau._simplex
    shuffle = random.Random(1977)
    state = dict(on=False, banned=None)
    pivots = []
    seen = dict(drive_out=0, dantzig_ties=0, faces=0)

    def recording_pivot(self, r, col):
        pivots.append((r, col))
        if state["on"] and self.d is None:
            seen["drive_out"] += 1
        elif state["on"] and self.dantzig:
            eligible = [
                v for j, v in zip(self.nonbasic, self.d)
                if v < 0 and j not in state["banned"]
            ]
            seen["dantzig_ties"] += eligible.count(min(eligible)) > 1
        pivot(self, r, col)

    def shuffling_simplex(self, cost, banned):
        state["banned"] = banned
        if state["on"]:
            _shuffle_slots(self, shuffle)
        status = simplex(self, cost, banned)
        if state["on"]:
            _shuffle_slots(self, shuffle)
        return status

    def run(lp, ties, price, value_only, shuffled):
        state["on"] = shuffled
        pivots.clear()
        system = FeasibleSystem(lp, value_only=value_only)
        out = [solve_lp(lp, ties, system, () if value_only else price)]
        value, face = system.face(ties[0] if ties else lp.objective)
        if face is not None:
            seen["faces"] += shuffled
            out += [value, solve_lp(replace(lp, objective=price[-1]), system=face)]
        return out, pivots[:]

    monkeypatch.setattr(lp_core._Tableau, "_pivot", recording_pivot)
    monkeypatch.setattr(lp_core._Tableau, "_simplex", shuffling_simplex)
    rng = random.Random(1983)
    for _ in range(600):
        lp, ties, price, _ = _lex_equivalence_case(rng)
        for value_only in (False, True):
            want = run(lp, ties, price, value_only, shuffled=False)
            assert run(lp, ties, price, value_only, shuffled=True) == want, (lp, ties)
    assert all(count >= 20 for count in seen.values()), seen


def test_infeasible_system_is_infeasible_for_every_objective():
    lp = build_lp([1, 0], [[1, 1], [1, 0]], [4, 5], ["<=", ">="])
    system = FeasibleSystem(lp)
    for objective, ties in (([1, 0], ()), ([0, -1], ()), ([-1, -1], [(1, 0)])):
        before = system.solves
        res = solve_lex_lp(
            build_lp(objective, lp.rows, lp.rhs, lp.senses), ties, system
        )
        assert res.status is LpStatus.INFEASIBLE
        assert system.solves == before + 1


def test_solve_on_another_system_is_rejected():
    lp = build_lp([1, 1], [[1, 1], [1, -1]], [1, 0], [">=", "<="])
    system = FeasibleSystem(lp)
    others = [
        build_lp([1, 1], [[1, 1], [1, -2]], [1, 0], [">=", "<="]),
        build_lp([1, 1], [[1, 1], [1, -1]], [2, 0], [">=", "<="]),
        build_lp([1, 1], [[1, 1], [1, -1]], [1, 0], [">=", "="]),
        build_lp([1, 1], [[1, 1]], [1], [">="]),
    ]
    for other in others:
        with pytest.raises(SystemMismatch):
            solve_lp(other, system=system)
        with pytest.raises(SystemMismatch):
            solve_lex_lp(other, [(1, 0)], system)
    # only the objective may differ
    same = build_lp([2, 1], lp.rows, lp.rhs, lp.senses)
    assert solve_lp(same, system=system).value == 1


def test_solver_is_deterministic():
    lp = build_lp(
        [-1, -1, 0], [[1, 1, 1], [1, 1, 0]], [2, 2], ["<=", "<="]
    )
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert first.x == second.x
    assert first.value == second.value


def test_solve_call_counter_increments():
    lp = build_lp([1, 0], [[1, 1]], [1], [">="])
    system = FeasibleSystem(lp)
    assert system.solves == 0
    solve_lp(lp, system=system)
    assert system.solves == 1
    # a lexicographic solve is one tableau however many ties it has
    solve_lex_lp(lp, ties=[(0, 1), (1, 1), (0, -1)], system=system)
    assert system.solves == 2
    # a face counts no solve; a solve on a face, or on a face of a face,
    # counts on the system it came from, and the face reads that count
    _, face = system.face((0, 1))
    _, inner = face.face((1, 0))
    assert system.solves == face.solves == 2
    solve_lp(lp, system=face)
    solve_lp(lp, system=inner)
    assert system.solves == face.solves == inner.solves == 4
    # another system, and a plain solve, count apart
    solve_lp(lp)
    other = FeasibleSystem(lp)
    solve_lp(lp, system=other)
    assert (system.solves, other.solves) == (4, 1)
    # an LP the system rejects counts nothing
    with pytest.raises(SystemMismatch):
        solve_lp(build_lp([1, 0], [[1, 1]], [2], [">="]), system=system)
    assert system.solves == 4


def test_dimension_mismatch_is_rejected():
    with pytest.raises(DimensionMismatch):
        build_lp([1, 2], [[1]], [1], ["<="])
    lp = build_lp([1, 2], [[1, 1]], [1], ["<="])
    with pytest.raises(DimensionMismatch):
        solve_lp(lp, ties=[(1,)])
    with pytest.raises(DimensionMismatch):
        solve_lex_lp(lp, ties=[], price=[(1, 2), (1,)])
    with pytest.raises(DimensionMismatch):
        FeasibleSystem(lp).face((1,))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("nonneg", (True,), "objective and domain lengths differ"),
        ("rhs", (Fraction(1), Fraction(2)), "row, rhs and sense counts differ"),
        ("senses", (), "row, rhs and sense counts differ"),
        ("rows", ((Fraction(1),),), "row length differs from objective"),
    ],
)
def test_a_misshapen_lp_is_a_dimension_mismatch(field, value, message):
    """Each shape check of LinearProgram raises its own DimensionMismatch."""
    lp = build_lp([1, 2], [[1, 1]], [1], ["<="])
    with pytest.raises(DimensionMismatch, match=message):
        replace(lp, **{field: value})


def test_a_float_in_the_objective_is_a_typed_error():
    """Objectives reach integer_row as they are, so a float is refused
    there, not silently turned into a Fraction."""
    lp = build_lp([1, 1], [[1, 1]], [1], [">="])
    with pytest.raises(NotRational):
        solve_lp(replace(lp, objective=(0.5, Fraction(1))))
    with pytest.raises(NotRational):
        solve_lp(lp, ties=[(Fraction(1), 0.25)])
    with pytest.raises(NotRational):
        integer_row([Fraction(1, 2), "3"])
    with pytest.raises(NotRational):
        FeasibleSystem(lp).face((0.5, Fraction(1)))
    # priced rows are ints over one scale; a Fraction is refused too
    with pytest.raises(NotRational):
        solve_lp(lp, price=[(Fraction(1, 2), 1)])


def test_a_float_in_a_row_is_a_typed_error():
    lp = build_lp([1, 1], [[1, 1]], [1], [">="])
    with pytest.raises(NotRational):
        solve_lp(replace(lp, rows=((Fraction(1), 0.5),)))
    with pytest.raises(NotRational):
        solve_lp(replace(lp, rhs=(1.0,)))
    with pytest.raises(NotRational):
        solve_lp(replace(lp, rows=((Fraction(1), "2"),)))


def test_a_free_variable_is_rejected():
    """Every variable is nonnegative: a False in nonneg raises instead
    of being solved as x >= 0."""
    lp = build_lp([1, 1], [[1, 1]], [1], [">="])
    with pytest.raises(ValueError):
        replace(lp, nonneg=(True, False))
    with pytest.raises(ValueError):  # min x over x = -5, x free, would be -5
        LinearProgram(
            (Fraction(1),), ((Fraction(1),),), (Fraction(-5),), (Sense.EQ,), (False,)
        )
