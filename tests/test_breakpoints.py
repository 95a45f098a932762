"""Parameter intervals, breakpoints and the annotated lambda axis."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from pblp import (
    INF,
    Case,
    Method,
    Pblp,
    Sense,
    component_hrep,
    decompose,
    enumerate_breakpoints,
    interval_lp_case1,
    interval_lp_case2,
    interval_system,
    interval_vertex,
    solve_on_decomposition,
    sweep_lambda,
)
from pblp import breakpoints, lp_core, oracle, wsd
from pblp.breakpoints import ParameterInterval
from pblp.cli_io import emit_solution
from pblp.errors import EmptyComponent, NoFiniteVertex, SystemMismatch
from conftest import Weight3, build_lp, hull_of, lambda_from_weight, w3
from instance_gen import degenerate_pblp, random_pblp

F = Fraction


def _interval_map(sol):
    return {iv.image: (iv.lower, iv.upper) for iv in sol.intervals}


def test_example2_case_two_intervals_and_breakpoints(example2):
    for method in (Method.LP, Method.ADAPTED):
        sol = enumerate_breakpoints(example2, method)
        assert _interval_map(sol) == {
            (F(0), F(5), F(5)): (F(0), F(1)),
            (F(5), F(10), F(0)): (F(1), INF),
            (F(15), F(0), F(2)): (F(0), F(5)),
        }
        assert sol.breakpoints == (F(1), F(5))


def test_example2_case_two_axis(example2):
    sol = enumerate_breakpoints(example2, Method.ADAPTED)
    axis = [
        (s.lower, s.upper, s.lower_closed, s.upper_closed, s.witnesses)
        for s in sol.axis
    ]
    # the change at lambda = 1 is seam-free: leaving (0,5,5) and entering
    # (5,10,0) collapse to the same biobjective point (5,10) there
    assert axis == [
        (F(0), F(1), True, True, (0, 2)),
        (F(1), F(5), False, True, (1, 2)),
        (F(5), INF, False, False, (1,)),
    ]


def test_example2_case_one_intervals_and_axis(example2_case1):
    for method in (Method.LP, Method.ADAPTED):
        sol = enumerate_breakpoints(example2_case1, method)
        assert _interval_map(sol) == {
            (F(0), F(5), F(5)): (F(0), F(5, 2)),
            (F(5), F(10), F(0)): (F(1), INF),
            (F(15), F(0), F(2)): (F(0), INF),
        }
        assert sol.breakpoints == (F(1), F(5, 2))
        axis = [
            (s.lower, s.upper, s.lower_closed, s.upper_closed, s.witnesses)
            for s in sol.axis
        ]
        assert axis == [
            (F(0), F(1), True, True, (0, 2)),
            (F(1), F(5, 2), False, True, (0, 1, 2)),
            (F(5, 2), INF, False, False, (1, 2)),
        ]


def test_example1_intervals_and_breakpoints(example1):
    for method in (Method.LP, Method.ADAPTED):
        sol = enumerate_breakpoints(example1, method)
        assert _interval_map(sol) == {
            (F(-33), F(4), F(13)): (F(0), F(7, 3)),
            (F(-30), F(10), F(10)): (F(1), F(3)),
            (F(-6), F(2), F(2)): (F(7, 3), INF),
            (F(-3), F(-6), F(3)): (F(0), INF),
        }
        assert sol.breakpoints == (F(1), F(7, 3), F(3))


def test_example1_axis_has_a_one_point_segment(example1):
    """At lambda = 7/3 the leaving image (-33,4,13) and the entering
    image (-6,2,2) stay distinct biobjective points, so the axis carves
    out the single point where all four witnesses coexist."""
    sol = enumerate_breakpoints(example1, Method.ADAPTED)
    axis = [
        (s.lower, s.upper, s.lower_closed, s.upper_closed, s.witnesses)
        for s in sol.axis
    ]
    assert axis == [
        (F(0), F(1), True, True, (0, 3)),
        (F(1), F(7, 3), False, False, (0, 1, 3)),
        (F(7, 3), F(7, 3), True, True, (0, 1, 2, 3)),
        (F(7, 3), F(3), False, True, (1, 2, 3)),
        (F(3), INF, False, False, (2, 3)),
    ]


def test_interval_routes_agree_per_component(example2, example2_case1, example1):
    for p in (example2, example2_case1, example1):
        dec = decompose(p)
        route = interval_lp_case1 if p.case is Case.ONE else interval_lp_case2
        hreps = [component_hrep(p, entry.image) for entry in dec.images]
        base = interval_system(hreps[0], p.case)
        for h, poly in zip(hreps, dec.components):
            assert route(h, base) == interval_vertex(p.case, poly)


def test_lp_route_spends_two_solves_per_image(example2, example2_case1):
    for p in (example2, example2_case1):
        sol = enumerate_breakpoints(p, Method.LP)
        assert sol.interval_lp_solves == 2 * len(sol.intervals)
        assert enumerate_breakpoints(p, Method.ADAPTED).interval_lp_solves == 0


def test_stray_solves_leave_every_count_alone(request, monkeypatch):
    """Each count is read off the feasible system that did the work, so
    an unrelated solve_lp made between the solves of a decomposition,
    of the interval route or of a sweep moves none of lp_solves,
    interval_lp_solves and SweepReport.lp_solves."""
    stray_lp = build_lp([1, 0], [[1, 1]], [1], [">="])
    strays = []

    def after_a_stray_solve(function):
        def wrapped(*args, **kwargs):
            strays.append(lp_core.solve_lp(stray_lp).status)
            return function(*args, **kwargs)
        return wrapped

    def counts(p):
        sol = enumerate_breakpoints(p, Method.LP)
        report = sweep_lambda(p, F(4), 8)
        return sol.decomposition.lp_solves, sol.interval_lp_solves, report.lp_solves

    names = ("example1", "example2", "example2_case1")
    problems = [request.getfixturevalue(name) for name in names]
    undisturbed = [counts(p) for p in problems]
    for module, name in (
        (wsd, "find_extreme_image"), (breakpoints, "solve_lp"), (oracle, "dichotomic_bolp")
    ):
        monkeypatch.setattr(module, name, after_a_stray_solve(getattr(module, name)))
    for p, want in zip(problems, undisturbed):
        strays.clear()
        assert counts(p) == want
        # one stray before each decomposition and interval solve and
        # before each of the 9 grid points' searches
        assert len(strays) == want[0] + want[1] + 9, p


def test_lp_route_builds_the_cone_once_per_problem(request, monkeypatch):
    """component_hrep runs once per LP-route solve; every other image
    takes the first hrep's cone and gets only its own image row."""
    calls = []
    build = breakpoints.component_hrep

    def counting_hrep(p, y):
        calls.append(y)
        return build(p, y)

    monkeypatch.setattr(breakpoints, "component_hrep", counting_hrep)
    for name in ("example1", "example2", "example2_case1"):
        calls.clear()
        sol = enumerate_breakpoints(request.getfixturevalue(name), Method.LP)
        assert len(sol.intervals) > 1
        assert calls == [sol.intervals[0].image], name


def test_lp_route_takes_phase_one_once_per_image(request, monkeypatch):
    """One LP-route solve builds one base FeasibleSystem, the cone rows
    and the slice row that every image shares, and takes one face of it
    per image, the optimal face of that image's duality gap."""
    built, faces = [], []

    class CountingSystem(breakpoints.FeasibleSystem):
        def __init__(self, lp, **options):
            built.append(lp)
            super().__init__(lp, **options)

        def face(self, objective):
            faces.append(objective)
            return super().face(objective)

    monkeypatch.setattr(breakpoints, "FeasibleSystem", CountingSystem)
    for name in INTERVAL_PIVOTS:
        built.clear()
        faces.clear()
        sol = enumerate_breakpoints(request.getfixturevalue(name), Method.LP)
        assert len(built) == 1, name
        assert len(faces) == len(sol.intervals), name


# All interval-LP pivots of one LP-route solve, and the base system's
# phase-one pivots among them.  Extending the base by each image's row,
# each with its own phase one, took 19, 16 and 16 pivots in all (11, 13
# and 13 in phase one); the images' faces of the duality gap need no
# phase one and run on narrower tableaux.  Bland's rule took 13 on
# example2, Dantzig's takes 12.
INTERVAL_PIVOTS = {"example1": 12, "example2": 12, "example2_case1": 13}
INTERVAL_PHASE_ONE_PIVOTS = {"example1": 3, "example2": 1, "example2_case1": 1}


def test_interval_lps_start_on_their_slacks(request, monkeypatch):
    """Deterministic pivot gate for the interval LPs: every cone row
    starts on its own slack, so the one phase one that runs, the base
    system's, holds one artificial label, on den.w = 1; the faces and
    the solves on them run phase two only, and the pivot counts stay at
    the measured values."""
    in_phase_one = []
    pivots = []
    phase_one_pivots = []
    artificials = []
    pivot, simplex = lp_core._Tableau._pivot, lp_core._Tableau._simplex

    class MarkingSystem(breakpoints.FeasibleSystem):
        def __init__(self, lp, **options):
            in_phase_one.append(lp)
            try:
                super().__init__(lp, **options)
            finally:
                in_phase_one.pop()

    def counting_pivot(self, r, col):
        pivots.append(col)
        if in_phase_one:
            phase_one_pivots.append(col)
        pivot(self, r, col)

    def recording_simplex(self, cost, banned):
        arts = sum(j >= self.num_cols for j in self.basis + self.nonbasic)
        if arts:
            artificials.append(arts)
        return simplex(self, cost, banned)

    monkeypatch.setattr(breakpoints, "FeasibleSystem", MarkingSystem)
    monkeypatch.setattr(lp_core._Tableau, "_pivot", counting_pivot)
    monkeypatch.setattr(lp_core._Tableau, "_simplex", recording_simplex)
    for name, bound in INTERVAL_PIVOTS.items():
        p = request.getfixturevalue(name)
        dec = decompose(p)
        pivots.clear()
        phase_one_pivots.clear()
        artificials.clear()
        breakpoints.solve_on_decomposition(p, dec, Method.LP)
        assert len(pivots) <= bound, (name, len(pivots))
        assert len(phase_one_pivots) <= INTERVAL_PHASE_ONE_PIVOTS[name], name
        assert artificials == [1], name


# All interval-LP pivots, both phases, of the LP route on 40 seeded
# instances: 1199 with one full system per image, 950 with one row
# appended to the base per image, each with its own phase one, and 607
# by Bland's rule before the value-only system priced by Dantzig's.
FAMILY_INTERVAL_PIVOTS = 502
# Full reduced-cost rows built by those interval LPs: one per simplex
# run with a kept row that pivots update, 1231 when every pricing pass
# summed the rows afresh.
FAMILY_INTERVAL_PRICING = 478
# All pivots of decompose, both phases, on the same 40 instances.
FAMILY_DECOMPOSITION_PIVOTS = 363


def _seeded_family():
    rng = random.Random(1405)
    return [random_pblp(rng, (Case.ONE, Case.TWO)[i % 2]) for i in range(40)]


def _counted_pivots(monkeypatch) -> list:
    """The entering label of every _Tableau._pivot from here on."""
    pivots = []
    pivot = lp_core._Tableau._pivot

    def counting_pivot(self, r, col):
        pivots.append(col)
        pivot(self, r, col)

    monkeypatch.setattr(lp_core._Tableau, "_pivot", counting_pivot)
    return pivots


def test_interval_pivots_on_a_seeded_family(monkeypatch):
    """Deterministic pivot and pricing gate for one base system per
    problem and one face of it per image."""
    problems = _seeded_family()
    decompositions = [decompose(p) for p in problems]
    pivots = _counted_pivots(monkeypatch)
    priced = []
    reduced_row = lp_core._Tableau._reduced_row

    def counting_reduced_row(self, cost):
        priced.append(cost)
        return reduced_row(self, cost)

    monkeypatch.setattr(lp_core._Tableau, "_reduced_row", counting_reduced_row)
    for p, dec in zip(problems, decompositions):
        breakpoints.solve_on_decomposition(p, dec, Method.LP)
    assert len(pivots) <= FAMILY_INTERVAL_PIVOTS, len(pivots)
    assert len(priced) <= FAMILY_INTERVAL_PRICING, len(priced)


def test_decomposition_pivots_on_a_seeded_family(monkeypatch):
    """Deterministic pivot gate for decompose: its weighted-sum and
    certificate LPs, phase ones included."""
    problems = _seeded_family()
    pivots = _counted_pivots(monkeypatch)
    for p in problems:
        decompose(p)
    assert len(pivots) <= FAMILY_DECOMPOSITION_PIVOTS, len(pivots)


def test_lp_route_matches_vertices_in_both_cases():
    """One decomposition serves both cases, since the triobjective
    companion does not depend on the case; each component's lifted-cone
    LPs, on one base system per case, must give the vertex-route
    interval under either lambda map."""
    rng = random.Random(1405)
    routes = ((Case.ONE, interval_lp_case1), (Case.TWO, interval_lp_case2))
    unbounded = corner = compared = 0
    for _ in range(60):
        p = random_pblp(rng, Case.ONE)
        dec = decompose(p)
        hreps = [component_hrep(p, entry.image) for entry in dec.images]
        bases = [interval_system(hreps[0], case) for case, _ in routes]
        for h, poly in zip(hreps, dec.components):
            for (case, route), base in zip(routes, bases):
                expected = interval_vertex(case, poly)
                assert route(h, base) == expected
                unbounded += expected[1] is INF
            corner += (F(0), F(1)) in poly.vertices
        compared += 1
    assert compared == 60 and unbounded > 0 and corner > 0


def test_lp_route_matches_vertices_on_a_degenerate_family():
    """On instances with a duplicated column, a zero-cost column, d1
    parallel to c1 and a redundant row (non-unique preimages, collinear
    images, degenerate vertices), the LP route, on one base system per
    case, must still give the vertex-route interval of every component
    under either lambda map."""
    rng = random.Random(2005)
    routes = ((Case.ONE, interval_lp_case1), (Case.TWO, interval_lp_case2))
    images = unbounded = 0
    for _ in range(105):
        p = degenerate_pblp(rng, Case.ONE)
        dec = decompose(p)
        first = component_hrep(p, dec.images[0].image)
        hreps = [first.for_image(entry.image) for entry in dec.images]
        for case, route in routes:
            base = interval_system(first, case)
            for h, poly in zip(hreps, dec.components):
                expected = interval_vertex(case, poly)
                assert route(h, base) == expected, (p, h.gap)
                images += 1
                unbounded += expected[1] is INF
    assert images > 500 and 100 < unbounded < images - 100, (images, unbounded)


def test_bland_fallback_moves_no_byte_on_a_degenerate_family(monkeypatch):
    """The LP route's value-only LPs hand a simplex run from Dantzig's
    rule to Bland's after lp_core._DEGENERATE_RUN degenerate pivots in a
    row.  On 105 degenerate problems (Random(7), cases alternating),
    with that run forced down to 1, the LP route's documents equal those
    at the default byte for byte, and every interval is
    interval_vertex's.  The fallback runs: in some Dantzig run a pivot
    follows a degenerate one, and the pivot path moves."""
    rng = random.Random(7)
    family = [degenerate_pblp(rng, (Case.ONE, Case.TWO)[i % 2]) for i in range(105)]
    decompositions = [decompose(p) for p in family]
    runs = []  # per Dantzig simplex run: (entering label, degenerate) per pivot
    active = []
    pivot, simplex = lp_core._Tableau._pivot, lp_core._Tableau._simplex

    def recording_simplex(self, cost, banned):
        active.append([] if self.dantzig else None)
        try:
            return simplex(self, cost, banned)
        finally:
            run = active.pop()
            if run is not None:
                runs.append(run)

    def recording_pivot(self, r, col):
        if active and active[-1] is not None:
            active[-1].append((col, self.rows[r][-1] == 0))
        pivot(self, r, col)

    monkeypatch.setattr(lp_core._Tableau, "_simplex", recording_simplex)
    monkeypatch.setattr(lp_core._Tableau, "_pivot", recording_pivot)

    def lp_route():
        runs.clear()
        solutions = [
            solve_on_decomposition(p, dec, Method.LP)
            for p, dec in zip(family, decompositions)
        ]
        documents = [emit_solution(p, sol) for p, sol in zip(family, solutions)]
        return solutions, documents, runs[:]

    _, want, default_runs = lp_route()
    monkeypatch.setattr(lp_core, "_DEGENERATE_RUN", 1)
    solutions, got, forced_runs = lp_route()
    assert got == want
    for p, dec, sol in zip(family, decompositions, solutions):
        assert [(iv.lower, iv.upper) for iv in sol.intervals] == [
            interval_vertex(p.case, poly) for poly in dec.components
        ], p
    fallbacks = sum(any(degenerate for _, degenerate in run[:-1]) for run in forced_runs)
    assert fallbacks > 20 and forced_runs != default_runs, fallbacks


def test_lp_route_raises_typed_errors(example2, example1):
    """An extreme image y shifted by (1, 1, 1) is no image: on the lifted
    cone b.v <= y.w by weak duality, so the shifted image's duality gap
    (y + 1).w - b.v is at least w1 + w2 + w3 >= 1 on the slice, its
    minimum is positive and the route raises EmptyComponent.  A base
    built for the other case raises SystemMismatch."""
    routes = {Case.ONE: interval_lp_case1, Case.TWO: interval_lp_case2}
    for p in (example2, example1):
        for entry in decompose(p).images:
            h = component_hrep(p, tuple(c + 1 for c in entry.image))
            with pytest.raises(EmptyComponent):
                routes[p.case](h, interval_system(h, p.case))
        other = Case.ONE if p.case is Case.TWO else Case.TWO
        with pytest.raises(SystemMismatch):
            routes[p.case](h, interval_system(h, other))


def test_interval_vertex_skips_the_undefined_corner():
    # vertices (0,1) [no lambda] and (1/2,1/2) [lambda 0] and (0,0)
    # [lambda inf] together give [0, inf)
    poly = hull_of(
        [(F(0), F(1)), (F(1, 2), F(1, 2)), (F(0), F(0))]
    )
    assert interval_vertex(Case.ONE, poly) == (F(0), INF)


def test_interval_vertex_without_finite_lambdas():
    # the corner (0,1) alone encodes no lambda for case ONE
    point = hull_of([(F(0), F(1))])
    with pytest.raises(NoFiniteVertex):
        interval_vertex(Case.ONE, point)


def _lambda_range(case, poly):
    """min and max of lambda_from_weight over the Fraction vertices, INF
    above when one encodes lambda -> infinity; None when none is finite."""
    lams = [
        lambda_from_weight(case, Weight3(w1, w2, 1 - w1 - w2)) for w1, w2 in poly.vertices
    ]
    finite = [lam for lam in lams if lam is not None and lam is not INF]
    if not finite:
        return None
    return min(finite), (INF if any(lam is INF for lam in lams) else max(finite))


def test_interval_vertex_matches_lambda_from_weight_on_random_polygons():
    """interval_vertex reads lambda off the integer triples; on seeded
    polygons in the simplex, points and segments among them, many with
    the corners (0, 1) or (0, 0) or points on w1 = 0, it must give the
    extremes of lambda_from_weight over the Fraction vertices, and raise
    NoFiniteVertex exactly where none is finite."""
    rng = random.Random(16)
    corners = ((F(0), F(1)), (F(0), F(0)))
    seen = {"unbounded": 0, "none": 0, "skipped": 0, "finite": 0}

    def point():
        den = rng.randint(1, 12)
        a = rng.randint(0, den)
        b = rng.randint(0, den - a)
        return F(a, den), F(b, den)

    for trial in range(800):
        pts = [point() for _ in range(rng.choice((1, 2, 3, 5)))]
        if trial % 3:
            pts += rng.sample(corners, rng.randint(1, 2))
        if trial % 5 == 0:
            pts = [(F(0), y) for _, y in pts]  # on w1 = 0
        poly = hull_of(pts)
        for case in (Case.ONE, Case.TWO):
            expected = _lambda_range(case, poly)
            if expected is None:
                with pytest.raises(NoFiniteVertex):
                    interval_vertex(case, poly)
                seen["none"] += 1
                continue
            assert interval_vertex(case, poly) == expected, (case, poly)
            seen["unbounded"] += expected[1] is INF
            seen["finite"] += expected[1] is not INF
            seen["skipped"] += case is Case.ONE and (F(0), F(1)) in poly.vertices
    assert min(seen.values()) > 50, seen


def test_parameter_interval_contains():
    iv = ParameterInterval(image=(F(0), F(0), F(0)), lower=F(1), upper=F(3))
    assert iv.contains(F(1)) and iv.contains(F(2)) and iv.contains(F(3))
    assert not iv.contains(F(1, 2)) and not iv.contains(F(4))
    ray = ParameterInterval(image=(F(0), F(0), F(0)), lower=F(0), upper=INF)
    assert ray.contains(F(10**9))


def _covers(iv, seg) -> bool:
    """Reference witness rule: iv holds the whole segment, its one point
    for a one-point segment, and reaches INF for the last segment."""
    if seg.lower == seg.upper:
        return iv.contains(seg.lower)
    if iv.lower > seg.lower:
        return False
    if seg.upper is INF:
        return iv.upper is INF
    return iv.upper is INF or iv.upper >= seg.upper


def _axis_invariants(sol):
    axis = sol.axis
    assert axis[0].lower == 0 and axis[0].lower_closed
    assert axis[-1].upper is INF and not axis[-1].upper_closed
    for seg in axis:
        assert seg.witnesses, f"empty witness set on {seg}"
        covering = tuple(i for i, iv in enumerate(sol.intervals) if _covers(iv, seg))
        assert seg.witnesses == covering, (seg, sol.intervals)
    for prev, nxt in zip(axis, axis[1:]):
        assert prev.upper == nxt.lower
        assert prev.upper_closed != nxt.lower_closed  # no gap, no overlap


def test_axis_invariants_on_the_examples(example1, example2, example2_case1):
    for p in (example1, example2, example2_case1):
        for method in Method:
            _axis_invariants(enumerate_breakpoints(p, method))


def test_axis_witnesses_are_the_intervals_that_cover_each_segment():
    """The axis reads each segment's witnesses at one lambda inside it.
    _axis_invariants requires them to be the intervals that cover the
    whole segment (_covers), as on the bundled instances: here on every
    segment of the acceptance batch (seed 1405, 200 instances, cases
    alternating) and of the degenerate family in both cases."""
    solutions = []
    rng = random.Random(1405)
    for trial in range(200):
        p = random_pblp(rng, Case.ONE if trial % 2 == 0 else Case.TWO)
        solutions.append(enumerate_breakpoints(p, Method.LP))
    rng = random.Random(2005)
    for _ in range(105):
        p = degenerate_pblp(rng, Case.ONE)
        dec = decompose(p)
        for case in Case:
            solutions.append(
                solve_on_decomposition(replace(p, case=case), dec, Method.ADAPTED)
            )
    kinds = {"one-point": 0, "transition": 0, "last": 0}
    for sol in solutions:
        _axis_invariants(sol)
        for seg in sol.axis:
            if seg.upper is INF:
                kinds["last"] += 1
            elif seg.lower == seg.upper:
                kinds["one-point"] += 1
            elif any(iv.upper == seg.lower for iv in sol.intervals):
                kinds["transition"] += 1
    assert all(count >= 50 for count in kinds.values()), kinds


def _bolp_sets(case, intervals, beta):
    """The bolp images (y1 + beta*s1*y3, y2 + beta*s2*y3), in Fractions,
    of the images leaving at beta (their intervals end there) and of
    those entering (theirs start there), found by a scan of every
    interval."""
    s1, s2 = case.shares

    def bolp(ivs):
        return {
            (y1 + beta * s1 * y3, y2 + beta * s2 * y3)
            for y1, y2, y3 in (iv.image for iv in ivs)
        }

    leaving = bolp(iv for iv in intervals if iv.upper == beta)
    return leaving, bolp(iv for iv in intervals if iv.lower == beta)


def _reference_axis(case, intervals):
    """The breakpoints and axis as read before the ends became ranks:
    the witnesses of a segment are the intervals that contain its
    midpoint (lower + 1 for the last one), those of a one-point segment
    the intervals that contain it, and a breakpoint is one point when
    the images leaving and entering there have different bolp images
    (_bolp_sets)."""

    def witnesses(lam):
        return tuple(i for i, iv in enumerate(intervals) if iv.contains(lam))

    def one_point(beta):
        leaving, entering = _bolp_sets(case, intervals, beta)
        return bool(leaving and entering) and leaving != entering

    ends = sorted(
        {iv.lower for iv in intervals if iv.lower > 0}
        | {iv.upper for iv in intervals if iv.upper is not INF}
    )
    axis = []
    prev, prev_closed = F(0), True
    for beta in ends:
        middle = witnesses((prev + beta) / 2)
        if one_point(beta):
            if prev < beta:
                axis.append((prev, beta, prev_closed, False, middle))
            axis.append((beta, beta, True, True, witnesses(beta)))
        else:
            axis.append((prev, beta, prev_closed, True, middle))
        prev, prev_closed = beta, False
    axis.append((prev, INF, prev_closed, False, witnesses(prev + 1)))
    return tuple(ends), axis


def _axis_tuples(sol):
    return [
        (s.lower, s.upper, s.lower_closed, s.upper_closed, s.witnesses)
        for s in sol.axis
    ]


def test_axis_from_end_ranks_matches_the_reference_formulation(
    example1, example2, example2_case1
):
    """solve_on_decomposition reads witnesses off integer end ranks and
    tests one-point segments on the images grouped by end value.  By both
    methods it must give the breakpoints and axis of _reference_axis on
    the acceptance batch (seed 1405, 200 instances, cases alternating),
    on the degenerate family in both cases and on the bundled three."""
    problems = []
    rng = random.Random(1405)
    for trial in range(200):
        problems.append(random_pblp(rng, Case.ONE if trial % 2 == 0 else Case.TWO))
    rng = random.Random(2005)
    for _ in range(105):
        p = degenerate_pblp(rng, Case.ONE)
        problems += [p, replace(p, case=Case.TWO)]
    problems += [example1, example2, example2_case1]
    one_point = 0
    seam_free = dict.fromkeys(Method, 0)
    for p in problems:
        dec = decompose(p)
        for method in (Method.LP, Method.ADAPTED):
            sol = solve_on_decomposition(p, dec, method)
            expected = _reference_axis(p.case, sol.intervals)
            assert (sol.breakpoints, _axis_tuples(sol)) == expected, (p, method)
            one_point += sum(s.lower == s.upper for s in sol.axis)
            for beta in sol.breakpoints:
                leaving, entering = _bolp_sets(p.case, sol.intervals, beta)
                seam_free[method] += bool(leaving) and leaving == entering
    assert one_point >= 100, one_point
    # images leave and enter at one biobjective point: example2 at 1 and
    # three case-ONE breakpoints (acceptance 120 and 188, degenerate 47)
    assert all(count >= 4 for count in seam_free.values()), seam_free


def test_a_one_point_segment_at_the_first_breakpoint():
    """At lambda = 1/2, the first breakpoint, the image (-5, -5, 10)
    leaves and (-3, -3, 6) and (4, 0, 0) enter.  In case TWO the first
    two map to the biobjective point (0, 0) and the third to (4, 0), so
    the leaving and entering sets differ and 1/2 is a segment of its
    own, where all three images are optimal."""
    p = Pblp(
        case=Case.TWO, n=2,
        rows=((F(-1), F(1)), (F(2), F(3)), (F(1), F(1))),
        rhs=(F(2), F(6), F(5)),
        senses=(Sense.LE, Sense.GE, Sense.LE),
        c1=(F(-1), F(2)), c2=(F(-1), F(0)), d1=(F(2), F(0)),
    )
    for method in (Method.LP, Method.ADAPTED):
        sol = enumerate_breakpoints(p, method)
        assert _interval_map(sol) == {
            (F(-5), F(-5), F(10)): (F(0), F(1, 2)),
            (F(-3), F(-3), F(6)): (F(1, 2), F(7, 6)),
            (F(4), F(0), F(0)): (F(1, 2), INF),
        }
        assert sol.breakpoints == (F(1, 2), F(7, 6))
        assert _axis_tuples(sol) == [
            (F(0), F(1, 2), True, False, (0,)),
            (F(1, 2), F(1, 2), True, True, (0, 1, 2)),
            (F(1, 2), F(7, 6), False, True, (1, 2)),
            (F(7, 6), INF, False, False, (2,)),
        ]
        assert _reference_axis(p.case, sol.intervals) == (
            sol.breakpoints, _axis_tuples(sol)
        )


def test_a_seam_free_breakpoint_in_case_one():
    """Instance 120 of the acceptance batch (seed 1405).  At lambda = 7/6,
    its one breakpoint, the image (10/7, -40/7, -5/7) leaves and
    (318/7, -40/7, -269/7) enters.  In case ONE both map to the
    biobjective point (25/42, -40/7), so the change is seam-free and 7/6
    is a plain segment boundary, not a segment of its own."""
    p = Pblp(
        case=Case.ONE, n=4,
        rows=((F(7), F(-1), F(0), F(0)), (F(1), F(1), F(1), F(1))),
        rhs=(F(5), F(7)),
        senses=(Sense.GE, Sense.LE),
        c1=(F(2), F(2), F(7), F(4)),
        c2=(F(-8), F(-6), F(0), F(2)),
        d1=(F(-1), F(2), F(-6), F(0)),
    )
    for method in (Method.LP, Method.ADAPTED):
        sol = enumerate_breakpoints(p, method)
        assert _interval_map(sol) == {
            (F(10, 7), F(-40, 7), F(-5, 7)): (F(0), F(7, 6)),
            (F(14), F(-56), F(-7)): (F(0), INF),
            (F(318, 7), F(-40, 7), F(-269, 7)): (F(7, 6), INF),
        }
        assert sol.breakpoints == (F(7, 6),)
        assert _bolp_sets(p.case, sol.intervals, F(7, 6)) == (
            {(F(25, 42), F(-40, 7))}, {(F(25, 42), F(-40, 7))}
        )
        assert _axis_tuples(sol) == [
            (F(0), F(7, 6), True, True, (0, 1)),
            (F(7, 6), INF, False, False, (1, 2)),
        ]


def test_methods_agree_on_random_instances():
    rng = random.Random(23)
    for trial in range(10):
        case = Case.ONE if trial % 2 == 0 else Case.TWO
        p = random_pblp(rng, case)
        lp = enumerate_breakpoints(p, Method.LP)
        ad = enumerate_breakpoints(p, Method.ADAPTED)
        assert _interval_map(lp) == _interval_map(ad)
        assert lp.breakpoints == ad.breakpoints
        assert lp.axis == ad.axis
        _axis_invariants(ad)


def test_breakpoints_sit_at_component_vertices():
    """Every finite interval end must be the lambda value of some
    component polygon vertex, and there can be no more breakpoints than
    vertices in total."""
    rng = random.Random(29)
    for trial in range(8):
        case = Case.ONE if trial % 2 == 0 else Case.TWO
        p = random_pblp(rng, case)
        sol = enumerate_breakpoints(p, Method.ADAPTED)
        vertex_lambdas = set()
        total_vertices = 0
        for poly in sol.decomposition.components:
            for w1, w2 in poly.vertices:
                total_vertices += 1
                lam = lambda_from_weight(p.case, w3(w1, w2, 1 - w1 - w2))
                if lam is not None and lam is not INF:
                    vertex_lambdas.add(lam)
        assert len(sol.breakpoints) <= total_vertices
        for beta in sol.breakpoints:
            assert beta in vertex_lambdas
