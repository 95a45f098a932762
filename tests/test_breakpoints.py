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
    lambda_from_weight,
    solve_on_decomposition,
)
from pblp import breakpoints, lp_core
from pblp.breakpoints import ParameterInterval
from pblp.problem_model import Weight3
from pblp.errors import EmptyComponent, NoFiniteVertex, SystemMismatch
from conftest import hull_of, w3
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
        def __init__(self, lp):
            built.append(lp)
            super().__init__(lp)

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
# phase one and run on narrower tableaux.
INTERVAL_PIVOTS = {"example1": 12, "example2": 13, "example2_case1": 13}
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
        def __init__(self, lp):
            in_phase_one.append(lp)
            try:
                super().__init__(lp)
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
# appended to the base per image, each with its own phase one.
FAMILY_INTERVAL_PIVOTS = 607
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
    """Deterministic pivot gate for one base system per problem and one
    face of it per image."""
    problems = _seeded_family()
    decompositions = [decompose(p) for p in problems]
    pivots = _counted_pivots(monkeypatch)
    for p, dec in zip(problems, decompositions):
        breakpoints.solve_on_decomposition(p, dec, Method.LP)
    assert len(pivots) <= FAMILY_INTERVAL_PIVOTS, len(pivots)


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
                assert route(h, base) == expected, (p, h.image)
                images += 1
                unbounded += expected[1] is INF
    assert images > 500 and 100 < unbounded < images - 100, (images, unbounded)


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
