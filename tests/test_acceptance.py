"""Acceptance suite: one test per shipping criterion, one line per verdict.

Each criterion prints a single 'criterion N PASS/FAIL ...' line (visible
with pytest -s or by running this file directly) and enforces its runtime
budget.  The randomized criteria share one seeded instance batch so the
whole suite stays inside the five minute budget.
"""

import functools
import random
import time
from fractions import Fraction

from pblp import (
    Case,
    LpStatus,
    Method,
    decompose,
    enumerate_breakpoints,
    extreme_nondominated_bruteforce,
    segment_for_lambda,
    solve_lp,
    solve_on_decomposition,
    sweep_lambda,
)
from pblp.weight_geometry import intersect_polygons
from conftest import (
    as_tuple, build_lp, component_of, lambda_from_weight, load_instance,
    map_weight_to_simplex, vertices_and_rays, w2, w3,
)
from instance_gen import random_pblp

F = Fraction

BATCH_SIZE = 200
BATCH_SEED = 1405
TRIPLE_COUNT = 10_000
LP_COUNT = 1_000


def criterion(num, desc, budget_s):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                extra = fn() or ""
            except BaseException:
                print(f"criterion {num} FAIL {desc}")
                raise
            elapsed = time.perf_counter() - start
            verdict = "PASS" if elapsed < budget_s else "FAIL"
            line = (
                f"criterion {num} {verdict} {desc}"
                f" ({elapsed:.2f}s, budget {budget_s}s{extra})"
            )
            print(line)
            assert elapsed < budget_s, line
        return run
    return wrap


# -- shared randomized batch --------------------------------------------------

_batch_cache = None


def _batch():
    """200 seeded bounded instances solved by both interval routes on one
    decomposition, as run_check does, plus the brute-force image oracle;
    built once, reused by three criteria."""
    global _batch_cache
    if _batch_cache is None:
        started = time.perf_counter()
        rng = random.Random(BATCH_SEED)
        entries = []
        for trial in range(BATCH_SIZE):
            case = Case.ONE if trial % 2 == 0 else Case.TWO
            p = random_pblp(rng, case)
            by_lp = enumerate_breakpoints(p, Method.LP)
            by_vertex = solve_on_decomposition(
                p, by_lp.decomposition, Method.ADAPTED
            )
            oracle_images = extreme_nondominated_bruteforce(p)
            entries.append((p, by_lp, by_vertex, oracle_images))
        _batch_cache = (entries, time.perf_counter() - started)
    return _batch_cache


@criterion(1, "bundled three-image instance reproduced exactly", 1)
def test_criterion_1_example2_reproduction():
    p = load_instance("example2.pblp")
    dec = decompose(p)
    assert dec.image_points() == (
        (F(0), F(5), F(5)),
        (F(5), F(10), F(0)),
        (F(15), F(0), F(2)),
    )
    assert component_of(dec, (F(5), F(10), F(0))).vertices == (
        (F(0), F(0)),
        (F(1, 2), F(0)),
        (F(1, 5), F(3, 10)),
        (F(0), F(1, 6)),
    )
    # both published extreme weights of that component encode lambda = 1
    assert lambda_from_weight(Case.TWO, w3(F(1, 2), F(0), F(1, 2))) == 1
    assert lambda_from_weight(Case.TWO, w3(F(1, 5), F(3, 10), F(1, 2))) == 1


@criterion(2, "breakpoint sets agree across methods and the 1/10 sweep", 5)
def test_criterion_2_example2_breakpoints():
    expected = {
        "example2.pblp": ((F(1), F(5)), F(6), 60),
        "example2_case1.pblp": ((F(1), F(5, 2)), F(4), 40),
    }
    for name, (breakpoints, lam_max, steps) in expected.items():
        p = load_instance(name)
        for method in (Method.LP, Method.ADAPTED):
            assert enumerate_breakpoints(p, method).breakpoints == breakpoints
        report = sweep_lambda(p, lam_max, steps)  # grid spacing 1/10
        assert len(report.changes) == len(breakpoints)
        for (lo, hi), beta in zip(report.changes, breakpoints):
            assert lo <= beta <= hi, f"{name}: change cell misses {beta}"


@criterion(3, "bundled four-component instance matches the oracle", 1)
def test_criterion_3_example1_reproduction():
    p = load_instance("example1.pblp")
    dec = decompose(p)
    assert len(dec.components) == 4
    assert all(poly.area() > 0 for poly in dec.components)
    assert dec.image_points() == extreme_nondominated_bruteforce(p)


@criterion(4, "interval routes agree on the 200-instance batch", 300)
def test_criterion_4_method_equivalence():
    entries, build_secs = _batch()
    assert len(entries) == BATCH_SIZE
    interval_solves = 0
    for p, by_lp, by_vertex, _ in entries:
        assert by_lp.intervals == by_vertex.intervals, p
        assert by_lp.breakpoints == by_vertex.breakpoints, p
        assert by_lp.axis == by_vertex.axis, p
        budget = 2 * len(by_lp.decomposition.images)
        assert by_lp.interval_lp_solves <= budget, p
        interval_solves += by_lp.interval_lp_solves
    return f", batch build {build_secs:.2f}s, {interval_solves} interval LP solves"


@criterion(5, "decompositions match the oracle and tile the simplex", 300)
def test_criterion_5_oracle_equivalence():
    entries, build_secs = _batch()
    checked = time.perf_counter()
    for p, by_lp, _, oracle_images in entries:
        dec = by_lp.decomposition
        assert dec.image_points() == oracle_images, p
        polys = dec.components
        assert sum(poly.area() for poly in polys) == F(1, 2), p
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                assert intersect_polygons(polys[i], polys[j]).area() == 0, p
    own_secs = time.perf_counter() - checked
    assert build_secs + own_secs < 300
    return f", batch build {build_secs:.2f}s"


@criterion(6, "weight map invariants on 10^4 random triples", 30)
def test_criterion_6_weight_map_properties():
    rng = random.Random(777)

    def random_lambda():
        return F(rng.randint(0, 400), rng.randint(1, 40))

    def random_edge_weight():
        den = rng.randint(1, 24)
        num = rng.randint(0, den)
        return w2(F(num, den), 1 - F(num, den))

    for _ in range(TRIPLE_COUNT):
        case = Case.ONE if rng.random() < 0.5 else Case.TWO
        w = random_edge_weight()
        lam = random_lambda()
        m = map_weight_to_simplex(case, w, lam)
        parts = as_tuple(m)
        assert all(v >= 0 for v in parts) and sum(parts) == 1
        # the image lies on the lambda segment
        (px, py), (qx, qy) = segment_for_lambda(case, lam)
        assert (qx - px) * (m.w2 - py) == (qy - py) * (m.w1 - px)
        assert min(px, qx) <= m.w1 <= max(px, qx)
        # round trip, with the one corner that encodes no lambda
        if case is Case.ONE and w.w1 == 0:
            assert parts == (F(0), F(1), F(0))
            assert lambda_from_weight(case, m) is None
        else:
            assert lambda_from_weight(case, m) == lam
            scale = 1 - m.w3
            assert (m.w1 / scale, m.w2 / scale) == (w.w1, w.w2)
        # distinct parameters use disjoint weight sets
        lam2 = random_lambda()
        w2_ = random_edge_weight()
        if lam2 != lam:
            m2 = map_weight_to_simplex(case, w2_, lam2)
            if case is Case.TWO:
                assert m2.w3 != m.w3
            elif w.w1 > 0 and w2_.w1 > 0:
                assert as_tuple(m2) != as_tuple(m)


@criterion(7, "LP core agrees with vertex minima and prices duals", 60)
def test_criterion_7_lp_core():
    rng = random.Random(42)
    solved = 0
    while solved < LP_COUNT:
        n = rng.randint(1, 5)
        rows = [
            [F(rng.randint(-9, 9)) for _ in range(n)]
            for _ in range(rng.randint(1, 3))
        ]
        rhs = [F(rng.randint(-9, 9)) for _ in rows]
        senses = [rng.choice(["<=", ">=", "="]) for _ in rows]
        rows.append([F(1)] * n)
        rhs.append(F(rng.randint(3, 9)))
        senses.append("<=")
        obj = [F(rng.randint(-9, 9)) for _ in range(n)]
        lp = build_lp(obj, rows, rhs, senses)
        res = solve_lp(lp)
        if res.status is not LpStatus.OPTIMAL:
            continue
        solved += 1
        verts = vertices_and_rays(lp.rows, lp.rhs, lp.senses, n)
        assert verts.rays == ()
        best = min(
            sum(c * v for c, v in zip(lp.objective, x)) for x in verts.vertices
        )
        assert res.value == best
        assert sum(d * b for d, b in zip(res.dual, lp.rhs)) == res.value
    # the classic cycling instance must terminate under Bland's rule
    beale = build_lp(
        [F(-3, 4), 150, F(-1, 50), 6],
        [
            [F(1, 4), -60, F(-1, 25), 9],
            [F(1, 2), -90, F(-1, 50), 3],
            [0, 0, 1, 0],
        ],
        [0, 0, 1],
        ["<=", "<=", "<="],
    )
    res = solve_lp(beale)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == F(-1, 20)


@criterion(8, "breakpoints are exactly the finite positive vertex lambdas", 60)
def test_criterion_8_breakpoints_at_component_vertices():
    """For both routes the breakpoint set equals {(W-X-Y)/(s1 X + s2 Y)}
    over every component vertex (X, Y, W) with W - X - Y > 0 and
    s.(X, Y) > 0, s the case's shares (see the breakpoints module
    docstring), on the acceptance batch and the bundled instances."""
    entries, _ = _batch()
    solved = [(p, by_lp, by_vertex) for p, by_lp, by_vertex, _ in entries]
    for name in ("example1.pblp", "example2.pblp", "example2_case1.pblp"):
        p = load_instance(name)
        by_lp = enumerate_breakpoints(p, Method.LP)
        solved.append(
            (p, by_lp, solve_on_decomposition(p, by_lp.decomposition, Method.ADAPTED))
        )
    for p, by_lp, by_vertex in solved:
        s1, s2 = p.case.shares
        vertex_lambdas = {
            Fraction(w - x - y, s1 * x + s2 * y)
            for poly in by_lp.decomposition.components
            for x, y, w in poly.triples
            if w - x - y > 0 and s1 * x + s2 * y > 0
        }
        assert set(by_lp.breakpoints) == vertex_lambdas, p
        assert set(by_vertex.breakpoints) == vertex_lambdas, p
    return f", {len(solved)} instances"


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion_"):
            try:
                fn()
            except BaseException as exc:
                failures += 1
                print(f"  {type(exc).__name__}: {exc}")
    raise SystemExit(1 if failures else 0)
