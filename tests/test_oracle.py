"""Brute-force oracles: vertex enumeration, extreme images, grid sweeps."""

import random
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from pblp import (
    Case,
    FeasibleSystem,
    Pblp,
    Sense,
    component_vertices,
    decompose,
    dichotomic_bolp,
    extreme_nondominated_bruteforce,
    sweep_lambda,
)
from pblp import lp_core, oracle
from pblp.errors import (
    InfeasibleProblem, NotRational, SystemMismatch, TooLarge, UnboundedScalarization,
)
from pblp.numerics import integer_row
from pblp.problem_model import integral_image, lambda_weights, system_lp
from conftest import (
    UnboundedFeasibleSet, VertexSet, basis_vertices, bolp_costs, bolp_objectives,
    component, cost_image, int_image, load_instance, vertices_and_rays,
)
from instance_gen import degenerate_pblp, random_pblp

F = Fraction
BUNDLED = ("example1.pblp", "example2.pblp", "example2_case1.pblp")


def test_vertices_of_the_example1_region(example1):
    found = vertices_and_rays(example1.rows, example1.rhs, example1.senses, example1.n)
    assert found == VertexSet(
        ((F(0), F(3)), (F(2), F(0)), (F(10), F(0)), (F(10), F(3))), ()
    )


def test_vertices_of_a_box_with_a_cut():
    # unit square cut by x + y <= 3/2
    rows = ((F(1), F(0)), (F(0), F(1)), (F(1), F(1)))
    rhs = (F(1), F(1), F(3, 2))
    senses = (Sense.LE, Sense.LE, Sense.LE)
    found = vertices_and_rays(rows, rhs, senses, 2)
    assert found.vertices == (
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1, 2), F(1)),
        (F(1), F(0)),
        (F(1), F(1, 2)),
    )
    assert found.rays == ()


def test_vertex_enumeration_flags_unbounded_sets():
    # the half-line x >= 0 and the wedge 0 <= x2 <= 2 x1 + 1
    assert vertices_and_rays(((F(1),),), (F(0),), (Sense.GE,), 1) == VertexSet(
        ((F(0),),), ((1,),)
    )
    found = vertices_and_rays(((F(-2), F(1)),), (F(1),), (Sense.LE,), 2)
    assert found == VertexSet(((F(0), F(0)), (F(0), F(1))), ((1, 0), (1, 2)))
    with pytest.raises(UnboundedFeasibleSet):
        basis_vertices(((F(-2), F(1)),), (F(1),), (Sense.LE,), 2)


def test_vertex_enumeration_respects_the_ray_budget(example1, monkeypatch):
    rows = ((F(1), F(1)),)
    rhs = (F(1),)
    monkeypatch.setattr(oracle, "RAY_BUDGET", 2)
    with pytest.raises(TooLarge):
        vertices_and_rays(rows, rhs, (Sense.LE,), 2)
    monkeypatch.setattr(oracle, "RAY_BUDGET", 3)
    assert len(vertices_and_rays(rows, rhs, (Sense.LE,), 2).vertices) == 3
    with pytest.raises(TooLarge):
        extreme_nondominated_bruteforce(example1)


def test_vertex_enumeration_of_an_empty_set_is_empty():
    rows = ((F(1),), (F(1),))
    rhs = (F(2), F(1))
    senses = (Sense.GE, Sense.LE)
    assert vertices_and_rays(rows, rhs, senses, 1) == VertexSet((), ())


def test_an_empty_set_with_recession_rays_is_empty_not_unbounded():
    # x1 - x2 >= 1 and x1 - x2 <= 0 meet nowhere, while {A x (sense) 0}
    # is the half-line x1 = x2 >= 0, whose direction lowers c1
    p = Pblp(
        case=Case.ONE,
        n=2,
        rows=((F(1), F(-1)), (F(1), F(-1))),
        rhs=(F(1), F(0)),
        senses=(Sense.GE, Sense.LE),
        c1=(F(-1), F(0)),
        c2=(F(0), F(1)),
        d1=(F(1), F(1)),
    )
    assert vertices_and_rays(p.rows, p.rhs, p.senses, p.n) == VertexSet((), ())
    assert basis_vertices(p.rows, p.rhs, p.senses, p.n) == ()
    assert extreme_nondominated_bruteforce(p) == ()


def test_a_ray_that_lowers_a_cost_row_is_an_unbounded_scalarization():
    # x1 - x2 <= 1 on the orthant has the rays (0, 1) and (1, 1); c1
    # falls along (0, 1) while c2 and d1 rise along both
    p = Pblp(
        case=Case.TWO,
        n=2,
        rows=((F(1), F(-1)),),
        rhs=(F(1),),
        senses=(Sense.LE,),
        c1=(F(1), F(-2)),
        c2=(F(0), F(1)),
        d1=(F(1), F(1)),
    )
    assert vertices_and_rays(p.rows, p.rhs, p.senses, p.n).rays == ((0, 1), (1, 1))
    with pytest.raises(UnboundedScalarization):
        extreme_nondominated_bruteforce(p)
    bounded = replace(p, c1=(F(1), F(0)))
    assert extreme_nondominated_bruteforce(bounded) == (
        (F(0), F(0), F(0)),
    )


def _compare_with_the_reference(rows, rhs, senses, n):
    """Check vertices_and_rays against the basis enumeration; returns
    "bounded", "unbounded" or "empty" and the checked VertexSet.

    The vertices of an unbounded set are those of the set boxed by
    x1 + ... + xn <= U, U beyond every vertex, that stay below U.  The
    rays of a nonempty set, scaled to x1 + ... + xn = 1, are the
    vertices of its recession cone so cut.
    """
    found = vertices_and_rays(rows, rhs, senses, n)
    box = (F(1),) * n
    try:
        reference = basis_vertices(rows, rhs, senses, n)
        kind = "bounded" if reference else "empty"
    except UnboundedFeasibleSet:
        far = F(10**12)
        boxed = basis_vertices(rows + [box], rhs + [far], senses + [Sense.LE], n)
        reference = tuple(x for x in boxed if sum(x) < far)
        kind = "unbounded"
    assert found.vertices == reference
    if kind == "empty":
        assert found.rays == ()
    else:
        cone = basis_vertices(
            rows + [box], [F(0)] * len(rows) + [F(1)], senses + [Sense.EQ], n
        )
        assert sorted(tuple(F(a, sum(r)) for a in r) for r in found.rays) == list(cone)
        assert all(gcd(*r) == 1 for r in found.rays)
        assert bool(found.rays) == (kind == "unbounded")
    return kind, found


def _seeded_system(rng, trial):
    """A small system built around the feature trial % 5 picks: a
    duplicated row, a scaled one, a dependent equality, a zero row or
    rows through the origin; half of them get a box row."""
    n = rng.randint(1, 4)
    rows = [
        tuple(F(rng.randint(-4, 4)) for _ in range(n)) for _ in range(rng.randint(1, 4))
    ]
    rhs = [F(rng.randint(-2, 8)) for _ in rows]
    pool = (Sense.LE, Sense.GE, Sense.LE, Sense.LE, Sense.EQ)
    senses = [rng.choice(pool) for _ in rows]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    kind = trial % 5
    if kind == 0:
        extra = [(rows[i], rhs[i], senses[i])]
    elif kind == 1:
        # a negative factor flips an inequality
        f = F(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 3)))
        flipped = {Sense.LE: Sense.GE, Sense.GE: Sense.LE, Sense.EQ: Sense.EQ}
        sense = senses[i] if f > 0 else flipped[senses[i]]
        extra = [(tuple(f * a for a in rows[i]), f * rhs[i], sense)]
    elif kind == 2:
        senses[i] = senses[j] = Sense.EQ
        combined = tuple(a + 2 * c for a, c in zip(rows[i], rows[j]))
        extra = [(combined, rhs[i] + 2 * rhs[j], Sense.EQ)]
    elif kind == 3:
        extra = [((F(0),) * n, F(rng.randint(-1, 2)), rng.choice(list(Sense)))]
    else:
        extra = [
            (tuple(F(rng.randint(-4, 4)) for _ in range(n)), F(0), Sense.LE)
            for _ in range(2)
        ]
    if rng.random() < 0.5:
        extra.append(((F(1),) * n, F(rng.randint(3, 8)), Sense.LE))
    for row, b, sense in extra:
        at = rng.randint(0, len(rows))
        rows.insert(at, row)
        rhs.insert(at, b)
        senses.insert(at, sense)
    return n, rows, rhs, senses


def _degenerate(rows, rhs, senses, n, vertices) -> bool:
    """Some vertex has more than n tight constraints, x_j >= 0 included."""
    return any(
        sum(v == 0 for v in x)
        + sum(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(rows, rhs))
        > n
        for x in vertices
    )


def test_vertex_sets_match_the_basis_reference_on_seeded_systems():
    rng = random.Random(2024)
    seen = {"bounded": 0, "unbounded": 0, "empty": 0, "degenerate": 0}
    for trial in range(500):
        n, rows, rhs, senses = _seeded_system(rng, trial)
        kind, found = _compare_with_the_reference(rows, rhs, senses, n)
        seen[kind] += 1
        seen["degenerate"] += _degenerate(rows, rhs, senses, n, found.vertices)
    assert min(seen.values()) >= 40, seen


def test_vertex_sets_match_the_basis_reference_on_the_acceptance_batch():
    rng = random.Random(1405)
    for trial in range(200):
        p = random_pblp(rng, Case.ONE if trial % 2 == 0 else Case.TWO)
        system = (list(p.rows), list(p.rhs), list(p.senses), p.n)
        assert _compare_with_the_reference(*system)[0] == "bounded"


def test_the_image_oracle_runs_no_simplex(monkeypatch):
    rng = random.Random(1405)
    problems = [load_instance(name) for name in BUNDLED] + [
        random_pblp(rng, Case.ONE if i % 2 == 0 else Case.TWO) for i in range(20)
    ]
    expected = [decompose(p).image_points() for p in problems]

    def no_simplex(*args, **kwargs):
        raise RuntimeError("the vertex oracle ran the simplex")

    system = lp_core.FeasibleSystem(system_lp(problems[0], problems[0].c1))
    for module in (lp_core, oracle):
        for name in ("solve_lp", "solve_lex_lp", "FeasibleSystem"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_simplex)
    monkeypatch.setattr(lp_core, "_Tableau", no_simplex)
    with pytest.raises(RuntimeError, match="ran the simplex"):
        dichotomic_bolp(problems[0], F(0), system, [])
    assert [extreme_nondominated_bruteforce(p) for p in problems] == expected


def test_extreme_images_of_example1(example1):
    assert extreme_nondominated_bruteforce(example1) == (
        (F(-33), F(4), F(13)),
        (F(-30), F(10), F(10)),
        (F(-6), F(2), F(2)),
        (F(-3), F(-6), F(3)),
    )


def test_extreme_images_drop_dominated_vertices():
    # on the square, c1 and c2 both favor the origin corner area; the
    # vertex (1,1) is dominated and must not appear
    p = Pblp(
        case=Case.ONE,
        n=2,
        rows=((F(1), F(0)), (F(0), F(1))),
        rhs=(F(1), F(1)),
        senses=(Sense.LE, Sense.LE),
        c1=(F(1), F(0)),
        c2=(F(0), F(1)),
        d1=(F(1), F(1)),
    )
    images = extreme_nondominated_bruteforce(p)
    assert (F(0), F(0), F(0)) in images
    assert (F(1), F(1), F(2)) not in images


def _unfiltered_extreme_images(p):
    """The image oracle without its Pareto filter: every vertex image's
    component is tested against all the others."""
    verts = vertices_and_rays(p.rows, p.rhs, p.senses, p.n)
    images = sorted({cost_image(p.integer_costs, x) for x in verts.vertices})
    return tuple(
        y
        for y in images
        if component(y, [z for z in images if z != y]).area() > 0
    )


def _dominated_images(p):
    verts = vertices_and_rays(p.rows, p.rhs, p.senses, p.n)
    images = {cost_image(p.integer_costs, x) for x in verts.vertices}
    return [
        y for y in images
        if any(z != y and all(a <= b for a, b in zip(z, y)) for z in images)
    ]


def test_pareto_filter_keeps_the_extreme_images_of_the_acceptance_family():
    rng = random.Random(1405)
    with_dominated = 0
    for trial in range(40):
        case = Case.ONE if trial % 2 == 0 else Case.TWO
        p = random_pblp(rng, case)
        assert extreme_nondominated_bruteforce(p) == _unfiltered_extreme_images(p)
        with_dominated += bool(_dominated_images(p))
    assert with_dominated >= 10  # the filter has work to do in this family


def test_pareto_filter_matches_the_all_pairs_definition():
    """The survivor-only filter keeps exactly the distinct images that
    no other image dominates, on seeded sets full of ties and repeats."""
    rng = random.Random(1405)
    repeats = ties = 0
    for _ in range(300):
        points = [
            tuple(F(rng.randint(-3, 3)) for _ in range(3))
            for _ in range(rng.randint(1, 40))
        ]
        expected = sorted(
            y for y in set(points)
            if not any(z != y and all(a <= b for a, b in zip(z, y)) for z in points)
        )
        assert oracle._nondominated(map(int_image, points)) == [
            int_image(y) for y in expected
        ]
        repeats += len(set(points)) < len(points)
        ties += any(
            y != z and any(a == b for a, b in zip(y, z))
            for y in expected for z in expected
        )
    assert repeats > 100 and ties > 100


def test_pareto_filter_orders_images_over_unequal_denominators():
    """The filter sorts reduced int images by value, as the Fractions
    sort, and keeps the same survivors, when denominators differ."""
    rng = random.Random(1406)
    mixed = 0
    for _ in range(300):
        points = [
            tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
            for _ in range(rng.randint(1, 30))
        ]
        expected = sorted(
            y for y in set(points)
            if not any(z != y and all(a <= b for a, b in zip(z, y)) for z in points)
        )
        assert oracle._nondominated(map(int_image, points)) == [
            int_image(y) for y in expected
        ]
        mixed += len({int_image(y)[-1] for y in expected}) > 1
    assert mixed > 100


def test_pareto_filter_drops_dominated_and_shifted_images():
    # the simplex x >= 0, x1 + ... + x4 <= 1: vertex e_j maps to column j
    # of (c1, c2, d1), the origin to (0, 0, 0)
    p = Pblp(
        case=Case.TWO,
        n=4,
        rows=((F(1),) * 4,),
        rhs=(F(1),),
        senses=(Sense.LE,),
        c1=(F(1), F(0), F(-1), F(2)),
        c2=(F(1), F(1), F(2), F(-1)),
        d1=(F(1), F(2), F(-1), F(0)),
    )
    shifted, dominated = (F(1), F(1), F(1)), (F(0), F(1), F(2))
    assert sorted(_dominated_images(p)) == [dominated, shifted]
    images = extreme_nondominated_bruteforce(p)
    assert images == _unfiltered_extreme_images(p)
    assert images == (
        (F(-1), F(2), F(-1)),
        (F(0), F(0), F(0)),
        (F(2), F(-1), F(0)),
    )


def _image_sets(rng, count):
    """Seeded lists of Fraction images over unequal denominators, each
    with a collinear run, an image shifted along (1, 1, 1), a weakly
    dominated tie (equal in one objective, no better in the others) and
    repeats."""
    def value():
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    for _ in range(count):
        images = [tuple(value() for _ in range(3)) for _ in range(rng.randint(1, 6))]
        base, step = images[0], tuple(value() / 2 for _ in range(3))
        images += [
            tuple(b + k * s for b, s in zip(base, step))
            for k in range(1, rng.randint(2, 4))
        ]
        shift = value()
        images.append(tuple(a + shift for a in rng.choice(images)))
        tied, j = rng.choice(images), rng.randrange(3)
        images.append(tuple(a if i == j else a + abs(value()) for i, a in enumerate(tied)))
        images += rng.sample(images, rng.randint(1, len(images)))
        rng.shuffle(images)
        yield images


def test_the_common_denominator_pareto_filter_matches_a_fraction_reference():
    rng = random.Random(1407)
    dropped = 0
    for points in _image_sets(rng, 400):
        expected = sorted(
            y for y in set(points)
            if not any(z != y and all(a <= b for a, b in zip(z, y)) for z in points)
        )
        assert oracle._nondominated(map(int_image, points)) == [
            int_image(y) for y in expected
        ], points
        dropped += len(expected) < len(set(points))
    assert dropped > 300


def test_the_early_exit_component_test_matches_the_area_test():
    """_has_full_component reads what the area of component_vertices
    reads, against the raw list with its repeats and against the list
    the Pareto filter leaves."""
    rng = random.Random(1408)
    outcomes = {False: 0, True: 0}
    for points in _image_sets(rng, 300):
        raw = [int_image(y) for y in points]
        for images in (raw, oracle._nondominated(raw)):
            for y in set(images):
                full = component_vertices(y, images).area() > 0
                assert oracle._has_full_component(y, images) == full, (y, points)
                outcomes[full] += 1
    assert min(outcomes.values()) > 500


def test_dichotomic_finds_both_corners_and_the_middle(example2):
    system = FeasibleSystem(system_lp(example2, example2.c1))
    front = [y for y, _ in dichotomic_bolp(example2, F(0), system, [])]
    assert front == [(F(0), F(5)), (F(15), F(0))]
    front = [y for y, _ in dichotomic_bolp(example2, F(2), system, [])]
    assert front == [(F(5), F(10)), (F(19), F(4))]


def test_dichotomic_rejects_the_system_of_other_constraints(example2):
    """dichotomic_bolp solves on p's own constraints: a system with
    every rhs doubled has example2's shape, but its LPs raise
    SystemMismatch instead of giving that system's front, (10, 20) and
    (34, 4) at lambda = 1 where example2's is (5, 10) and (17, 2)."""
    system = FeasibleSystem(system_lp(example2, example2.c1))
    front = [y for y, _ in dichotomic_bolp(example2, F(1), system, [])]
    assert front == [(F(5), F(10)), (F(17), F(2))]
    doubled = replace(example2, rhs=tuple(2 * b for b in example2.rhs))
    foreign = FeasibleSystem(system_lp(doubled, doubled.c1))
    with pytest.raises(SystemMismatch):
        dichotomic_bolp(example2, F(1), foreign, [])
    front = [y for y, _ in dichotomic_bolp(doubled, F(1), foreign, [])]
    assert front == [(F(10), F(20)), (F(34), F(4))]


def test_dichotomic_on_a_three_point_front():
    # pentagon-ish region whose lower-left frontier has three corners
    p = Pblp(
        case=Case.ONE,
        n=2,
        rows=((F(1), F(2)), (F(2), F(1))),
        rhs=(F(2), F(2)),
        senses=(Sense.GE, Sense.GE),
        c1=(F(1), F(0)),
        c2=(F(0), F(1)),
        d1=(F(1), F(1)),
    )
    system = FeasibleSystem(system_lp(p, p.c1))
    pairs = dichotomic_bolp(p, F(0), system, [])
    assert [y for y, _ in pairs] == [(F(0), F(2)), (F(2, 3), F(2, 3)), (F(2), F(0))]
    for y, (vertex, _, _) in pairs:
        assert cost_image(bolp_costs(p, F(0)), *vertex) == y


def _fraction_dichotomic(p, lam, system):
    """The reference dichotomic search at lambda, in Fractions and with
    no held basis: the objectives bolp_costs builds, ties broken by
    (f1, f2) and then p.integer_costs' rows (c1, c2, d1), each vertex
    read through LpResult.x, images as Fraction dot products, the probe
    weight scaled to ints by integer_row and the "strictly below" test
    in Fractions.  Returns the sorted pairs of an image and the
    triobjective image of its witness vertex, both Fractions."""
    costs = bolp_costs(p, lam)
    (f1, f2), _ = costs
    ties, _ = p.integer_costs

    def lex(objective, first_ties):
        lp = replace(system.lp, objective=tuple(objective))
        return lp_core.solve_lex_lp(lp, (*first_ties, *ties), system).x

    def image(x):
        return tuple(
            sum((c * v for c, v in zip(row, x)), F(0)) for row in bolp_objectives(costs)
        )

    xa, xb = lex(f1, (f2,)), lex(f2, (f1,))
    a, b = image(xa), image(xb)
    found = {a: xa}

    def probe(lo, hi):
        w1, w2 = lo[1] - hi[1], hi[0] - lo[0]
        (k1, k2), _ = integer_row((w1, w2))
        x = lex(tuple(k1 * f + k2 * g for f, g in zip(f1, f2)), (f1, f2))
        y = image(x)
        if w1 * y[0] + w2 * y[1] < w1 * lo[0] + w2 * lo[1]:
            found[y] = x
            probe(lo, y)
            probe(y, hi)

    if a != b:
        found[b] = xb
        probe(a, b)
    return tuple(sorted((y, cost_image(p.integer_costs, x)) for y, x in found.items()))


@pytest.mark.parametrize(
    "error, rows, rhs, senses",
    [
        # min -x over x >= 1 at lambda = 0: the first corner is unbounded
        (UnboundedScalarization, ((F(1),),), (F(1),), (Sense.GE,)),
        # x >= 2 and x <= 1: the feasible set is empty
        (InfeasibleProblem, ((F(1),), (F(1),)), (F(2), F(1)), (Sense.GE, Sense.LE)),
    ],
)
def test_the_parametric_oracle_raises_typed_errors(error, rows, rhs, senses):
    """A biobjective problem without a lexicographic optimum is a typed
    PblpError, from dichotomic_bolp and from the sweep that calls it,
    never a result."""
    p = Pblp(
        case=Case.TWO, n=1, rows=rows, rhs=rhs, senses=senses,
        c1=(F(-1),), c2=(F(0),), d1=(F(1),),
    )
    system = FeasibleSystem(system_lp(p, p.c1))
    with pytest.raises(error):
        dichotomic_bolp(p, F(0), system, [])
    assert system.solves == 1
    with pytest.raises(error):
        sweep_lambda(p, F(1), 2)


def _families(size):
    """size acceptance and size degenerate records, case ONE."""
    rng = random.Random(1405)
    family = [random_pblp(rng, Case.ONE) for _ in range(size)]
    rng = random.Random(7)
    return family + [degenerate_pblp(rng, Case.ONE) for _ in range(size)]


# LP solves of the searches below, each on a fresh system with no held
# basis; the Fraction reference runs 794 on the same searches.
FAMILY_DICHOTOMIC_LP_SOLVES = 460


def test_integer_dichotomic_matches_the_fraction_reference():
    """dichotomic_bolp in homogeneous ints, each search from no held
    basis, finds the biobjective images of the Fraction search and
    witnesses with the same triobjective images, on the acceptance
    family and the degenerate family, under both case tags, at five
    lambdas.  The bases its own solves end on answer later solves of
    the same search, so every search runs fewer LPs than the reference,
    and all run the measured number."""
    family = _families(12)
    seen = dict(runs=0, probed=0, fractional=0)
    lp_solves = 0
    for p in family:
        for case in Case:
            q = replace(p, case=case)
            for lam in (F(0), F(1, 3), F(1), F(5, 2), F(7)):
                system = FeasibleSystem(system_lp(q, q.c1))
                reference = FeasibleSystem(system_lp(q, q.c1))
                got = dichotomic_bolp(q, lam, system, [])
                want = _fraction_dichotomic(q, lam, reference)
                assert [y for y, _ in got] == [y for y, _ in want], (q, lam)
                assert _witness_images(q, got) == tuple(sorted({y for _, y in want}))
                assert system.solves < reference.solves, (q, lam)
                lp_solves += system.solves
                seen["runs"] += 1
                seen["probed"] += len(got) > 2
                seen["fractional"] += any(
                    v.denominator > 1 for y, _ in got for v in y
                )
    assert seen["runs"] == 240
    assert seen["probed"] >= 50 and seen["fractional"] >= 150, seen
    assert lp_solves == FAMILY_DICHOTOMIC_LP_SOLVES


def test_sweep_brackets_the_example2_breakpoints(example2):
    report = sweep_lambda(example2, F(6), 60)
    assert report.changes == ((F(1), F(11, 10)), (F(49, 10), F(5)))
    # witness sets are constant between breakpoints
    assert report.witness_images[0] == report.witness_images[9]
    assert report.witness_images[11] == report.witness_images[49]
    assert report.witness_images[50] == report.witness_images[60]


def test_sweep_brackets_the_case_one_breakpoints(example2_case1):
    report = sweep_lambda(example2_case1, F(4), 40)
    assert report.changes == ((F(1), F(11, 10)), (F(12, 5), F(5, 2)))


def _witness_images(p, pairs):
    """The sorted triobjective images of the vertices of the held bases
    (vertex, cone, image) that witness dichotomic_bolp's pairs."""
    return tuple(sorted({cost_image(p.integer_costs, *basis[0]) for _, basis in pairs}))


def _cold_sweep(p, lambda_max, steps):
    """The witness images, biobjective images, changes and LP solves of
    a sweep from the Fraction reference search alone: at each grid point
    a fresh FeasibleSystem and no held basis."""
    grid = oracle.lambda_grid(lambda_max, steps)
    witness_images, bolp_images, solves = [], [], 0
    for lam in grid:
        system = FeasibleSystem(system_lp(p, p.c1))
        pairs = _fraction_dichotomic(p, lam, system)
        solves += system.solves
        witness_images.append(tuple(sorted({y for _, y in pairs})))
        bolp_images.append(tuple(y for y, _ in pairs))
    changes = tuple(
        (grid[i - 1], grid[i])
        for i in range(1, len(grid))
        if witness_images[i] != witness_images[i - 1]
    )
    return tuple(witness_images), tuple(bolp_images), changes, solves


# LP solves of the sweeps below, 3104 cold: a basis that answers a solve
# the LP would end elsewhere can send the dichotomic search another way.
FAMILY_SWEEP_LP_SOLVES = 151


def test_the_sweep_bases_match_the_cold_reference():
    """A sweep whose solves are answered by the cones of bases it holds
    reports the witness images, biobjective images and changes of cold
    reference searches, one fresh system per grid point, on the
    acceptance and degenerate families under both case tags, and the
    bases answer solves: the sweep runs fewer LPs on every record, and
    the measured number in all.  The same grid walked down from
    lambda = 5, with bases held across its dichotomic searches, matches
    the reference too: there a basis of a larger lambda can tie every
    stage but the ties' unit weights, which an ascending sweep never
    meets."""
    family = _families(12)
    moved = lp_solves = 0
    for p in family:
        for case in Case:
            q = replace(p, case=case)
            report = sweep_lambda(q, F(5), 20)
            witness_images, bolp_images, changes, solves = _cold_sweep(q, F(5), 20)
            assert report.witness_images == witness_images, q
            assert report.bolp_images == bolp_images, q
            assert report.changes == changes, q
            assert report.lp_solves < solves, q
            lp_solves += report.lp_solves
            moved += bool(changes)
            system, bases = FeasibleSystem(system_lp(q, q.c1)), []
            for i in reversed(range(len(report.grid))):
                pairs = dichotomic_bolp(q, report.grid[i], system, bases)
                assert _witness_images(q, pairs) == witness_images[i], (q, i)
                assert tuple(y for y, _ in pairs) == bolp_images[i], (q, i)
    assert moved >= 30, moved
    assert lp_solves == FAMILY_SWEEP_LP_SOLVES


def test_the_ties_unit_weights_decide_a_held_basis():
    """On the segment x1 + x2 = 1, case ONE's f1 = x1 + lambda x2 ties
    at lambda = 1 and f2 = 0 throughout, so there the ties c1, c2, d1
    alone pick the witness: (0, 1), where c1 is 0.  The basis that
    lambda = 2 ends on, at (1, 0), ties every stage weight at lambda = 1
    and fails only on c1's unit weight, so it answers nothing there."""
    p = Pblp(
        case=Case.ONE, n=2, rows=((F(1), F(1)),), rhs=(F(1),), senses=(Sense.EQ,),
        c1=(F(1), F(0)), c2=(F(0), F(0)), d1=(F(0), F(1)),
    )
    system, bases = FeasibleSystem(system_lp(p, p.c1)), []
    for lam, witness in ((F(2), (1, 0)), (F(1), (0, 1))):
        pairs = dichotomic_bolp(p, lam, system, bases)
        assert [tuple(F(v, den) for v in x) for _, ((x, den), _, _) in pairs] == [witness]
    assert system.solves == len(bases) == 2


def _held_sweep(p, lambda_max, steps):
    """(lambda, pairs) at each point of p's grid, from dichotomic_bolp
    as sweep_lambda calls it, one system and one list of bases across
    the grid."""
    system, bases = FeasibleSystem(system_lp(p, p.c1)), []
    for lam in oracle.lambda_grid(lambda_max, steps):
        yield lam, dichotomic_bolp(p, lam, system, bases)


def test_the_held_image_map_is_the_biobjective_image():
    """Every answer of a held-basis sweep, a held basis or a solve that
    runs, holds its vertex's triobjective image, and lambda_weights maps
    it to the image that the Fraction objectives of lambda give the
    vertex; the answer's Fractions are that image's.  On the acceptance
    and degenerate families under both case tags, on two grids from
    lambda = 0."""
    answers = 0
    for p in _families(8):
        for case in Case:
            q = replace(p, case=case)
            for lambda_max, steps in ((F(5), 20), (F(7, 3), 14)):
                for lam, pairs in _held_sweep(q, lambda_max, steps):
                    costs = bolp_costs(q, lam)
                    weights = lambda_weights(case, lam)
                    for (f1, f2), (vertex, _, image) in pairs:
                        assert image == integral_image(q.integer_costs, *vertex)
                        want = integral_image(costs, *vertex)
                        assert integral_image(weights, image, image[-1]) == want
                        assert (f1, f2) == (F(want[0], want[2]), F(want[1], want[2]))
                        answers += 1
    assert answers >= 2000, answers


def test_the_pairs_rise_in_f1_and_fall_in_f2():
    """dichotomic_bolp collects its pairs in order and sorts nothing: on
    single searches, each from no held basis, and on a held-basis sweep,
    over the acceptance and degenerate families under both case tags,
    the images rise strictly in f1 and fall strictly in f2, on fronts of
    up to the measured six images."""
    sizes = []
    for p in _families(12):
        for case in Case:
            q = replace(p, case=case)
            fronts = []
            for lam, pairs in _held_sweep(q, F(5), 10):
                system = FeasibleSystem(system_lp(q, q.c1))
                fronts.append(dichotomic_bolp(q, lam, system, []))
                fronts.append(pairs)
            for pairs in fronts:
                images = [y for y, _ in pairs]
                assert all(a[0] < b[0] and a[1] > b[1] for a, b in zip(images, images[1:]))
                sizes.append(len(images))
    assert max(sizes) == 6 and sum(size >= 4 for size in sizes) >= 50, sizes


def test_lambda_grid_is_the_fraction_grid():
    """lambda_grid's Fraction(i a, q steps) is Fraction(i) * lambda_max
    / steps, for int and Fraction lambda_max, zero and Fraction(6, 4)
    among them."""
    for lambda_max in (0, 1, 3, F(0), F(6, 4), F(7, 3), F(5), F(1, 12)):
        for steps in (1, 2, 4, 14, 60):
            grid = oracle.lambda_grid(lambda_max, steps)
            assert grid == tuple(F(i) * lambda_max / steps for i in range(steps + 1))
            assert all(type(lam) is F for lam in grid)


@pytest.mark.parametrize("lambda_max", [0.5, 2.0, -0.5, "1", "1/2", None])
def test_lambda_grid_rejects_a_lambda_max_that_is_not_rational(example2, lambda_max):
    """A float or a str lambda_max is NotRational, never a float grid or
    an untyped error, from the grid and from the sweep that builds it."""
    with pytest.raises(NotRational):
        oracle.lambda_grid(lambda_max, 2)
    with pytest.raises(NotRational):
        sweep_lambda(example2, lambda_max, 2)


def test_a_held_basis_never_hides_an_unbounded_grid_point():
    """On x1 <= 1, x >= 0, where x2 grows without bound, case ONE's
    f1 = (1 - lambda) x2 is bounded below for lambda <= 1 and unbounded
    above 1, and f2 = x2 throughout.  The bases of the bounded grid
    points answer nothing at an unbounded one, which raises as a cold
    solve does."""
    p = Pblp(
        case=Case.ONE, n=2, rows=((F(1), F(0)),), rhs=(F(1),), senses=(Sense.LE,),
        c1=(F(0), F(1)), c2=(F(0), F(1)), d1=(F(0), F(-1)),
    )
    assert sweep_lambda(p, F(1, 2), 2).lp_solves >= 1
    with pytest.raises(UnboundedScalarization):
        sweep_lambda(p, F(2), 2)


# The sweep grids of the benchmark, per pass: 26 pivots and 14 LP solves,
# on 22 _simplex runs (phase ones and lexicographic stages).  Before the
# sweep kept the bases its solves ended on, every grid point solved its
# corners and probes: 484 LP solves, 538 pivots and 705 runs, from 143
# dichotomic searches whose solves end on 8 distinct vertices.  Each run
# builds one full reduced-cost row, which its pivots then update, and
# each solve that runs prices (c1, c2, d1) at its final basis, one row
# each: 1945 rows were summed when every pricing pass summed one.
SWEEP_GRIDS = (("example2", 6, 60), ("example2_case1", 4, 40), ("example1", 4, 40))
SWEEP_SIMPLEX_RUNS, SWEEP_PIVOTS, SWEEP_LP_SOLVES = 22, 26, 14


def test_sweep_stage_gate(request, monkeypatch):
    """Deterministic gate for the sweep's lexicographic solves: the
    stages after a vertex face do not run, no simplex iteration sums a
    reduced-cost row afresh, beside the three priced rows of each solve,
    and the pivots and LP solves stay at the measured values."""
    counts = dict(simplex=0, pivots=0, priced=0)
    pivot, simplex = lp_core._Tableau._pivot, lp_core._Tableau._simplex
    reduced_row = lp_core._Tableau._reduced_row

    def counting_pivot(self, r, col):
        counts["pivots"] += 1
        pivot(self, r, col)

    def counting_simplex(self, cost, banned):
        counts["simplex"] += 1
        return simplex(self, cost, banned)

    def counting_reduced_row(self, cost):
        counts["priced"] += 1
        return reduced_row(self, cost)

    monkeypatch.setattr(lp_core._Tableau, "_pivot", counting_pivot)
    monkeypatch.setattr(lp_core._Tableau, "_simplex", counting_simplex)
    monkeypatch.setattr(lp_core._Tableau, "_reduced_row", counting_reduced_row)
    lp_solves = 0
    for name, lambda_max, steps in SWEEP_GRIDS:
        report = sweep_lambda(request.getfixturevalue(name), F(lambda_max), steps)
        lp_solves += report.lp_solves
    assert counts["simplex"] <= SWEEP_SIMPLEX_RUNS, counts
    assert counts["priced"] <= SWEEP_SIMPLEX_RUNS + 3 * SWEEP_LP_SOLVES, counts
    assert counts["pivots"] <= SWEEP_PIVOTS, counts
    assert lp_solves == SWEEP_LP_SOLVES


def test_sweep_reads_no_fraction_vertex(request, monkeypatch, example2):
    """Deterministic gate for the integer sweep: across the bundled sweep
    grids every LP vertex and value stays in ints, so no LpResult.x or
    LpResult.value is read; each counter sees a read of its own.  A
    lambda's objectives have no Fraction view to read: the Fraction rule
    of test_source_rules keeps them in ints."""
    reads = {}

    def count(owner, name):
        view = getattr(owner, name)
        reads[name] = 0

        def counting_view(self):
            reads[name] += 1
            return view.fget(self)

        monkeypatch.setattr(owner, name, property(counting_view))

    for name in ("x", "value"):
        count(lp_core.LpResult, name)
    for name, lambda_max, steps in SWEEP_GRIDS:
        sweep_lambda(request.getfixturevalue(name), F(lambda_max), steps)
    assert set(reads.values()) == {0}, reads
    res = lp_core.solve_lp(system_lp(example2, example2.c1))
    for name in ("x", "value"):
        before = reads[name]
        assert getattr(res, name) is not None
        assert reads[name] == before + 1, name


def test_sweep_grid_is_exact(example2):
    report = sweep_lambda(example2, F(1, 3), 4)
    assert report.grid == (F(0), F(1, 12), F(1, 6), F(1, 4), F(1, 3))


def test_sweep_validates_arguments(example2):
    with pytest.raises(ValueError):
        sweep_lambda(example2, F(1), 0)
    with pytest.raises(ValueError):
        sweep_lambda(example2, F(-1), 5)
    with pytest.raises(ValueError):
        oracle.lambda_grid(F(1), 0)
    with pytest.raises(ValueError):
        oracle.lambda_grid(-1, 5)
