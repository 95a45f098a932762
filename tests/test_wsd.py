"""Weight set decomposition against frozen values and the brute oracle."""

import importlib.util
import pathlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from pblp import (
    Case,
    Pblp,
    Sense,
    decompose,
    extreme_nondominated_bruteforce,
    find_extreme_image,
)
from pblp import wsd
from pblp.cli_io import COMPUTE_ERROR, cli_main, emit_problem
from pblp.errors import InfeasibleProblem, UnboundedScalarization
from pblp.lp_core import FeasibleSystem, solve_lex_lp
from pblp.problem_model import system_lp
from conftest import (
    Weight2, component, cost_image, int_image, load_instance, w3, ws_scalarize,
)
from pblp.weight_geometry import (
    competitor_halfplane,
    component_vertices,
    convex_hull,
    intersect_polygons,
    simplex_triangle,
)
from pblp.wsd import Decomposition
from instance_gen import degenerate_pblp, random_bounded_system, random_cost, random_pblp

F = Fraction


def test_find_extreme_image_at_an_interior_weight(example2):
    system = FeasibleSystem(system_lp(example2, example2.c1))
    entry = find_extreme_image(example2, (2, 3, 10), system)  # w = (1/5, 3/10, 1/2)
    assert entry.image == (F(0), F(5), F(5))
    assert entry.int_image == (0, 5, 5, 1)
    assert cost_image(example2.integer_costs, entry.witness) == entry.image


def test_find_extreme_image_on_unbounded_scalarization():
    # min -x over x >= 1 has no weighted-sum optimum for any weight
    p = Pblp(
        case=Case.ONE,
        n=1,
        rows=((F(1),),),
        rhs=(F(1),),
        senses=(Sense.GE,),
        c1=(F(-1),),
        c2=(F(0),),
        d1=(F(1),),
    )
    system = FeasibleSystem(system_lp(p, p.c1))
    with pytest.raises(UnboundedScalarization):
        find_extreme_image(p, (2, 1, 4), system)  # w = (1/2, 1/4, 1/4)


def test_decompose_rejects_empty_feasible_sets():
    p = Pblp(
        case=Case.TWO,
        n=1,
        rows=((F(1),), (F(1),)),
        rhs=(F(2), F(1)),
        senses=(Sense.GE, Sense.LE),
        c1=(F(1),),
        c2=(F(1),),
        d1=(F(1),),
    )
    with pytest.raises(InfeasibleProblem):
        decompose(p)


def test_single_image_owns_the_whole_simplex():
    # x fixed to 1: one image, one component, the full triangle
    p = Pblp(
        case=Case.ONE,
        n=1,
        rows=((F(1),),),
        rhs=(F(1),),
        senses=(Sense.EQ,),
        c1=(F(2),),
        c2=(F(3),),
        d1=(F(5),),
    )
    dec = decompose(p)
    assert dec.image_points() == ((F(2), F(3), F(5)),)
    assert dec.components[0].vertices == simplex_triangle().vertices


def test_decompose_example2_frozen(example2):
    dec = decompose(example2)
    assert dec.image_points() == (
        (F(0), F(5), F(5)),
        (F(5), F(10), F(0)),
        (F(15), F(0), F(2)),
    )
    expected = {
        (F(0), F(5), F(5)): (
            (F(1, 5), F(3, 10)),
            (F(1, 2), F(0)),
            (F(1), F(0)),
            (F(1, 4), F(3, 4)),
        ),
        (F(5), F(10), F(0)): (
            (F(0), F(0)),
            (F(1, 2), F(0)),
            (F(1, 5), F(3, 10)),
            (F(0), F(1, 6)),
        ),
        (F(15), F(0), F(2)): (
            (F(0), F(1, 6)),
            (F(1, 5), F(3, 10)),
            (F(1, 4), F(3, 4)),
            (F(0), F(1)),
        ),
    }
    for entry, poly in zip(dec.images, dec.components):
        assert poly.vertices == expected[entry.image]
        assert cost_image(example2.integer_costs, entry.witness) == entry.image
    assert sum(p.area() for p in dec.components) == F(1, 2)


def test_decompose_example1_frozen(example1):
    dec = decompose(example1)
    assert dec.image_points() == (
        (F(-33), F(4), F(13)),
        (F(-30), F(10), F(10)),
        (F(-6), F(2), F(2)),
        (F(-3), F(-6), F(3)),
    )
    areas = [p.area() for p in dec.components]
    assert areas == [F(25, 96), F(1, 48), F(5, 144), F(53, 288)]
    assert sum(areas) == F(1, 2)
    assert all(a > 0 for a in areas)


def test_decompose_example1_matches_the_brute_oracle(example1):
    expected = extreme_nondominated_bruteforce(example1)
    assert decompose(example1).image_points() == expected


def test_components_tile_without_overlap(example1):
    dec = decompose(example1)
    polys = dec.components
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            assert intersect_polygons(polys[i], polys[j]).area() == 0


def test_decompose_random_instances_agree_with_the_oracle():
    """A seeded mini-batch of the acceptance family and of the
    degenerate family; the large batch lives in the acceptance suite.
    Images must match the brute-force set exactly and the components
    must tile the simplex.  Each record holds its image once, as ints:
    they must be the reduction of its Fraction image, which must be its
    witness's image under the cost rows."""
    rng, degenerate_rng = random.Random(11), random.Random(7)
    problems = [random_pblp(rng, (Case.ONE, Case.TWO)[i % 2]) for i in range(12)]
    problems += [degenerate_pblp(degenerate_rng, Case.ONE) for _ in range(12)]
    for p in problems:
        dec = decompose(p)
        assert dec.image_points() == extreme_nondominated_bruteforce(p)
        assert sum(poly.area() for poly in dec.components) == F(1, 2)
        for entry in dec.images:
            assert entry.int_image == int_image(entry.image), p
            assert cost_image(p.integer_costs, entry.witness) == entry.image, p


def test_decompose_agrees_with_the_oracle_on_larger_systems():
    """Up to 8 variables and 12 rows, where trying every basis was too
    slow for this suite."""
    rng = random.Random(23)
    for trial in range(20):
        n, rows, rhs, senses = random_bounded_system(rng, max_vars=8, max_rows=12)
        c1, c2, d1 = (random_cost(rng, n) for _ in range(3))
        p = Pblp(
            case=(Case.ONE, Case.TWO)[trial % 2], n=n, rows=rows, rhs=rhs,
            senses=senses, c1=c1, c2=c2, d1=d1,
        )
        assert decompose(p).image_points() == extreme_nondominated_bruteforce(p)


def test_the_case_tag_plays_no_part_in_the_decomposition():
    """decompose and the vertex oracle read only the triobjective
    problem: swapping a problem's case tag changes neither images,
    witnesses, cones, components nor the LP solve count."""
    rng = random.Random(1806)
    problems = [
        load_instance(name)
        for name in ("example1.pblp", "example2.pblp", "example2_case1.pblp")
    ] + [random_pblp(rng, (Case.ONE, Case.TWO)[i % 2]) for i in range(20)]
    for p in problems:
        other = replace(p, case=Case.ONE if p.case is Case.TWO else Case.TWO)
        dec, swapped = decompose(p), decompose(other)
        assert swapped == dec, p
        assert [e.cone for e in swapped.images] == [e.cone for e in dec.images], p
        oracle = extreme_nondominated_bruteforce(p)
        assert extreme_nondominated_bruteforce(other) == oracle, p


def test_lp_solve_count_is_reported(example2):
    dec = decompose(example2)
    assert dec.lp_solves > 0


def _decompose_from_scratch(p):
    """Reference decomposition that rebuilds every known image's
    component from all known images in every round and solves a
    lexicographic LP at every vertex it checks."""
    system = FeasibleSystem(ws_scalarize(p, w3(F(1, 3), F(1, 3), F(1, 3))))
    known = [find_extreme_image(p, (1, 1, 3), system)]  # the centroid
    cache = {}

    def value(w, y):
        return w.w1 * y[0] + w.w2 * y[1] + w.w3 * y[2]

    while True:
        points = [e.image for e in known]
        polygons = [component(y, points) for y in points]
        challenger = None
        for entry, poly in zip(known, polygons):
            for triple, vertex in zip(poly.triples, poly.vertices):
                w = Weight2(*vertex).lift()
                if vertex not in cache:
                    cache[vertex] = find_extreme_image(p, triple, system)
                if value(w, cache[vertex].image) < value(w, entry.image):
                    challenger = cache[vertex]
                    break
            if challenger is not None:
                break
        if challenger is None:
            break
        known.append(challenger)
    keep = sorted(
        ((e, poly) for e, poly in zip(known, polygons) if poly.area() > 0),
        key=lambda pair: pair[0].image,
    )
    return Decomposition(
        images=tuple(e for e, _ in keep),
        components=tuple(poly for _, poly in keep),
        lp_solves=system.solves,
    )


def _degenerate(p, kind, rng):
    """p with a duplicated column, a zero-cost column, d1 = 2 c1 or
    c2 = c1 + d1: preimages that are edges or faces, and images that
    share weights, so cones are often lower-dimensional or shared."""
    rows, c1, c2, d1, n = p.rows, p.c1, p.c2, p.d1, p.n
    if kind == "duplicate":
        j = rng.randrange(n)
        rows = tuple(row + (row[j],) for row in rows)
        c1, c2, d1 = (c + (c[j],) for c in (c1, c2, d1))
        n += 1
    elif kind == "zero cost":
        # the last row is the box row, which keeps the set bounded
        column = [F(rng.randint(-9, 9)) for _ in rows[:-1]] + [F(1)]
        rows = tuple(row + (a,) for row, a in zip(rows, column))
        c1, c2, d1 = (c + (F(0),) for c in (c1, c2, d1))
        n += 1
    elif kind == "d1 = 2 c1" and any(c1):
        d1 = tuple(2 * a for a in c1)
    elif kind == "c2 = c1 + d1":
        c2 = tuple(a + b for a, b in zip(c1, d1))
    return Pblp(
        case=p.case, n=n, rows=rows, rhs=p.rhs, senses=p.senses, c1=c1, c2=c2, d1=d1
    )


def _incremental_family():
    """Seeded acceptance-family, larger and degenerate instances."""
    rng = random.Random(1405)
    problems = [random_pblp(rng, (Case.ONE, Case.TWO)[i % 2]) for i in range(24)]
    for i in range(4):  # larger systems, as in the benchmark's scaled family
        n, rows, rhs, senses = random_bounded_system(rng, max_vars=7, max_rows=10)
        c1, c2, d1 = (random_cost(rng, n) for _ in range(3))
        problems.append(
            Pblp(
                case=(Case.ONE, Case.TWO)[i % 2], n=n, rows=rows, rhs=rhs,
                senses=senses, c1=c1, c2=c2, d1=d1,
            )
        )
    for i in range(24):
        kind = ("duplicate", "zero cost", "d1 = 2 c1", "c2 = c1 + d1")[i % 4]
        base = random_pblp(rng, (Case.ONE, Case.TWO)[i // 4 % 2])
        problems.append(_degenerate(base, kind, rng))
    return problems


def test_incremental_components_match_a_rebuild_per_round():
    """decompose clips the known components by each new image's
    half-plane instead of rebuilding them, and passes a vertex without an
    LP when a basis that yields the image is optimal there.  On seeded
    acceptance-family, larger and degenerate instances it must return
    the images, witnesses and components of a reference that rebuilds
    every round and solves an LP at every vertex, with no more LP solves
    on any instance and fewer in all."""
    rounds = solves = reference_solves = 0
    for p in _incremental_family():
        got = decompose(p)
        ref = _decompose_from_scratch(p)
        assert (got.images, got.components) == (ref.images, ref.components), p
        assert [e.witness for e in got.images] == [e.witness for e in ref.images], p
        assert got.lp_solves <= ref.lp_solves, p
        rounds += len(got.images) > 2
        solves += got.lp_solves
        reference_solves += ref.lp_solves
    assert rounds >= 10
    assert solves < reference_solves


def test_each_new_component_is_the_hull_of_the_pieces_it_cuts_off(monkeypatch):
    """decompose builds a new image's polygon as the hull of the points
    it cuts off the known polygons.  On the instances of the rebuild
    test, every round's polygon must be component_vertices of the new
    image against every image known by then."""
    halfplanes, rounds = [], []

    def recording_halfplane(image, y):
        halfplanes.append((image, y))
        return competitor_halfplane(image, y)

    def recording_hull(points):
        poly = convex_hull(points)
        rounds.append((halfplanes[-1][1], [image for image, _ in halfplanes], poly))
        halfplanes.clear()
        return poly

    monkeypatch.setattr(wsd, "competitor_halfplane", recording_halfplane)
    monkeypatch.setattr(wsd, "convex_hull", recording_hull)
    count = 0
    for p in _incremental_family():
        decompose(p)
        for y, known, poly in rounds:
            assert poly == component_vertices(y, known + [y]), (p, y)
        count += len(rounds)
        rounds.clear()
    assert count > 100, count


def test_bundled_decompositions_take_five_lp_solves(example1, example2, example2_case1):
    """The centroid, and a certificate LP only at the vertices no basis
    cone of their image covers; no solve at the simplex corners."""
    counts = [
        decompose(p).lp_solves for p in (example1, example2, example2_case1)
    ]
    assert counts == [5, 5, 5]


@pytest.mark.parametrize("corner", range(3))
def test_an_unbounded_corner_is_named_though_the_centroid_is_bounded(corner, tmp_path):
    """x >= 1 with one cost row at -1 and the other two at 2: the
    centroid's weighted sum is bounded and only the corner weighting the
    -1 row is not.  decompose names that corner's weight, the vertex
    oracle rejects the problem too, and pblp solve exits 3."""
    costs = [(F(2),)] * 3
    costs[corner] = (F(-1),)
    p = Pblp(
        case=Case.ONE, n=1, rows=((F(1),),), rhs=(F(1),), senses=(Sense.GE,),
        c1=costs[0], c2=costs[1], d1=costs[2],
    )
    weight = ", ".join("1" if k == corner else "0" for k in range(3))
    with pytest.raises(UnboundedScalarization, match=rf"w = \({weight}\)"):
        decompose(p)
    with pytest.raises(UnboundedScalarization):
        extreme_nondominated_bruteforce(p)
    path = tmp_path / "corner.pblp"
    path.write_text(emit_problem(p))
    assert cli_main(["solve", str(path), "--quiet"]) == COMPUTE_ERROR


def _unboxed_system(rng):
    """1-4 variables and 1-4 rows of mixed senses with no box row, so the
    feasible set may be empty or unbounded; costs in [-2, 5]."""
    n, m = rng.randint(1, 4), rng.randint(1, 4)
    rows = tuple(tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(m))
    rhs = tuple(F(rng.randint(-4, 6)) for _ in range(m))
    senses = tuple(rng.choice((Sense.LE, Sense.GE, Sense.EQ)) for _ in range(m))
    c1, c2, d1 = (tuple(F(rng.randint(-2, 5)) for _ in range(n)) for _ in range(3))
    case = rng.choice((Case.ONE, Case.TWO))
    return Pblp(case=case, n=n, rows=rows, rhs=rhs, senses=senses, c1=c1, c2=c2, d1=d1)


def test_decompose_agrees_with_the_oracle_on_sets_that_need_not_be_bounded():
    """decompose raises UnboundedScalarization exactly when the vertex
    oracle does, InfeasibleProblem exactly when the oracle finds no
    image, and otherwise returns the oracle's images."""
    rng = random.Random(1706)
    outcomes = {"decomposed": 0, "unbounded": 0, "infeasible": 0}
    for _ in range(600):
        p = _unboxed_system(rng)
        try:
            expected = extreme_nondominated_bruteforce(p)
        except UnboundedScalarization:
            with pytest.raises(UnboundedScalarization):
                decompose(p)
            outcomes["unbounded"] += 1
            continue
        if expected == ():
            with pytest.raises(InfeasibleProblem):
                decompose(p)
            outcomes["infeasible"] += 1
        else:
            assert decompose(p).image_points() == expected, p
            outcomes["decomposed"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def _bench_families():
    """bench/families.py, the benchmark's instance generators."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "families.py"
    spec = importlib.util.spec_from_file_location("bench_families", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_integer_certificates_match_the_fraction_weighted_sum():
    """decompose certifies a vertex (X, Y, W) with the integer objective
    X c1 + Y c2 + (W - X - Y) d1 and tests cones in ints.  On the first
    4 instances of the benchmark's scaled family, at every component
    vertex, that solve must give the image, witness and cone of the
    ws_scalarize solve at the lifted Fraction weight, and covers must
    agree with the cone evaluated at the Fraction weight, for every
    image's record.  The family's costs are integers, so each instance
    also runs with its cost rows divided by 2, 3 and 7/5, whose
    denominators differ."""
    families = _bench_families()
    vertices = 0
    verdicts = set()
    problems = []
    for p in families.scaled_family(families.ACCEPTANCE_SEED, 4):
        problems.append(p)
        problems.append(replace(
            p,
            c1=tuple(c / 2 for c in p.c1),
            c2=tuple(c / 3 for c in p.c2),
            d1=tuple(c * F(5, 7) for c in p.d1),
        ))
    for p in problems:
        system = FeasibleSystem(ws_scalarize(p, w3(1, 0, 0)))
        dec = decompose(p)
        for poly in dec.components:
            for triple, (w1, w2) in zip(poly.triples, poly.vertices):
                got = find_extreme_image(p, triple, system)
                ref = solve_lex_lp(
                    ws_scalarize(p, Weight2(w1, w2).lift()), p.cost_rows, system,
                    price=p.integer_costs[0],
                )
                assert (got.image, got.witness, got.cone) == (
                    cost_image(p.integer_costs, ref.x), ref.x, ref.reduced
                ), (p, triple)
                rest = 1 - w1 - w2
                for entry in dec.images + (got,):
                    expected = all(
                        w1 * r1 + w2 * r2 + rest * r3 >= 0 for r1, r2, r3 in entry.cone
                    )
                    assert entry.covers(triple) == expected, (p, triple)
                    verdicts.add(expected)
                vertices += 1
    assert vertices > 80 and verdicts == {True, False}
