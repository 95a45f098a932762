"""Brute-force oracles: vertex enumeration, extreme images, grid sweeps."""

import random
from fractions import Fraction

import pytest

from pblp import (
    Case,
    Pblp,
    Sense,
    build_tolp,
    dichotomic_bolp,
    enumerate_vertices_bruteforce,
    extreme_nondominated_bruteforce,
    fix_lambda,
    sweep_lambda,
)
from pblp.errors import TooLarge, UnboundedFeasibleSet
from pblp.weight_geometry import component_vertices
from instance_gen import random_pblp

F = Fraction


def test_vertices_of_the_example1_region(example1):
    verts = enumerate_vertices_bruteforce(
        example1.rows, example1.rhs, example1.senses, example1.n
    )
    assert verts.vertices == (
        (F(0), F(3)),
        (F(2), F(0)),
        (F(10), F(0)),
        (F(10), F(3)),
    )


def test_vertices_of_a_box_with_a_cut():
    # unit square cut by x + y <= 3/2
    rows = ((F(1), F(0)), (F(0), F(1)), (F(1), F(1)))
    rhs = (F(1), F(1), F(3, 2))
    senses = (Sense.LE, Sense.LE, Sense.LE)
    verts = enumerate_vertices_bruteforce(rows, rhs, senses, 2)
    assert verts.vertices == (
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1, 2), F(1)),
        (F(1), F(0)),
        (F(1), F(1, 2)),
    )


def test_vertex_enumeration_flags_unbounded_sets():
    with pytest.raises(UnboundedFeasibleSet):
        enumerate_vertices_bruteforce(((F(1),),), (F(0),), (Sense.GE,), 1)


def test_vertex_enumeration_respects_the_basis_budget():
    rows = ((F(1), F(1)),)
    rhs = (F(1),)
    with pytest.raises(TooLarge):
        enumerate_vertices_bruteforce(rows, rhs, (Sense.LE,), 2, max_bases=1)


def test_vertex_enumeration_of_an_empty_set_is_empty():
    rows = ((F(1),), (F(1),))
    rhs = (F(2), F(1))
    senses = (Sense.GE, Sense.LE)
    verts = enumerate_vertices_bruteforce(rows, rhs, senses, 1)
    assert verts.vertices == ()


def test_extreme_images_of_example1(example1):
    t = build_tolp(example1)
    assert extreme_nondominated_bruteforce(t) == (
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
    images = extreme_nondominated_bruteforce(build_tolp(p))
    assert (F(0), F(0), F(0)) in images
    assert (F(1), F(1), F(2)) not in images


def _unfiltered_extreme_images(t):
    """The image oracle without its Pareto filter: every vertex image's
    component is tested against all the others."""
    verts = enumerate_vertices_bruteforce(t.rows, t.rhs, t.senses, t.n)
    images = sorted({t.image(x) for x in verts.vertices})
    return tuple(
        y
        for y in images
        if component_vertices(y, [z for z in images if z != y]).area() > 0
    )


def _dominated_images(t):
    verts = enumerate_vertices_bruteforce(t.rows, t.rhs, t.senses, t.n)
    images = {t.image(x) for x in verts.vertices}
    return [
        y for y in images
        if any(z != y and all(a <= b for a, b in zip(z, y)) for z in images)
    ]


def test_pareto_filter_keeps_the_extreme_images_of_the_acceptance_family():
    rng = random.Random(1405)
    with_dominated = 0
    for trial in range(40):
        case = Case.ONE if trial % 2 == 0 else Case.TWO
        t = build_tolp(random_pblp(rng, case))
        assert extreme_nondominated_bruteforce(t) == _unfiltered_extreme_images(t)
        with_dominated += bool(_dominated_images(t))
    assert with_dominated >= 10  # the filter has work to do in this family


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
    t = build_tolp(p)
    shifted, dominated = (F(1), F(1), F(1)), (F(0), F(1), F(2))
    assert sorted(_dominated_images(t)) == [dominated, shifted]
    images = extreme_nondominated_bruteforce(t)
    assert images == _unfiltered_extreme_images(t)
    assert images == (
        (F(-1), F(2), F(-1)),
        (F(0), F(0), F(0)),
        (F(2), F(-1), F(0)),
    )


def test_dichotomic_finds_both_corners_and_the_middle(example2):
    b0 = fix_lambda(example2, F(0))
    assert [y for y, _ in dichotomic_bolp(b0)] == [(F(0), F(5)), (F(15), F(0))]
    b2 = fix_lambda(example2, F(2))
    assert [y for y, _ in dichotomic_bolp(b2)] == [(F(5), F(10)), (F(19), F(4))]


def test_dichotomic_on_a_three_point_front():
    # pentagon-ish region whose lower-left frontier has three corners
    b = fix_lambda(
        Pblp(
            case=Case.ONE,
            n=2,
            rows=((F(1), F(2)), (F(2), F(1))),
            rhs=(F(2), F(2)),
            senses=(Sense.GE, Sense.GE),
            c1=(F(1), F(0)),
            c2=(F(0), F(1)),
            d1=(F(1), F(1)),
        ),
        F(0),
    )
    front = [y for y, _ in dichotomic_bolp(b)]
    assert front == [(F(0), F(2)), (F(2, 3), F(2, 3)), (F(2), F(0))]
    for y, x in dichotomic_bolp(b):
        assert b.image(x) == y


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


def test_sweep_grid_is_exact(example2):
    report = sweep_lambda(example2, F(1, 3), 4)
    assert report.grid == (F(0), F(1, 12), F(1, 6), F(1, 4), F(1, 3))


def test_sweep_validates_arguments(example2):
    with pytest.raises(ValueError):
        sweep_lambda(example2, F(1), 0)
    with pytest.raises(ValueError):
        sweep_lambda(example2, F(-1), 5)
