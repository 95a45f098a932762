"""Problem records and the weight/parameter correspondence."""

import random
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pblp import (
    INF,
    Case,
    Pblp,
    Sense,
    emit_problem,
    parse_problem,
    segment_for_lambda,
    solve_lex_lp,
    solve_lp,
)
from pblp.errors import BadCase, DimensionMismatch, NegativeParameter, NotRational
from pblp.numerics import integer_row
from pblp.lp_core import FeasibleSystem
from pblp.oracle import dichotomic_bolp
from pblp.problem_model import ge_form, integral_image, lambda_weights, system_lp
from conftest import (
    Weight2, Weight3, as_tuple, bolp_costs, bolp_objectives, cost_image, int_image,
    lambda_from_weight, map_weight_to_simplex, project, w2, w3, ws_scalarize,
)

F = Fraction


def test_case_tags_parse_and_reject(example2):
    assert Case("1") is Case.ONE
    assert Case("2") is Case.TWO
    with pytest.raises(BadCase, match="case must be 1 or 2, got '3'"):
        parse_problem(emit_problem(example2).replace("case: 2", "case: 3"))


def test_dimension_checks_fire_on_bad_cost_rows():
    with pytest.raises(DimensionMismatch):
        Pblp(
            case=Case.ONE,
            n=2,
            rows=((F(1), F(1)),),
            rhs=(F(1),),
            senses=(Sense.GE,),
            c1=(F(1),),  # too short
            c2=(F(1), F(2)),
            d1=(F(1), F(1)),
        )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("rhs", (F(1), F(2)), "row, rhs and sense counts differ"),
        ("senses", (), "row, rhs and sense counts differ"),
        ("rows", ((F(1),),), "constraint row width differs from n"),
    ],
)
def test_dimension_checks_fire_on_bad_constraints(field, value, message):
    """A system whose rows, right sides and senses do not line up, or a
    row of the wrong width, is a DimensionMismatch on construction."""
    good = dict(
        case=Case.TWO, n=2, rows=((F(1), F(1)),), rhs=(F(1),), senses=(Sense.GE,),
        c1=(F(1), F(0)), c2=(F(0), F(1)), d1=(F(1), F(1)),
    )
    Pblp(**good)
    with pytest.raises(DimensionMismatch, match=message):
        Pblp(**{**good, field: value})


def test_triobjective_costs_stack_and_ignore_the_case(example2):
    """cost_rows, integer_costs and so the images are those of
    min (c1.x, c2.x, d1.x), the same for either case tag."""
    other = replace(example2, case=Case.ONE)
    for p in (example2, other):
        assert p.cost_rows == (example2.c1, example2.c2, example2.d1)
        assert p.integer_costs == example2.integer_costs
        assert integral_image(p.integer_costs, (0, 5, 5), 1) == (0, 5, 5, 1)
        assert cost_image(p.integer_costs, (F(0), F(5), F(5))) == (F(0), F(5), F(5))


def test_images_match_the_fraction_dot_product():
    """integral_image works over integer cost rows and ints x over one
    denominator, for Pblp.integer_costs and for the reference pair
    bolp_costs gives; on seeded rational vectors, put over their lcm,
    int rays with negative entries and the zero vector it gives the
    Fraction dot product as reduced ints, and the reference cost_image
    gives it as Fractions."""
    rng = random.Random(1405)

    def num():
        return F(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.8 else F(0)

    for trial in range(200):
        n = rng.randint(1, 6)
        p = Pblp(
            case=(Case.ONE, Case.TWO)[trial % 2], n=n, rows=(), rhs=(), senses=(),
            c1=tuple(num() for _ in range(n)),
            c2=tuple(num() for _ in range(n)),
            d1=tuple(num() for _ in range(n)),
        )
        b = bolp_costs(p, F(rng.randint(0, 9), rng.randint(1, 4)))
        for x in (
            tuple(num() for _ in range(n)),
            tuple(rng.randint(-5, 5) for _ in range(n)),
            (0,) * n,
            (F(0),) * n,
        ):
            ints, den = integer_row(x)
            for costs, rows in ((p.integer_costs, p.cost_rows), (b, bolp_objectives(b))):
                want = tuple(sum((c * v for c, v in zip(row, x)), F(0)) for row in rows)
                assert integral_image(costs, ints, den) == int_image(want), (p, x)
                image = cost_image(costs, x)
                assert image == want, (p, x)
                assert all(type(v) is F for v in image)


_huge = st.builds(
    lambda digits, sign, low: sign * (10**digits + low),
    st.integers(1000, 3000),
    st.sampled_from((-1, 1)),
    st.integers(0, 10**6),
)
_entries = st.one_of(st.just(0), st.integers(-50, 50), _huge)
_denominators = st.one_of(st.integers(1, 60), _huge.map(abs))


@given(st.data())
def test_image_of_an_integer_vertex_is_the_fraction_dot_product(data):
    """integral_image on a vertex as an LP leaves it, ints x over
    den > 0, for Pblp.integer_costs and for the pair bolp_costs gives,
    is the Fraction dot product of each cost row with x / den as reduced
    ints (Y..., D), D > 0, and the reference cost_image is that product;
    entries, denominators and costs are negative, zero, small or of
    thousands of digits."""
    n = data.draw(st.integers(1, 4))

    def row():
        return tuple(F(data.draw(_entries), data.draw(_denominators)) for _ in range(n))

    p = Pblp(
        case=data.draw(st.sampled_from(list(Case))), n=n, rows=(), rhs=(), senses=(),
        c1=row(), c2=row(), d1=row(),
    )
    b = bolp_costs(p, F(data.draw(_entries)) ** 2 / data.draw(_denominators))
    x = [data.draw(_entries) for _ in range(n)]
    den = data.draw(_denominators)
    point = [F(v, den) for v in x]
    for costs, rows in ((p.integer_costs, p.cost_rows), (b, bolp_objectives(b))):
        want = tuple(sum((c * v for c, v in zip(cost, point)), F(0)) for cost in rows)
        assert cost_image(costs, x, den) == want
        *ys, d = integral_image(costs, x, den)
        assert d > 0 and gcd(*ys, d) == 1
        assert tuple(F(y, d) for y in ys) == want


def test_integer_costs_put_every_row_over_one_scale(example1, example2, example2_case1):
    """A record keeps its costs once as ints, integer_costs = (rows, L):
    every row is over one L, the lcm of all its cost denominators, so
    row k over L is cost row k.  On the bundled three and on seeded
    rational records."""
    rng = random.Random(2025)

    def costs(n):
        return tuple(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n))

    def check(integer_costs, cost_rows):
        rows, scale = integer_costs
        assert scale == lcm(*(c.denominator for row in cost_rows for c in row))
        assert len(rows) == len(cost_rows)
        for row, cost in zip(rows, cost_rows):
            assert all(type(a) is int for a in row)
            assert [F(a, scale) for a in row] == list(cost)

    records = [example1, example2, example2_case1]
    for trial in range(40):
        n = rng.randint(1, 6)
        records.append(Pblp(
            case=(Case.ONE, Case.TWO)[trial % 2], n=n, rows=(), rhs=(), senses=(),
            c1=costs(n), c2=costs(n), d1=costs(n),
        ))
    for p in records:
        check(p.integer_costs, p.cost_rows)


def test_fix_lambda_matches_the_fraction_objectives():
    """Fixing lambda maps in ints: a vertex's triobjective image
    (y1, y2, y3), held as reduced ints (Y..., D), mapped by
    integral_image over lambda_weights(case, lambda), is
    (y1 + lambda*s1*y3, y2 + lambda*s2*y3) taken in Fractions and the
    vertex's image under the Fraction objectives c_k + lambda*s_k*d1
    (bolp_costs), as reduced ints, whether the map reads the held image
    whole or its values alone.  On seeded records and vertices, in both
    cases, at lambdas from 0 up."""
    rng = random.Random(2025)

    def costs(n):
        return tuple(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n))

    for _ in range(40):
        n = rng.randint(1, 6)
        c1, c2, d1 = costs(n), costs(n), costs(n)
        x = [rng.randint(-9, 9) for _ in range(n)]
        den = rng.randint(1, 7)
        for case in Case:
            p = Pblp(
                case=case, n=n, rows=(), rhs=(), senses=(), c1=c1, c2=c2, d1=d1
            )
            y1, y2, y3 = cost_image(p.integer_costs, x, den)
            held = integral_image(p.integer_costs, x, den)
            s1, s2 = case.shares
            for lam in (F(0), F(1, 3), F(5, 2), F(7), F(355, 113), 4):
                want = (y1 + lam * s1 * y3, y2 + lam * s2 * y3)
                assert cost_image(bolp_costs(p, lam), x, den) == want, (p, lam)
                weights = lambda_weights(case, lam)
                assert integral_image(weights, held, held[-1]) == int_image(want)
                assert integral_image(weights, held[:-1], held[-1]) == int_image(want)


def test_fix_lambda_case_two_shifts_both_objectives(example2):
    """lambda = a/q weighs (c1, c2, d1) by (q, 0, a) and (0, q, a) over
    q in case TWO: (0, 5, 5) maps to (10, 15) at lambda = 2, as under
    the Fraction objectives."""
    weights = lambda_weights(example2.case, F(2))
    assert weights == (((1, 0, 2), (0, 1, 2)), 1)
    assert lambda_weights(example2.case, F(6, 4)) == (((2, 0, 3), (0, 2, 3)), 2)
    assert integral_image(weights, (0, 5, 5, 1), 1) == (10, 15, 1)
    assert cost_image(bolp_costs(example2, F(2)), (0, 5, 5)) == (F(10), F(15))


def test_fix_lambda_case_one_leaves_the_second_objective(example2_case1):
    """In case ONE the second stage weight is (q, 0, 0) over q, c2
    alone: (0, 5, 5) maps to (15, 5) at lambda = 3."""
    weights = lambda_weights(example2_case1.case, F(3))
    assert weights == (((1, 0, 3), (0, 1, 0)), 1)
    assert integral_image(weights, (0, 5, 5, 1), 1) == (15, 5, 1)
    f1, f2 = bolp_objectives(bolp_costs(example2_case1, F(3)))
    assert f2 == example2_case1.c2


def test_fix_lambda_rejects_negative_parameters(example2):
    """A negative lambda is NegativeParameter from lambda_weights and
    from the dichotomic search that calls it, before any solve."""
    system = FeasibleSystem(system_lp(example2, example2.c1))
    for lam in (F(-1), F(-1, 3), -2):
        with pytest.raises(NegativeParameter):
            lambda_weights(example2.case, lam)
        with pytest.raises(NegativeParameter):
            dichotomic_bolp(example2, lam, system, [])
    assert system.solves == 0


@pytest.mark.parametrize("lam", [0.5, 2.0, -0.5, "1", "1/2", None])
def test_fix_lambda_rejects_a_lambda_that_is_not_rational(example2, lam):
    """A float or a str is a typed error, never read as a rational, from
    lambda_weights in either case and from the dichotomic search that
    calls it."""
    system = FeasibleSystem(system_lp(example2, example2.c1))
    for case in Case:
        with pytest.raises(NotRational):
            lambda_weights(case, lam)
    with pytest.raises(NotRational):
        dichotomic_bolp(example2, lam, system, [])
    assert system.solves == 0


@pytest.mark.parametrize("lam", [0.5, 2.0, -0.5, "1", "1/2", None])
def test_segment_for_lambda_rejects_a_lambda_that_is_not_rational(lam):
    """A float lambda is a typed error, not a pair of float end points,
    and so is a str, in either case."""
    for case in Case:
        with pytest.raises(NotRational):
            segment_for_lambda(case, lam)


def test_weights_validate_on_construction():
    with pytest.raises(ValueError):
        Weight3(F(1, 2), F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        Weight3(F(-1, 4), F(3, 4), F(1, 2))
    with pytest.raises(ValueError):
        Weight2(F(3, 4), F(3, 4))
    assert project(w3(F(1, 4), F(1, 4), F(1, 2))) == w2(F(1, 4), F(1, 4))
    assert w2(F(1, 4), F(1, 4)).lift() == w3(F(1, 4), F(1, 4), F(1, 2))


def test_scalarized_lp_minimizes_the_weighted_image(example2):
    """At the halfway weight the two tied images (5,10,0) and (0,5,5)
    both price to 5/2, which is the scalarized optimum."""
    w = w3(F(1, 2), F(0), F(1, 2))
    res = solve_lp(ws_scalarize(example2, w))
    assert res.value == F(5, 2)
    for y in ((F(5), F(10), F(0)), (F(0), F(5), F(5))):
        assert w.w1 * y[0] + w.w2 * y[1] + w.w3 * y[2] == F(5, 2)


def test_scalarized_lex_solve_settles_the_tie(example2):
    w = w3(F(1, 5), F(3, 10), F(1, 2))
    res = solve_lex_lp(ws_scalarize(example2, w), ties=example2.cost_rows)
    assert res.value == F(4)
    assert cost_image(example2.integer_costs, res.x) == (F(0), F(5), F(5))


def test_weight_map_known_values():
    half = w2(F(1, 2), F(1, 2))
    assert as_tuple(map_weight_to_simplex(Case.ONE, half, F(1))) == (
        F(1, 3),
        F(1, 3),
        F(1, 3),
    )
    assert as_tuple(map_weight_to_simplex(Case.TWO, half, F(1))) == (
        F(1, 4),
        F(1, 4),
        F(1, 2),
    )
    # the second corner of case ONE is a fixed point for every lambda
    for lam in (F(0), F(1), F(17, 3)):
        assert as_tuple(map_weight_to_simplex(Case.ONE, w2(0, 1), lam)) == (
            F(0),
            F(1),
            F(0),
        )


def test_weight_map_rejects_non_edge_input():
    with pytest.raises(ValueError):
        map_weight_to_simplex(Case.ONE, w2(F(1, 4), F(1, 4)), F(1))
    with pytest.raises(NegativeParameter):
        map_weight_to_simplex(Case.TWO, w2(F(1, 2), F(1, 2)), F(-2))


def test_lambda_from_weight_known_values():
    assert lambda_from_weight(Case.ONE, w3(F(1, 3), F(1, 3), F(1, 3))) == 1
    assert lambda_from_weight(Case.TWO, w3(F(1, 5), F(3, 10), F(1, 2))) == 1
    assert lambda_from_weight(Case.TWO, w3(F(1, 2), F(0), F(1, 2))) == 1


def test_lambda_from_weight_edge_outcomes():
    assert lambda_from_weight(Case.ONE, w3(0, F(1, 2), F(1, 2))) is INF
    assert lambda_from_weight(Case.ONE, w3(0, 1, 0)) is None
    assert lambda_from_weight(Case.TWO, w3(0, 0, 1)) is INF
    assert lambda_from_weight(Case.TWO, w3(1, 0, 0)) == 0


def test_segments_for_lambda():
    s = segment_for_lambda(Case.ONE, F(0))
    assert (*s[0], *s[1]) == (F(0), F(1), F(1), F(0))
    s = segment_for_lambda(Case.TWO, F(1))
    assert (*s[0], *s[1]) == (F(0), F(1, 2), F(1, 2), F(0))
    s = segment_for_lambda(Case.TWO, F(2))
    assert (*s[0], *s[1]) == (F(0), F(1, 3), F(1, 3), F(0))
    with pytest.raises(NegativeParameter):
        segment_for_lambda(Case.ONE, F(-1, 2))


def _on_segment(seg, pt):
    (px, py), (qx, qy) = seg
    cross = (qx - px) * (pt[1] - py) - (qy - py) * (pt[0] - px)
    if cross != 0:
        return False
    lo_x, hi_x = min(px, qx), max(px, qx)
    lo_y, hi_y = min(py, qy), max(py, qy)
    return lo_x <= pt[0] <= hi_x and lo_y <= pt[1] <= hi_y


edge_weights = st.fractions(min_value=0, max_value=1, max_denominator=60).map(
    lambda a: w2(a, 1 - a)
)
lambdas = st.fractions(min_value=0, max_value=50, max_denominator=24)
cases = st.sampled_from([Case.ONE, Case.TWO])


@given(cases, edge_weights, lambdas)
def test_weight_map_lands_on_the_lambda_segment(case, w, lam):
    m = map_weight_to_simplex(case, w, lam)
    assert m.w1 >= 0 and m.w2 >= 0 and m.w3 >= 0
    assert m.w1 + m.w2 + m.w3 == 1
    assert _on_segment(segment_for_lambda(case, lam), (m.w1, m.w2))


@given(cases, edge_weights, lambdas)
def test_weight_map_round_trip(case, w, lam):
    m = map_weight_to_simplex(case, w, lam)
    if case is Case.ONE and w.w1 == 0:
        assert lambda_from_weight(case, m) is None
        return
    assert lambda_from_weight(case, m) == lam
    scale = 1 - m.w3
    assert (m.w1 / scale, m.w2 / scale) == (w.w1, w.w2)


def test_ge_form_rewrites_and_splits():
    rows = ((F(1), F(2)), (F(3), F(4)), (F(5), F(6)))
    rhs = (F(7), F(8), F(9))
    senses = (Sense.GE, Sense.LE, Sense.EQ)
    out_rows, out_rhs = ge_form(rows, rhs, senses)
    assert out_rows == (
        (F(1), F(2)),
        (F(-3), F(-4)),
        (F(5), F(6)),
        (F(-5), F(-6)),
    )
    assert out_rhs == (F(7), F(-8), F(9), F(-9))
