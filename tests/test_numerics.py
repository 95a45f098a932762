"""Rational token parsing, the text str gives, and the infinity sentinel."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pblp import INF, rat_parse
from pblp.errors import ParseError


def test_parses_integers_with_optional_sign():
    assert rat_parse("42") == 42
    assert rat_parse("-7") == -7
    assert rat_parse("+3") == 3
    assert rat_parse("0") == 0


def test_parses_fractions_and_decimals_exactly():
    assert rat_parse("22/7") == Fraction(22, 7)
    assert rat_parse("-1/3") == Fraction(-1, 3)
    assert rat_parse("0.125") == Fraction(1, 8)
    assert rat_parse("-2.5") == Fraction(-5, 2)


@pytest.mark.parametrize(
    "token",
    ["", "1/0", "1e3", "2/-3", "1//2", "abc", "1.2.3", "1 /2", "nan", ".5"],
)
def test_rejects_malformed_tokens(token):
    with pytest.raises(ParseError):
        rat_parse(token)


def test_formats_in_lowest_terms():
    # the result documents write rationals with str
    assert str(Fraction(4, 8)) == "1/2"
    assert str(Fraction(-3)) == "-3"
    assert str(Fraction(0)) == "0"


@given(st.fractions())
def test_format_then_parse_is_identity(q):
    assert rat_parse(str(q)) == q


def test_infinity_is_a_single_instance():
    assert type(INF)() is INF
    assert copy.copy(INF) is INF and copy.deepcopy(INF) is INF
    assert pickle.loads(pickle.dumps(INF)) is INF
    assert INF == INF
    assert INF != Fraction(1)


def test_extended_rationals_format_as_text():
    assert str(INF) == "inf" and repr(INF) == "INF"
    assert str(Fraction(5, 3)) == "5/3"
    assert rat_parse(str(Fraction(-3, 2))) == Fraction(-3, 2)
