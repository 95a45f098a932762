"""Rational token parsing, row scaling and the positive-infinity sentinel.

Rationals are stdlib fractions.Fraction, always in lowest terms, so str
gives the canonical 'p' or 'p/q'.  This module adds the problem-file
token parser, integer_row, the package's one scaling of a rational row
to integers, and INF, the open right end of a parameter interval, which
is tested with `is INF`, never ordered, and whose str is 'inf'.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import NotRational, ParseError

_TOKEN_RE = re.compile(r"^[+-]?(?:\d+(?:\.\d+)?|\d+/\d+)$", re.ASCII)


def rat_parse(token: str) -> Fraction:
    """Parse one rational token: integer, p/q, or finite decimal.

    Raises ParseError on anything else, including q == 0 and a token
    with more digits than Python converts to an int
    (sys.get_int_max_str_digits).  Scientific notation, '_' and non-ASCII
    digits, which Fraction takes, are rejected: the format has none.
    """
    text = token.strip()
    if not _TOKEN_RE.match(text):
        raise ParseError(f"not a rational token: {token!r}")
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            if int(den) == 0:
                raise ParseError(f"zero denominator: {token!r}")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except ValueError as exc:
        raise ParseError(f"rational token of {len(text)} characters: {exc}") from None


def integer_row(values) -> tuple[list[int], int]:
    """values (ints or Fractions) times the lcm of their denominators.

    Returns the integer row and the scale.  A row of a linear system so
    scaled keeps its rank and its solutions.  A row of ints comes back
    as it is, at scale 1.  Raises NotRational on an entry that is no int
    or Fraction.
    """
    if all(type(v) is int for v in values):
        return values, 1
    try:
        scale = lcm(*(v.denominator for v in values))
        return [v.numerator * (scale // v.denominator) for v in values], scale
    except AttributeError:
        bad = next((v for v in values if not isinstance(v, (int, Fraction))), None)
        raise NotRational(f"{bad!r} is neither an int nor a Fraction") from None


class _PositiveInfinity:
    """Sentinel for an unbounded upper end.  One instance: INF."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __str__(self):
        return "inf"


INF = _PositiveInfinity()

