"""Rational token parsing and the positive-infinity sentinel.

Rationals are stdlib fractions.Fraction, always in lowest terms, so str
gives the canonical 'p' or 'p/q'.  This module adds the problem-file
token parser and INF, the open right end of a parameter interval, which
is tested with `is INF`, never ordered, and whose str is 'inf'.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

_TOKEN_RE = re.compile(r"^[+-]?(?:\d+(?:\.\d+)?|\d+/\d+)$")


def rat_parse(token: str) -> Fraction:
    """Parse one rational token: integer, p/q, or finite decimal.

    Raises ParseError on anything else, including q == 0 and a token
    with more digits than Python converts to an int
    (sys.get_int_max_str_digits).  Scientific notation is deliberately
    rejected; the file format does not use it.
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

