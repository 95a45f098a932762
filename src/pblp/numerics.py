"""Exact rational scalars and the positive-infinity sentinel.

Rationals are stdlib fractions.Fraction, which keeps every value in lowest
terms with a positive denominator by construction.  This module adds the
token parser used by the problem-file format, a canonical formatter, and
INF, a single positive-infinity object that compares correctly against
rationals (needed for right-unbounded parameter intervals).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

_TOKEN_RE = re.compile(r"^[+-]?(?:\d+(?:\.\d+)?|\d+/\d+)$")


def rat_parse(token: str) -> Fraction:
    """Parse one rational token: integer, p/q, or finite decimal.

    Raises ParseError on anything else, including q == 0.  Scientific
    notation is deliberately rejected; the file format does not use it.
    """
    text = token.strip()
    if not _TOKEN_RE.match(text):
        raise ParseError(f"not a rational token: {token!r}")
    if "/" in text:
        num, _, den = text.partition("/")
        if int(den) == 0:
            raise ParseError(f"zero denominator: {token!r}")
        return Fraction(int(num), int(den))
    return Fraction(text)


def rat_format(value: Fraction) -> str:
    """Canonical text for a rational: 'p' or 'p/q' in lowest terms."""
    return str(value)


class _PositiveInfinity:
    """Sentinel ordered above every rational.  One instance: INF."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("pblp-positive-infinity")

    def __repr__(self):
        return "INF"

    def __str__(self):
        return "inf"


INF = _PositiveInfinity()


def ext_format(value) -> str:
    """Canonical text for an extended rational."""
    if value is INF:
        return "inf"
    return str(value)
