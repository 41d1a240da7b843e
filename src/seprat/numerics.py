"""Exact rational scalars and inner products.

Data stays exact: every quantity is a `fractions.Fraction`, and nothing in
the core touches floating point, so strict inequalities are decided
exactly.  Vectors are plain tuples of Fractions; the decider's arena and
the witness checker compute on integers scaled by common denominators
instead.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")


class RationalFormatError(ValueError):
    """Text is not an optionally signed integer or an a/b pair."""


class DimensionMismatch(ValueError):
    """Two vectors of different lengths were combined."""


def parse_rational(text: str) -> Fraction:
    """Parse "a", "-a" or "a/b" with a positive denominator, exactly."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise RationalFormatError(f"bad rational literal: {text!r}")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise RationalFormatError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(value: Fraction | int) -> str:
    return str(Fraction(value))


def dot(p: Sequence[Fraction], x: Sequence[Fraction]) -> Fraction:
    """Exact inner product."""
    if len(p) != len(x):
        raise DimensionMismatch(f"dimension {len(p)} vs {len(x)}")
    total = Fraction(0)
    for pi, xi in zip(p, x):
        total += pi * xi
    return total
