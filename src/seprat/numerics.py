"""Exact rational scalars, inner products and componentwise dominance.

Data stays exact: every quantity is a `fractions.Fraction`, and nothing in
the core touches floating point, so strict inequalities are decided
exactly.  Vectors are plain tuples of Fractions; the witness checker
compares integers scaled by common denominators instead.
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


def _check_dims(x: Sequence, y: Sequence) -> None:
    if len(x) != len(y):
        raise DimensionMismatch(f"dimension {len(x)} vs {len(y)}")


def dot(p: Sequence[Fraction], x: Sequence[Fraction]) -> Fraction:
    """Exact inner product."""
    _check_dims(p, x)
    total = Fraction(0)
    for pi, xi in zip(p, x):
        total += pi * xi
    return total


def dominates(x: Sequence[Fraction], y: Sequence[Fraction]) -> bool:
    """True when x >= y in every coordinate and x != y (product order)."""
    _check_dims(x, y)
    return all(a >= b for a, b in zip(x, y)) \
        and any(a != b for a, b in zip(x, y))
