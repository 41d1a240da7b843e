"""Exact rational scalars and inner products.

Data stays exact: every quantity is a `fractions.Fraction`, and nothing in
the core touches floating point, so strict inequalities are decided
exactly.  Vectors are plain tuples of Fractions; the decider's arena and
the witness checker compute on integers scaled by common denominators
instead.

`dot` skips every term with a zero factor and returns the same `Fraction`
as the full sum.  Its main caller is the compiler's build-time checks,
whose rows are sparse: each compiled bundle holds one unit of one of six
bookkeeping goods, and each price leaves one or two goods free, so at
least five of a nine-coordinate product's terms are zero.
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
    """Exact inner product, as a `Fraction` even when every term is zero.

    A term with a zero factor adds nothing, so it is skipped before its
    `Fraction` product and sum are formed; the result is the same
    `Fraction` as the full sum.  Compiled rows are mostly zeros (see the
    module docstring), so the compiler's per-level chain check skips most
    of its terms.
    """
    if len(p) != len(x):
        raise DimensionMismatch(f"dimension {len(p)} vs {len(x)}")
    total = Fraction(0)
    for pi, xi in zip(p, x):
        if pi and xi:
            total += pi * xi
    return total
