import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seprat.numerics import (DimensionMismatch, RationalFormatError,
                             dominates, dot, format_rational, parse_rational,
                             rvector)

F = Fraction

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50)


class TestDot:
    def test_support_price_cross_cost(self):
        # p at (1,1) against the half-step bundle on the hyperbola
        assert dot((F(1, 2), F(1, 2)), (F(3, 2), F(2, 3))) == F(13, 12)

    def test_support_price_normalizes_own_bundle(self):
        assert dot((F(1, 2), F(1, 2)), (F(1), F(1))) == 1

    def test_zero_vector_annihilates(self):
        assert dot((F(0), F(0)), (F(5), F(7))) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dot((F(1),), (F(1), F(2)))

    @given(st.lists(rationals, min_size=1, max_size=6),
           st.lists(rationals, min_size=1, max_size=6),
           st.lists(rationals, min_size=1, max_size=6))
    def test_bilinearity(self, p, x, y):
        n = min(len(p), len(x), len(y))
        p, x, y = tuple(p[:n]), tuple(x[:n]), tuple(y[:n])
        xy = tuple(a + b for a, b in zip(x, y))
        assert dot(p, xy) == dot(p, x) + dot(p, y)


class TestDominates:
    def test_strictly_greater(self):
        assert dominates((F(2), F(2)), (F(1), F(1))) is True

    def test_equal(self):
        assert dominates((F(1), F(1)), (F(1), F(1))) is False

    def test_hyperbola_points_incomparable(self):
        # adjacent bundles on y = 1/x trade off the two coordinates
        assert dominates((F(1), F(1)), (F(3, 2), F(2, 3))) is False
        assert dominates((F(3, 2), F(2, 3)), (F(1), F(1))) is False

    def test_weakly_greater_counts_as_strict(self):
        assert dominates((F(2), F(1)), (F(1), F(1))) is True

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dominates((F(1),), (F(1), F(2)))


class TestParseFormat:
    @pytest.mark.parametrize("text,value", [
        ("-3/2", F(-3, 2)), ("7", F(7)), ("+5", F(5)), ("0", F(0)),
        (" 4/6 ", F(2, 3)),
    ])
    def test_accepts(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", [
        "3/0", "1.5", "", "3/-2", "/2", "3/", "1e2", "a", "1 2"])
    def test_rejects(self, text):
        with pytest.raises(RationalFormatError):
            parse_rational(text)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


def test_arithmetic_against_integer_cross_multiplication():
    # fuzz Fraction arithmetic against a second, pure-integer path
    rng = random.Random(7)
    for _ in range(300):
        a, b = rng.randint(-50, 50), rng.randint(1, 30)
        c, d = rng.randint(-50, 50), rng.randint(1, 30)
        x, y = F(a, b), F(c, d)
        s = x + y
        assert s.numerator * (b * d) == (a * d + c * b) * s.denominator
        m = x * y
        assert m.numerator * (b * d) == (a * c) * m.denominator
        # comparison agrees with the cross-multiplication sign
        assert (x < y) == (a * d < c * b)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


def test_vector_helpers():
    assert rvector(["1/2", 3, F(1, 4)]) == (F(1, 2), F(3), F(1, 4))
