from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trunclat import format_rational, parse_rational


def test_parse_accepts_integers_and_fractions():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-5") == Fraction(-5)
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational(" 7/3 ") == Fraction(7, 3)


@pytest.mark.parametrize("bad", ["1.5", "1e3", "a/b", "", "1/", "/2", "1/-2", "nan"])
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", [1, None, ["1/2"], "1/0", "-3/00"])
def test_parse_rejects_non_strings_and_zero_denominators(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_is_always_p_over_q():
    assert format_rational(Fraction(2)) == "2/1"
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    assert format_rational(Fraction(0)) == "0/1"


@settings(max_examples=300, derandomize=True)
@given(st.fractions())
def test_roundtrip(q):
    assert parse_rational(format_rational(q)) == q
