"""Number coercion, parsing, formatting, and tolerance-aware comparison."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mglab.numeric import (
    DEFAULT_TOLERANCE,
    as_exact,
    as_number,
    format_number,
    is_exact,
    numbers_equal,
    parse_number,
    sign_with_tolerance,
)


def test_as_number_normalizes_unit_denominator():
    v = as_number(Fraction(6, 3))
    assert v == 2 and isinstance(v, int)


def test_as_number_rejects_bool():
    with pytest.raises(TypeError):
        as_number(True)


def test_as_number_normalizes_negative_zero():
    v = as_number(-0.0)
    assert str(v) == "0.0"


def test_as_number_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_number(float("inf"))
    with pytest.raises(ValueError):
        as_number(float("nan"))


def test_parse_number_exact_decimal():
    assert parse_number("0.3") == Fraction(3, 10)
    assert parse_number("1/3") == Fraction(1, 3)
    assert parse_number("-7") == -7


def test_parse_number_rejects_garbage():
    for bad in ("", "one", "1/0", "inf", "nan"):
        with pytest.raises(ValueError):
            parse_number(bad)


# Strings that take the split-and-int route next to every form only Fraction's
# parser reads, and refusals of both kinds.
PARSE_CORPUS = [
    "1/3", "-1/3", "+1/3", "4/2", "-4/2", "6/-2", "-0", "0", "0/5", "-0/5", "1/0", "0/0",
    "1/-3", " 1/3 ", "1/3\n", "1 /3", "1/ 3", "1_000/3", "1/3_0", "1e3", "0.25", "-.5",
    "inf", "-inf", "nan", "", " ", "-", "/", "1/", "/3", "--1", "1//3", "1/3/5", "007/021",
    "12345678901234567890123/7", "\u0663", "\u0661/\u0663", "1/\u0663", "\u00b2",
    "\uff11/3", "x", "1/x", pytest.param("9" * 5000, id="5000 digits"),
]


def _reference_parse(text):
    """The parser before the split route: every string through Fraction(text.strip())."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return f"raised ValueError: cannot parse {text!r} as a number"
    return int(value) if value.denominator == 1 else value


def _parsed(text):
    try:
        return parse_number(text)
    except ValueError as exc:
        return f"raised ValueError: {exc}"


@pytest.mark.parametrize("text", PARSE_CORPUS)
def test_parse_number_matches_the_fraction_parser(text):
    got, expected = _parsed(text), _reference_parse(text)
    assert (type(got), got) == (type(expected), expected)


def test_format_round_trip_exact():
    for v in (0, -3, Fraction(22, 7), Fraction(-1, 3)):
        assert parse_number(format_number(v)) == v


def test_format_float_17_digits():
    assert format_number(0.1) == "0.10000000000000001"


def test_as_exact_uses_binary_value_of_float():
    assert as_exact(0.5) == Fraction(1, 2)
    assert as_exact(0.1) == Fraction(0.1)
    assert as_exact(0.1) != Fraction(1, 10)


def test_as_exact_follows_the_rules_of_as_number():
    with pytest.raises(TypeError) as exc:
        as_exact(None)
    assert str(exc.value) == "expected int, Fraction, float, or numeric string, got NoneType"
    v = as_exact(Fraction(4, 2))
    assert v == 2 and type(v) is int


def test_is_exact():
    assert is_exact(3) and is_exact(Fraction(1, 3))
    assert not is_exact(0.5)


def test_numbers_equal_exact_pair_needs_equality():
    assert numbers_equal(Fraction(1, 3), Fraction(1, 3), 0.5)
    assert not numbers_equal(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30), 0.5)


def test_numbers_equal_float_pair_uses_tolerance():
    assert numbers_equal(0.1 + 0.2, 0.3, DEFAULT_TOLERANCE)
    assert not numbers_equal(0.1, 0.2, DEFAULT_TOLERANCE)


def test_sign_with_tolerance():
    assert sign_with_tolerance(Fraction(1, 10**20), DEFAULT_TOLERANCE) == 1
    assert sign_with_tolerance(-5, DEFAULT_TOLERANCE) == -1
    assert sign_with_tolerance(1e-15, DEFAULT_TOLERANCE) == 0
    assert sign_with_tolerance(0, DEFAULT_TOLERANCE) == 0


@given(st.fractions(min_value=-100, max_value=100))
def test_parse_format_round_trip_fractions(q):
    assert parse_number(format_number(as_number(q))) == q


@given(st.integers(min_value=-10**12, max_value=10**12))
def test_parse_format_round_trip_integers(n):
    out = parse_number(format_number(n))
    assert out == n and isinstance(out, int)


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_float_formatting_is_lossless(x):
    assert float(format_number(as_number(x))) == x or (x == 0.0)
