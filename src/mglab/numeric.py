"""Shared number handling.

Every quantity in this package is an ``int``, a ``fractions.Fraction``, or a
``float``.  Ints and Fractions are exact and compared with ``==``; the moment
a float enters a computation the result is inexact and comparisons fall back
to an absolute tolerance.  Helpers here keep that policy in one place.
"""
from __future__ import annotations

import math
from fractions import Fraction

Number = int | Fraction | float

DEFAULT_TOLERANCE = 1e-12


def as_number(value) -> Number:
    """Coerce ``value`` into the package's number domain.

    Ints and Fractions pass through unchanged (a Fraction with denominator 1
    is reduced to an int).  Floats pass through except that negative zero is
    normalized to ``0.0``.  Strings are parsed with :func:`parse_number`.
    Booleans are rejected: a bare ``True`` in a value column is almost always
    a bug, not a number.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not valid numeric values")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"numeric values must be finite, got {value!r}")
        return 0.0 if value == 0.0 else value
    if isinstance(value, str):
        return parse_number(value)
    raise TypeError(f"expected int, Fraction, float, or numeric string, got {type(value).__name__}")


def as_exact(value) -> Fraction | int:
    """Coerce to an exact rational: :func:`as_number`, with a float made a Fraction.

    A float is converted through its exact binary value, so ``0.5`` is fine but
    ``0.1`` becomes the nearby dyadic rational; callers that need a clean
    decimal should pass a string.
    """
    value = as_number(value)
    return Fraction(value) if isinstance(value, float) else value


def parse_number(text: str) -> Number:
    """Parse ``"p/q"``, integer, or decimal strings to an exact value.

    ``Fraction`` accepts all three forms and keeps decimals exact
    (``"0.3"`` becomes 3/10, not a float).  The literals ``"inf"``/``"nan"``
    are rejected.  ASCII ``[-]digits[/digits]``, as in spec weights, skips the regex.
    """
    num, slash, den = text.partition("/")
    try:
        if (num + den).isascii() and num.removeprefix("-").isdigit() and (
                den.isdigit() or not slash):
            value = Fraction(int(num), int(den)) if slash else int(num)
        else:
            value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {text!r} as a number") from exc
    return int(value) if value.denominator == 1 else value


def format_number(value: Number) -> str:
    """Render a number for JSON output.

    Exact values print as ``"p/q"`` (or a bare integer string); floats print
    with ``%.17g`` which round-trips every IEEE double.
    """
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(value)
    raise TypeError(f"not a number: {value!r}")


def is_exact(value: Number) -> bool:
    return not isinstance(value, float)


def numbers_equal(a: Number, b: Number, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Exact equality when both sides are exact, else ``|a-b| <= tolerance``."""
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= tolerance
    return a == b


def sign_with_tolerance(value: Number, tolerance: float = DEFAULT_TOLERANCE) -> int:
    """-1, 0, or +1; floats within ``tolerance`` of zero count as zero."""
    if isinstance(value, float):
        if abs(value) <= tolerance:
            return 0
        return 1 if value > 0 else -1
    if value == 0:
        return 0
    return 1 if value > 0 else -1
