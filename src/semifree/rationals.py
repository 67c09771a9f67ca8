"""Exact rationals: parsing and formatting for the JSON schemas, and the
int-first scalar rule used by every module.

A scalar is an ``int`` when it is integral and a ``Fraction`` with a
denominator above 1 otherwise. ``canon`` brings a value to that form and
``qdiv`` divides into it, so no quotient is ever a ``float``.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rational = Fraction | int


def canon(x):
    """An integral ``Fraction`` as its ``int``; any other value unchanged."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def qdiv(a: Rational, b: Rational) -> Rational:
    """Exact ``a / b``: an ``int`` when integral, else a ``Fraction``.

    Raises ``ZeroDivisionError`` when ``b`` is zero, and ``TypeError``
    when either operand is not rational.
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return canon(Fraction(a, b))


_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational(text: str | int | Fraction) -> Rational:
    """Parse ``"p/q"`` (or a bare integer) into a canonical exact rational.

    Surrounding whitespace is allowed; a decimal point, an exponent, an
    underscore or a non-ASCII digit is not.
    """
    if type(text) is not str:
        if isinstance(text, bool):
            raise ValueError("expected a rational, got a boolean")
        if isinstance(text, (int, Fraction)):
            return canon(text)
        if not isinstance(text, str):
            raise ValueError(f"expected a rational string, got {text!r}")
    match = _RATIONAL.fullmatch(text)
    try:
        if match is None:
            raise ValueError
        p, q = match.groups()
        return int(p) if q is None else qdiv(int(p), int(q))
    except (ValueError, ZeroDivisionError) as exc:
        # int() refuses a string of more than 4,300 digits.
        raise ValueError(f"malformed rational {text!r}") from exc


def format_rational(value: Rational) -> str:
    """Render a rational as ``"p"`` or ``"p/q"`` (lowest terms, q > 0)."""
    if type(value) is int:
        return str(value)
    if isinstance(value, (bool, float)):
        raise TypeError(f"expected an exact rational, got {value!r}")
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
