"""Parsing and formatting of exact rationals used by the JSON schemas."""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse ``"p/q"`` (or a bare integer) into an exact rational."""
    if isinstance(text, bool):
        raise ValueError("expected a rational, got a boolean")
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a rational as ``"p"`` or ``"p/q"`` (lowest terms, q > 0)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
