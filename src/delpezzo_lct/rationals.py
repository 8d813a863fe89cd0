"""Exact rational helpers shared by the CLI, reports and config files.

Rationals travel as strings "p/q" in lowest terms with positive
denominator ("p" when the denominator is 1); the infinite threshold
sentinel is rendered "inf".
"""

from __future__ import annotations

from fractions import Fraction


def format_rational(value: Fraction | int | None) -> str:
    """Render an exact rational; ``None`` stands for +infinity."""
    if value is None:
        return "inf"
    return str(value if type(value) is Fraction else Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction.

    Raises ValueError on malformed input (including floats: thresholds
    are exact rationals, never binary approximations).
    """
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError(f"not an exact rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None
