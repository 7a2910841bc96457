"""Exact rational scalars and their canonical ``"p/q"`` wire format.

Every scalar the library takes or gives back is a :class:`fractions.Fraction`:
always reduced, positive denominator, exact total order.  Inside the lattice
kernel (:mod:`trunclat.spaces`) element values are kept as the same reduced
``(numerator, denominator)`` integer pairs, and ``Fraction``s are built only at
the boundary.  Floats are rejected at every entry point so that law checking
stays sound.
"""

import re
from fractions import Fraction

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or a bare integer string.

    Decimal notation, non-strings and a zero denominator raise ``ValueError``.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a 'p/q' string, got {type(text).__name__} {text!r}")
    stripped = text.strip()
    if not _RATIONAL_RE.match(stripped):
        raise ValueError(f"not a rational literal: {text!r} (use 'p/q' or an integer)")
    try:
        return Fraction(stripped)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Canonical form: always ``"p/q"``, including a denominator of 1."""
    return f"{value.numerator}/{value.denominator}"


def coerce_rational(value) -> Fraction:
    """Accept Fraction, int, or a rational literal string; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"exact rational required, got {type(value).__name__} ({value!r})")
