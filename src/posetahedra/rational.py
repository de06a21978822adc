"""Helpers for exact rationals and their canonical string form "p/q"."""

from __future__ import annotations

import os
from fractions import Fraction

from .errors import BitBudgetError

MAX_BITS_ENV = "POSETAHEDRA_MAX_BITS"


def frac(value) -> Fraction:
    """Coerce ints, strings and Fractions to Fraction (floats are rejected)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer or a decimal; a zero denominator is a ValueError,
    and so is an exponent, whose 10^k would take time and memory linear in k."""
    if "e" in text or "E" in text:
        raise ValueError(f"{text!r}: exponents are not accepted, write p/q")
    try:
        return Fraction(text.strip().replace("−", "-"))
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def format_rational(value: Fraction) -> str:
    """Canonical lossless form: "p/q" with q > 0 and gcd(p, q) = 1."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def bit_size(value: Fraction) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def check_bit_budget(values, context: str) -> None:
    """Abort if any rational exceeds the POSETAHEDRA_MAX_BITS cap (if set)."""
    cap = os.environ.get(MAX_BITS_ENV)
    if not cap:
        return
    cap = int(cap)
    worst = 0
    for v in values:
        worst = max(worst, bit_size(v))
        if worst > cap:
            raise BitBudgetError(
                f"{context}: rational coordinates reached {worst} bits, "
                f"over the {MAX_BITS_ENV}={cap} cap"
            )
