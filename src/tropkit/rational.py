"""Exact rationals at the boundary: the one parser of outside values
(``as_fraction``) and the one printer (``rational_str``) of every layer."""

import sys
from fractions import Fraction

from .errors import InputError

__all__ = ["as_fraction", "rational_str"]

# the int digit limit; 0 (no limit) on interpreters older than 3.10.7
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)


def as_fraction(value, location: str = "") -> Fraction:
    """The exact rational an outside value stands for: a Fraction, an int
    that is not a bool, or a string that ``Fraction`` parses ("-3", "5/3",
    the exact decimal "1.5", the exponent form "1e3"). Floats, booleans,
    strings whose numerator or denominator would pass the int digit limit
    (``sys.get_int_max_str_digits``, so the value could not be printed) and
    anything else raise InputError at location."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError("expected a rational, got a boolean", location)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError('floats are not accepted; write rationals as "p/q" strings', location)
    if isinstance(value, str):
        try:
            return _parse_rational(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"not a rational: {value!r}", location) from None
        except OverflowError:
            raise InputError(f"past the {_DIGIT_LIMIT()}-digit limit: {value!r}",
                             location) from None
    raise InputError(f"expected a rational, got {type(value).__name__}", location)


def _parse_rational(text: str) -> Fraction:
    """Fraction(text), raising OverflowError past the digit limit. Like
    ``int``, which counts leading zeros, it refuses an exponent larger than
    the limit plus the mantissa's length on any mantissa, before
    ``Fraction`` builds that power of ten."""
    limit = _DIGIT_LIMIT()
    mantissa, _, exponent = text.lower().partition("e")
    if limit and exponent and abs(int(exponent)) > limit + len(mantissa):
        raise OverflowError
    value = Fraction(text)
    if limit and (exponent or len(text) > limit):
        try:
            str(value)  # printing an int is where the digit limit is checked
        except ValueError:
            raise OverflowError from None
    return value


def rational_str(value: Fraction) -> str:
    """Canonical string form: lowest terms, "p" or "p/q" with q > 0. A value
    past the int digit limit, which inputs inside it can combine into, is an
    InputError at "output"."""
    try:
        return str(Fraction(value))
    except ValueError:
        raise InputError(f"a result has a rational past the {_DIGIT_LIMIT()}-digit limit",
                         "output") from None
