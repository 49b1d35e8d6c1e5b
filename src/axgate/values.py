"""Typed runtime values shared by the compiler, kernel, and gateway.

Every value on the decision path is exact: quantities are arbitrary-precision
rationals, money is an exact count of minor units tagged with a currency code,
and atoms/flags/text compare by identity. No floats survive past the wire
boundary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

KIND_QUANTITY = "quantity"
KIND_MONEY = "money"
KIND_ENUM = "enum"
KIND_FLAG = "flag"
KIND_TEXT = "text"

KINDS = (KIND_QUANTITY, KIND_MONEY, KIND_ENUM, KIND_FLAG, KIND_TEXT)


@dataclass(frozen=True, slots=True)
class Money:
    """An exact amount of minor currency units (cents for USD).

    `minor` is a Fraction so that scaling by rational factors (e.g. a 10%
    capital threshold) stays exact mid-expression; wire inputs are always
    integral.
    """

    minor: Fraction
    ccy: str

    def __str__(self) -> str:
        return f"{self.minor} {self.ccy} (minor units)"


Value = Union[Fraction, Money, bool, str]


class WireValueError(ValueError):
    """Raised when a wire-format value cannot be read as its declared kind."""


# Fraction("1e10000000") builds a 33-million-bit integer. A string's decimal
# exponent is held to Python's int-to-string digit limit, the bound a JSON
# integer already has.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")


def rational_from_wire(raw: object) -> Fraction:
    """Convert a wire scalar to an exact rational.

    Accepted forms: int, decimal/fraction strings ("0.45", "9/20", "1e-3"),
    and JSON floats. Floats are reinterpreted through their shortest decimal
    representation, so a JSON document containing 0.45 binds exactly 9/20.
    A string's exponent may be at most MAX_EXPONENT in absolute value.
    """
    if isinstance(raw, bool):
        raise WireValueError("boolean is not a quantity")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        if raw != raw or raw in (float("inf"), float("-inf")):
            raise WireValueError("non-finite number")
        return Fraction(repr(raw))
    if isinstance(raw, str):
        try:
            exponent = _EXPONENT.search(raw)
            if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
                raise ValueError("exponent out of range")
            return Fraction(raw.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise WireValueError(f"not a rational: {raw!r}") from exc
    raise WireValueError(f"not a rational: {raw!r}")


def money_from_wire(raw: object) -> Money:
    """Convert a wire object {"minor": int, "ccy": code} to Money."""
    if not isinstance(raw, dict):
        raise WireValueError(f"not a money object: {raw!r}")
    minor = raw.get("minor")
    ccy = raw.get("ccy")
    if isinstance(minor, bool) or not isinstance(minor, int):
        raise WireValueError("money minor units must be an integer")
    if not isinstance(ccy, str) or not ccy:
        raise WireValueError("money requires a currency code")
    return Money(Fraction(minor), ccy)


def value_from_wire(raw: object, kind: str) -> Value:
    """Coerce a decoded JSON value to the typed value for `kind`."""
    if kind == KIND_QUANTITY:
        return rational_from_wire(raw)
    if kind == KIND_MONEY:
        return money_from_wire(raw)
    if kind == KIND_FLAG:
        if isinstance(raw, bool):
            return raw
        raise WireValueError(f"not a flag: {raw!r}")
    if kind in (KIND_ENUM, KIND_TEXT):
        if isinstance(raw, str):
            return raw
        raise WireValueError(f"not a string: {raw!r}")
    raise WireValueError(f"unknown kind: {kind!r}")


def decimal_digits(q: Fraction) -> int | None:
    """Number of decimal places of q when it terminates, else None."""
    den = q.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    return max(twos, fives)


def exact_decimal(q: Fraction) -> str | None:
    """q written as an exact decimal ("0.45", "-1.75", "5") when it
    terminates, else None."""
    places = decimal_digits(q)
    if places is None:
        return None
    if places == 0:
        return str(q.numerator)
    scaled = q.numerator * 10**places // q.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def render_decimal(q: Fraction, *, max_places: int = 6) -> str:
    """Render a rational as a decimal string.

    Terminating decimals render exactly; anything else is rounded to
    `max_places` places and prefixed with the approximation marker so a reader
    can never mistake a rounded figure for an exact one.
    """
    exact = exact_decimal(q)
    if exact is not None:
        return exact
    rounded = round(q * 10**max_places)  # banker's rounding; marked anyway
    return "≈" + exact_decimal(Fraction(rounded, 10**max_places))


MINOR_UNITS_PER_MAJOR = 100  # display convention; comparisons use raw minors


def render_value(value: Value) -> str:
    """Human rendering used by notices and reports."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return render_decimal(value)
    if isinstance(value, Money):
        major = render_decimal(value.minor / MINOR_UNITS_PER_MAJOR,
                               max_places=4)
        return f"{major} {value.ccy}"
    return str(value)
