"""Canonical serialization and digests.

Everything that gets hashed (policy environments, proof traces, audit
records) goes through here: UTF-8, lexicographically sorted keys, no
insignificant whitespace, rationals as reduced "p/q" with a positive
denominator, money as {"ccy": code, "minor": integer}. Equal structures
serialize to byte-identical documents on any platform.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from json.encoder import encode_basestring

from .values import KIND_MONEY, KIND_QUANTITY, Money

ZERO_DIGEST = "0" * 64


def rational_token(q: Fraction) -> str:
    """Reduced p/q form, q > 0 (Fraction normalizes the sign to p)."""
    return f"{q.numerator}/{q.denominator}"


def to_plain(value: object) -> object:
    """Map a typed value tree onto JSON-compatible canonical structures."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (Fraction, Money)):
        return plain_value(value)
    if isinstance(value, (list, tuple)):
        return [to_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_plain(v) for k, v in value.items()}
    raise TypeError(f"not canonicalizable: {value!r}")


def plain_value(value: object) -> object:
    """Canonical plain form of one leaf value: rationals as "p/q", money as
    {"ccy", "minor"} with integral minor units as a JSON integer."""
    t = type(value)
    if t is Fraction:
        return f"{value.numerator}/{value.denominator}"
    if t is Money:
        minor = value.minor
        return {
            "ccy": value.ccy,
            # Scaled intermediates can carry fractional minor units.
            "minor": minor.numerator if minor.denominator == 1
            else f"{minor.numerator}/{minor.denominator}",
        }
    return value  # None, bool, int, str pass through


# JSON text of one string exactly as canonical_bytes writes it: the
# encoder json.dumps uses with ensure_ascii=False.
json_string = encode_basestring


def _money_json(value: Money) -> str:
    minor = value.minor
    minor_text = str(minor.numerator) if minor.denominator == 1 \
        else f'"{minor.numerator}/{minor.denominator}"'
    return f'{{"ccy":{encode_basestring(value.ccy)},"minor":{minor_text}}}'


_VALUE_JSON = {
    Money: _money_json,
    bool: lambda b: "true" if b else "false",
    str: encode_basestring,
    type(None): lambda _: "null",
}


def value_json(value: object) -> str:
    """Canonical JSON text of plain_value(value), written without building
    the plain form: the bytes canonical_bytes_plain gives for it."""
    if type(value) is Fraction:
        return f'"{value.numerator}/{value.denominator}"'
    encode = _VALUE_JSON.get(type(value))
    if encode is None:
        return canonical_bytes_plain(plain_value(value)).decode("utf-8")
    return encode(value)


def value_from_plain(plain: object, decl) -> object:
    """Inverse of plain_value for a leaf of the declared concept's kind."""
    if decl.kind == KIND_QUANTITY:
        return Fraction(plain)
    if decl.kind == KIND_MONEY:
        return Money(Fraction(plain["minor"]), plain["ccy"])
    return plain  # flag, enum and text values are already plain


def canonical_bytes(doc: object) -> bytes:
    return json.dumps(
        to_plain(doc), sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def canonical_bytes_plain(doc: object) -> bytes:
    """Serialize a document that is already in canonical plain form."""
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_of(doc: object) -> str:
    return sha256_hex(canonical_bytes(doc))
