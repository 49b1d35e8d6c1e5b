"""Canonical serialization and digests.

Everything that gets hashed (policy environments, proof traces, audit
records) goes through here: UTF-8, lexicographically sorted keys, no
insignificant whitespace, rationals as reduced "p/q" with a positive
denominator, money as {"ccy": code, "minor": integer}. Producers hand
canonical_bytes plain documents, with each typed leaf mapped by
plain_value, the one leaf codec. Equal structures serialize to
byte-identical documents on any platform.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from json.encoder import encode_basestring

from .values import KIND_MONEY, KIND_QUANTITY, Money

ZERO_DIGEST = "0" * 64


def plain_value(value: object) -> object:
    """Canonical plain form of one leaf value: rationals as reduced "p/q"
    with q > 0 (Fraction normalizes the sign to p), money as {"ccy",
    "minor"} with integral minor units as a JSON integer."""
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


def encodable(text: str) -> bool:
    """Whether `text` can be written as UTF-8: it holds no lone surrogate,
    which a JSON escape can spell."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def pair_json(pair: tuple) -> str:
    """Canonical JSON text of an exact value held as ints: (n, d) is the
    rational n/d and (n, d, ccy) is money of n/d minor units, each reduced
    with d > 0. The one writer of rational and money text."""
    if len(pair) == 2:
        return '"%d/%d"' % pair
    n, d, ccy = pair
    if d == 1:
        return '{"ccy":%s,"minor":%d}' % (encode_basestring(ccy), n)
    return '{"ccy":%s,"minor":"%d/%d"}' % (encode_basestring(ccy), n, d)


def value_from_plain(plain: object, decl) -> object:
    """Inverse of plain_value for a leaf of the declared concept's kind."""
    if decl.kind == KIND_QUANTITY:
        return Fraction(plain)
    if decl.kind == KIND_MONEY:
        return Money(Fraction(plain["minor"]), plain["ccy"])
    return plain  # flag, enum and text values are already plain


# The encoder json.dumps(doc, sort_keys=True, separators=(",", ":"),
# ensure_ascii=False) builds on every call, built once. It keeps no state
# between calls.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_bytes(doc: object) -> bytes:
    """Serialize a plain document: dicts, lists, str, int, bool and None,
    with every typed leaf already mapped by plain_value. A typed leaf left
    in (a Fraction, a Money) raises TypeError."""
    return _ENCODER.encode(doc).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_of(doc: object) -> str:
    return sha256_hex(canonical_bytes(doc))
