import json
from fractions import Fraction

import pytest

from axgate.canonical import (
    ZERO_DIGEST,
    canonical_bytes,
    digest_of,
    plain_value,
    value_from_plain,
)
from axgate.kernel import _pair, _text
from axgate.registry import ConceptDecl
from axgate.values import (
    Money,
    WireValueError,
    decimal_digits,
    money_from_wire,
    rational_from_wire,
    render_decimal,
    render_value,
    value_from_wire,
)


def test_rational_from_wire_decimal_string_is_exact():
    assert rational_from_wire("0.45") == Fraction(9, 20)
    assert rational_from_wire("9/20") == Fraction(9, 20)
    assert rational_from_wire(50000) == Fraction(50000)


def test_rational_from_wire_float_uses_shortest_decimal():
    # JSON parsers hand us floats; 0.45 must mean 45/100, not its binary blob.
    assert rational_from_wire(0.45) == Fraction(9, 20)
    assert rational_from_wire(0.1) == Fraction(1, 10)


@pytest.mark.parametrize("bad", [True, float("nan"), float("inf"), "abc", None, []])
def test_rational_from_wire_rejects(bad):
    with pytest.raises(WireValueError):
        rational_from_wire(bad)


def test_rational_from_wire_bounds_a_string_exponent():
    assert rational_from_wire("1e4300") == Fraction(10**4300)
    assert rational_from_wire(" 1E-4300 ") == Fraction(1, 10**4300)
    assert rational_from_wire("2.5e+4_300") == Fraction(25 * 10**4299)
    assert rational_from_wire(1e300) == Fraction(10**300)
    assert rational_from_wire(repr(1e-300)) == Fraction(1, 10**300)
    for bad in ("1e4301", "1e-4301", "1e10000000", "1e1_0000000",
                "1e" + "9" * 5000):
        with pytest.raises(WireValueError):
            rational_from_wire(bad)


def test_money_from_wire():
    m = money_from_wire({"minor": 20000, "ccy": "USD"})
    assert m == Money(Fraction(20000), "USD")
    for bad in ({"minor": 1.5, "ccy": "USD"}, {"minor": 1}, {"ccy": "USD"},
                {"minor": True, "ccy": "USD"}, "100 USD"):
        with pytest.raises(WireValueError):
            money_from_wire(bad)


def test_value_from_wire_kinds():
    assert value_from_wire(True, "flag") is True
    assert value_from_wire("market", "enum") == "market"
    assert value_from_wire("AAPL", "text") == "AAPL"
    with pytest.raises(WireValueError):
        value_from_wire("yes", "flag")


def test_decimal_digits():
    assert decimal_digits(Fraction(1, 10)) == 1
    assert decimal_digits(Fraction(45, 100)) == 2
    assert decimal_digits(Fraction(5)) == 0
    assert decimal_digits(Fraction(1, 3)) is None


def test_render_decimal_exact_and_approximate():
    assert render_decimal(Fraction(9, 20)) == "0.45"
    assert render_decimal(Fraction(43, 100)) == "0.43"
    assert render_decimal(Fraction(-7, 4)) == "-1.75"
    assert render_decimal(Fraction(5)) == "5"
    approx = render_decimal(Fraction(1, 3))
    assert approx.startswith("≈")
    assert "0.333333" in approx


def test_render_value_money():
    assert render_value(Money(Fraction(1_000_000_000), "USD")) == "10000000 USD"
    assert render_value(Money(Fraction(123456), "USD")) == "1234.56 USD"


def test_canonical_rational_token_and_money():
    assert plain_value(Fraction(10, 4)) == "5/2"
    assert plain_value(Fraction(-3, 6)) == "-1/2"
    assert plain_value(Money(Fraction(150), "USD")) == \
        {"ccy": "USD", "minor": 150}
    assert plain_value(Money(Fraction(1, 3), "USD")) == \
        {"ccy": "USD", "minor": "1/3"}


def test_canonical_bytes_sorted_and_stable():
    a = canonical_bytes({"b": plain_value(Fraction(1, 2)),
                         "a": [plain_value(Fraction(3))]})
    assert a == b'{"a":["3/1"],"b":"1/2"}'
    assert digest_of({"x": 1}) == digest_of({"x": 1})
    assert ZERO_DIGEST == "0" * 64


@pytest.mark.parametrize("value, decl", [
    (Fraction(-9, 20), ConceptDecl("q", "quantity", "Q")),
    (Money(Fraction(1_000_000_000), "USD"), ConceptDecl("m", "money", "M",
                                                         ccy="USD")),
    (Money(Fraction(1, 10) * 5_000_000_001, "USD"),
     ConceptDecl("m", "money", "M", ccy="USD")),
    (True, ConceptDecl("f", "flag", "F")),
    ("limit", ConceptDecl("e", "enum", "E", atoms=("market", "limit"))),
    ("AAPL", ConceptDecl("t", "text", "T")),
])
def test_value_from_plain_inverts_plain_value(value, decl):
    plain = plain_value(value)
    assert canonical_bytes(plain) == _text(_pair(value)).encode("utf-8")
    plain = json.loads(json.dumps(plain))  # as read back from an archive
    decoded = value_from_plain(plain, decl)
    assert decoded == value
    assert type(decoded) is type(value)


@pytest.mark.parametrize("leaf", [Fraction(1, 2),
                                  Money(Fraction(150), "USD")])
def test_canonical_bytes_refuses_a_typed_leaf(leaf):
    """canonical_bytes takes plain documents: a typed leaf is a producer
    that skipped plain_value, not something to convert on the way."""
    for doc in (leaf, {"k": leaf}, [1, [leaf]]):
        with pytest.raises(TypeError):
            canonical_bytes(doc)


def test_render_value_money_on_integers_matches_the_fraction_path():
    """Money renders in major units as render_decimal writes minor / 100.
    On integral minor units that is the text of whole units and cents,
    trailing zeros dropped, written here by divmod as a reference."""
    import random

    def by_divmod(minor: int) -> str:
        major, cents = divmod(abs(minor), 100)
        sign = "-" if minor < 0 else ""
        return f"{sign}{major}" if cents == 0 \
            else f"{sign}{major}.{cents:02d}".rstrip("0")

    rng = random.Random(3)
    minors = [0, 1, -1, 5, -5, 10, -10, 99, -99, 100, -100, 101, 150, -150,
              1000, 10**30 + 1, -(10**30) - 50]
    minors += [rng.randint(-10**9, 10**9) for _ in range(2000)]
    for minor in minors:
        assert render_value(Money(Fraction(minor), "USD")) == \
            f"{by_divmod(minor)} USD", minor
    for minor in [Fraction(m, d) for m in minors[:40] for d in (3, 8, 7, 200)]:
        money = Money(minor, "USD")
        want = f"{render_decimal(minor / 100, max_places=4)} USD"
        assert render_value(money) == want, minor
