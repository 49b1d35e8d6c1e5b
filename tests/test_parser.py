import random
from fractions import Fraction

from axgate.parser import parse
from axgate.randgen import PolicyGenerator
from axgate.syntax import (
    Axiom,
    Binary,
    Compare,
    Lit,
    Name,
    print_policy,
)


def test_single_axiom_capital_policy():
    result = parse(
        "axiom cap forbid execute_trade when trade_value > 0.10 * daily_capital"
    )
    assert result.ok
    axioms = result.ast.axioms
    assert len(axioms) == 1
    ax = axioms[0]
    assert ax.id == "cap"
    assert ax.effect == "forbid"
    assert ax.tool == "execute_trade"
    assert ax.condition == Compare(
        ">", Name("trade_value"),
        Binary("*", Lit(Fraction(1, 10)), Name("daily_capital")),
    )


def test_empty_input_is_empty_ast():
    result = parse("")
    assert result.ok
    assert result.ast.items == ()
    assert parse("   \n# only a comment\n").ok


def test_dangling_comparison_is_syntax_error():
    result = parse("axiom x forbid t when (a >")
    assert not result.ok
    assert any(d.code == "syntax" for d in result.diagnostics)
    diag = result.diagnostics[0]
    assert diag.span.line >= 1 and diag.span.col >= 1


def test_concept_declarations_full_form():
    src = (
        'concept volume : quantity from request unit "shares" "Order volume"\n'
        'concept price : money "USD" from state "Share price"\n'
        'concept order_type : enum { market, limit } from request "Order type"\n'
        'concept halted : flag from state "Trading halted"\n'
        'concept ticker : text from request "Ticker symbol"\n'
        'concept total : money "USD" from derived = volume * price "Total"\n'
    )
    result = parse(src)
    assert result.ok, [d.render() for d in result.diagnostics]
    concepts = result.ast.concepts
    assert [c.symbol for c in concepts] == [
        "volume", "price", "order_type", "halted", "ticker", "total"
    ]
    assert concepts[0].unit == "shares"
    assert concepts[1].ccy == "USD"
    assert concepts[2].atoms == ("market", "limit")
    assert concepts[5].origin == "derived"
    assert concepts[5].derived is not None


def test_error_recovery_reports_multiple_and_continues():
    src = (
        "axiom one forbid t when (bad >\n"
        "axiom two permit t when x > 1\n"
        "axiom three permit when y > 1\n"  # missing tool pattern
    )
    result = parse(src)
    assert not result.ok
    assert len(result.diagnostics) >= 2


def test_comparison_chaining_rejected():
    result = parse("axiom a forbid t when 1 < x < 2")
    assert not result.ok
    assert any("chained" in d.message for d in result.diagnostics)


def test_invalid_utf8_bytes_yield_located_diagnostic():
    result = parse(b"axiom a forbid t when x > \xff\xfe 1")
    assert not result.ok
    assert result.diagnostics[0].code == "syntax"
    assert result.diagnostics[0].span.line == 1


def test_unterminated_string():
    result = parse('concept a : text from request "no close')
    assert not result.ok


def test_roundtrip_shipped_policy():
    with open("src/axgate/policies/sec15c3_5.pol", encoding="utf-8") as fh:
        source = fh.read()
    first = parse(source)
    assert first.ok
    printed = print_policy(first.ast)
    second = parse(printed)
    assert second.ok
    assert first.ast == second.ast


def test_roundtrip_property_generated_policies():
    rng = random.Random(20260809)
    gen = PolicyGenerator(rng)
    for _ in range(200):
        source, _env = gen.gen_policy()
        first = parse(source)
        assert first.ok, source
        printed = print_policy(first.ast)
        second = parse(printed)
        assert second.ok, printed
        assert first.ast == second.ast, f"round-trip drift:\n{source}\n---\n{printed}"


def test_explain_template_parses():
    result = parse(
        'concept v : quantity from request "V"\n'
        'axiom a forbid t when v > 1 explain "Value {v} too large."\n'
    )
    assert result.ok
    ax = result.ast.axioms[0]
    assert isinstance(ax, Axiom)
    assert ax.explain == "Value {v} too large."


def test_wildcard_tool_and_star_literal():
    result = parse('concept v : quantity from request "V"\naxiom a forbid * when v > 1')
    assert result.ok
    assert result.ast.axioms[0].tool == "*"
