import json
import random

import pytest

from axgate.compiler import compile_source
from axgate.parser import parse
from axgate.registry import build_registry
from axgate.syntax import walk_names
from axgate.typecheck import typecheck


def codes(diags):
    return {d.code for d in diags}


def compile_codes(source):
    return codes(compile_source(source).diagnostics)


def test_registry_two_concepts_one_axiom():
    src = (
        'concept trade_value : money "USD" from state "Trade value"\n'
        'concept capital_limit : money "USD" from state "Capital limit"\n'
        "axiom cap forbid execute_trade when trade_value <= capital_limit\n"
    )
    parsed = parse(src)
    assert parsed.ok
    result = build_registry(parsed.ast)
    assert result.ok
    assert len(result.registry) == 2


def test_unregistered_symbol():
    src = (
        'concept trade_value : money "USD" from state "Trade value"\n'
        "axiom cap forbid execute_trade when tradevalue > trade_value\n"
    )
    parsed = parse(src)
    result = build_registry(parsed.ast)
    assert not result.ok
    assert "unregistered-symbol" in codes(result.diagnostics)


def test_cyclic_derivation():
    src = (
        'concept a : quantity from derived = b + 1 "A"\n'
        'concept b : quantity from derived = a + 1 "B"\n'
        'axiom x permit t when a > 0\n'
    )
    parsed = parse(src)
    result = build_registry(parsed.ast)
    assert not result.ok
    assert "cyclic-derivation" in codes(result.diagnostics)


def test_duplicate_symbol_and_axiom():
    assert "duplicate-symbol" in compile_codes(
        'concept a : flag from state "A"\nconcept a : flag from state "A2"\n'
        "axiom x permit t when a\n"
    )
    assert "duplicate-axiom" in compile_codes(
        'concept a : flag from state "A"\n'
        "axiom x permit t when a\naxiom x forbid t when a\n"
    )


def test_empty_display_name():
    assert "empty-display-name" in compile_codes(
        'concept a : flag from state ""\naxiom x permit t when a\n'
    )


def test_unused_concept_warning_does_not_fail():
    result = compile_source(
        'concept a : flag from state "A"\nconcept unused : flag from state "U"\n'
        "axiom x permit t when a\n"
    )
    assert result.ok
    assert any(d.code == "unused-concept" and d.severity == "warning"
               for d in result.diagnostics)


def test_unused_concept_warnings_scale_and_keep_their_spans():
    """Each warning is placed at its own declaration without a search over
    the other declarations, so a large policy compiles in linear time."""
    import time

    count = 20_000
    source = "".join(f'concept c{i} : flag from request "C{i}"\n'
                     for i in range(count))
    source += 'concept a : flag from state "A"\naxiom x permit t when a\n'
    start = time.perf_counter()
    result = compile_source(source)
    elapsed = time.perf_counter() - start
    assert result.ok
    unused = [d for d in result.diagnostics if d.code == "unused-concept"]
    assert len(unused) == count
    for i, diag in enumerate(unused):
        assert (diag.span.line, diag.message) == (
            i + 1, f"concept 'c{i}' is never referenced")
    assert elapsed < 10.0, f"compiled in {elapsed:.1f} s"


def test_typecheck_dti_example():
    result = compile_source(
        'concept debt_to_income : quantity from state "Debt-to-income ratio"\n'
        "axiom dti permit approve_loan when debt_to_income < 0.43\n"
    )
    assert result.ok, [d.render() for d in result.diagnostics]


def test_type_mismatch_money_vs_text():
    src = (
        'concept trade_value : money "USD" from state "Trade value"\n'
        'concept symbol_name : text from request "Symbol"\n'
        "axiom cap forbid t when trade_value > symbol_name\n"
    )
    result = compile_source(src)
    assert not result.ok
    diags = [d for d in result.diagnostics if d.code == "type-mismatch"]
    assert diags
    # Both inferred kinds appear in the message.
    assert "money" in diags[0].message and "text" in diags[0].message


def test_division_by_zero_literal():
    src = (
        'concept x : quantity from request "X"\n'
        "axiom a forbid t when x / 0 > 1\n"
    )
    result = compile_source(src)
    assert not result.ok
    assert "division-by-zero-literal" in codes(result.diagnostics)


def test_division_by_symbol_rejected():
    src = (
        'concept x : quantity from request "X"\n'
        'concept y : quantity from request "Y"\n'
        "axiom a forbid t when x / y > 1\n"
    )
    result = compile_source(src)
    assert not result.ok
    assert "type-mismatch" in codes(result.diagnostics)


def test_condition_requires_literal_multiplier():
    src = (
        'concept x : quantity from request "X"\n'
        'concept y : quantity from request "Y"\n'
        "axiom a forbid t when x * y > 1\n"
    )
    assert "type-mismatch" in compile_codes(src)


def test_derived_may_multiply_symbols():
    src = (
        'concept volume : quantity from request "Volume"\n'
        'concept price : money "USD" from state "Price"\n'
        'concept total : money "USD" from derived = volume * price "Total"\n'
        "axiom a forbid t when total > 2 * price\n"
    )
    assert compile_source(src).ok


def test_unit_mismatch():
    src = (
        'concept a : quantity from request unit "shares" "A"\n'
        'concept b : quantity from request unit "pct" "B"\n'
        "axiom x forbid t when a > b\n"
    )
    assert "unit-mismatch" in compile_codes(src)


def test_currency_mismatch():
    src = (
        'concept a : money "USD" from request "A"\n'
        'concept b : money "EUR" from request "B"\n'
        "axiom x forbid t when a > b\n"
    )
    assert "currency-mismatch" in compile_codes(src)


def test_money_vs_bare_literal_rejected():
    src = (
        'concept a : money "USD" from request "A"\n'
        "axiom x forbid t when a > 100\n"
    )
    assert "type-mismatch" in compile_codes(src)


def test_condition_must_be_boolean():
    src = (
        'concept a : quantity from request "A"\n'
        "axiom x forbid t when a + 1\n"
    )
    assert "type-mismatch" in compile_codes(src)


def test_enum_atom_membership():
    src = (
        'concept kind : enum { market, limit } from request "Kind"\n'
        "axiom x forbid t when kind == stop\n"
    )
    result = compile_source(src)
    assert not result.ok

    ok = compile_source(
        'concept kind : enum { market, limit } from request "Kind"\n'
        "axiom x forbid t when kind == market\n"
    )
    assert ok.ok


def test_shipped_policy_compiles_with_three_axioms():
    with open("src/axgate/policies/sec15c3_5.pol", encoding="utf-8") as fh:
        result = compile_source(fh.read())
    assert result.ok, [d.render() for d in result.diagnostics]
    assert len(result.environment.axioms) == 3
    effects = {a.id: a.effect for a in result.environment.axioms}
    assert effects == {
        "capital_threshold": "forbid",
        "max_order": "forbid",
        "ordinary_order": "permit",
    }


def test_digest_deterministic_and_source_sensitive():
    src = (
        'concept volume : quantity from request "Volume"\n'
        "axiom a forbid t when volume > 0.10\n"
    )
    first = compile_source(src)
    second = compile_source(src)
    assert first.environment.version_digest == second.environment.version_digest

    changed = compile_source(src.replace("0.10", "0.11"))
    assert changed.environment.version_digest != first.environment.version_digest


def test_digest_ignores_insignificant_formatting():
    # Same normalized literals -> same version digest, whatever the layout.
    a = compile_source(
        'concept v : quantity from request "V"\naxiom a forbid t when v > 0.10\n'
    )
    b = compile_source(
        'concept v : quantity from request "V"\n\n# comment\n'
        "axiom a forbid t when v > 0.1\n"
    )
    assert a.environment.version_digest == b.environment.version_digest


def test_registry_closure_on_generated_policies():
    rng = random.Random(99)
    from axgate.randgen import PolicyGenerator

    gen = PolicyGenerator(rng)
    for _ in range(100):
        _, env = gen.gen_policy()
        registered = set(env.registry.symbols())
        for axiom in env.axioms:
            for ref in walk_names(axiom.condition):
                assert ref.symbol in registered


def test_typecheck_result_has_resolved_names():
    parsed = parse(
        'concept flagged : flag from state "Flagged"\n'
        "axiom x forbid t when flagged\n"
    )
    reg = build_registry(parsed.ast)
    checked = typecheck(parsed.ast, reg.registry)
    assert checked.ok
    condition = checked.typed.axioms[0].condition
    from axgate.syntax import Sym

    assert isinstance(condition, Sym)


# Pinned from the compiler while it could still save environments: the
# SHA-256 over the version digests of the shipped policy and of the
# environments of iter_instances(19, 50), in that order. Any change is a
# change to policy_to_plain, so to every env_version.
GOLDEN_VERSION_DIGESTS_SHA256 = \
    "a1c3feef23f1ea7b17e9d3b24f23fab9eeafd9184d708f8a73e0360a9ba2c545"


def test_golden_version_digests():
    import hashlib

    from axgate.randgen import iter_instances

    h = hashlib.sha256()
    with open("src/axgate/policies/sec15c3_5.pol", encoding="utf-8") as fh:
        h.update(compile_source(fh.read()).environment.version_digest.encode())
    for inst in iter_instances(19, 50):
        h.update(inst.env.version_digest.encode())
    assert h.hexdigest() == GOLDEN_VERSION_DIGESTS_SHA256


# Pinned at the character-by-character tokenizer: the SHA-256 over the
# token stream (kind, text, span) and every compile_source diagnostic
# (severity, code, span, message) of each input, plus the version digest
# of each accepted policy.
GOLDEN_FRONT_END_SHA256 = \
    "d9b2ffbc288a330b1c51afd6108fa9fe949396667b3c6c0aa1572048a252873a"


def _has_non_ascii_digit(data: bytes) -> bool:
    text = data.decode("utf-8", errors="replace")
    return any(ch.isdigit() and not ch.isascii() for ch in text)


def test_golden_front_end():
    """Tokens, diagnostics and digests over the 1,000 distinct policies of
    the randgen pool of seed 221 (6,000 instances, 6 per policy) and the
    first 5,000 inputs of the compiler fuzz corpus. Inputs holding a
    non-ASCII digit are left out: NUMBER takes ASCII digits only, and
    tests/test_lexer.py covers those inputs."""
    import hashlib

    from test_acceptance import _fuzz_corpus

    from axgate.lexer import tokenize
    from axgate.randgen import iter_instances

    pool = iter_instances(221, 6000, env_reuse=6)
    sources = list(dict.fromkeys(inst.source for inst in pool))
    assert len(sources) == 1000
    inputs = [s.encode("utf-8") for s in sources] + list(_fuzz_corpus(5000))
    h = hashlib.sha256()
    kept = 0
    for data in inputs:
        if _has_non_ascii_digit(data):
            continue
        kept += 1
        try:
            tokens = tokenize(data.decode("utf-8"))[0]
        except UnicodeDecodeError:
            tokens = []
        result = compile_source(data)
        record = [
            [[t.kind, t.text, *_span(t.span)] for t in tokens],
            [[d.severity, d.code, *_span(d.span), d.message]
             for d in result.diagnostics],
            result.environment.version_digest if result.ok else None,
        ]
        h.update(json.dumps(record).encode("ascii"))
        h.update(b"\n")
    assert kept > 5000
    assert h.hexdigest() == GOLDEN_FRONT_END_SHA256


def _span(span):
    return [span.line, span.col, span.end_line, span.end_col]


CHAIN_HEAD = (
    'concept x : quantity from request "X"\n'
    'concept f : flag from request "F"\n'
)


def _chain_policy(op: str, height: int) -> str:
    """An axiom whose condition is a tree of the given height (a leaf is 0)
    built by one operator: a left spine for the binary ones."""
    if op == "not":
        return CHAIN_HEAD + "axiom a forbid t when " + "not " * height + "f\n"
    if op in ("and", "or"):
        return CHAIN_HEAD + "axiom a forbid t when " + \
            f" {op} ".join(["f"] * (height + 1)) + "\n"
    # a condition multiplies by constants only; the comparison adds one
    # level above the arithmetic
    operands = ["x"] * height if op == "+" else ["1"] * (height - 1) + ["x"]
    return CHAIN_HEAD + "axiom a forbid t when " + \
        f" {op} ".join(operands) + " > 1\n"


@pytest.mark.parametrize("op", ["+", "*", "and", "or", "not"])
def test_operator_chains_are_bounded_by_the_nesting_limit(op):
    """A tree up to MAX_EXPR_DEPTH high compiles and verifies; a taller
    one, or a 500-operator chain, is a located syntax diagnostic and never
    a RecursionError, whether the parser recursed or looped to build it."""
    from fractions import Fraction

    from axgate import ActionRequest, SystemState, verify
    from axgate.parser import MAX_EXPR_DEPTH

    if op != "not":  # a `not` chain past the limit is too deep to parse at all
        env = compile_source(_chain_policy(op, MAX_EXPR_DEPTH)).environment
        assert env is not None
        request = ActionRequest("r", "t", {"x": Fraction(1), "f": False})
        result = verify(request, SystemState(None), env)
        assert result.trace.canonical() == result.trace_bytes
    for height in (MAX_EXPR_DEPTH + 1, 500):
        result = compile_source(_chain_policy(op, height))  # must never raise
        assert not result.ok
        [diag] = result.diagnostics
        assert (diag.code, diag.message) == ("syntax", "expression nesting too deep")
        assert diag.span.line == 3 and diag.span.col > 1


def test_chains_across_parentheses_and_precedence_levels_share_the_bound():
    chain = " and ".join(["(" + " or ".join(["f"] * 120) + ")"] + ["f"] * 120)
    result = compile_source(CHAIN_HEAD + "axiom a forbid t when " + chain)
    assert [d.message for d in result.diagnostics] == ["expression nesting too deep"]


def _derived_chain(links, condition="d0 > 1", step=" + 1"):
    """`links` derived concepts, each defined by the next one (the last by
    `x`) followed by `step`, and an axiom on the first of them."""
    return 'concept x : quantity from request "X"\n' + "".join(
        f'concept d{i} : quantity from derived = '
        f'{f"d{i + 1}" if i < links - 1 else "x"}{step} "D{i}"\n'
        for i in range(links)) + f"axiom a permit t when {condition}\n"


def test_long_chain_of_derived_definitions_compiles():
    """1,200 derived concepts, each read by the one declared before it:
    the derivation walk keeps its own stack. Substituted, the chain is far
    taller than MAX_EXPR_DEPTH, so it gets one located diagnostic where it
    first passes the bound, and not a RecursionError in the oracle."""
    from axgate.registry import ConceptRegistry, order_derivations

    n = 1200
    source = _derived_chain(n)
    registry = ConceptRegistry({d.symbol: d for d in parse(source).ast.concepts})
    assert order_derivations(registry)[0] == \
        tuple(f"d{i}" for i in reversed(range(n)))
    [diag] = compile_source(source).diagnostics
    assert (diag.code, diag.span.line) == ("syntax", 1101)
    assert "derived definition of 'd1099'" in diag.message


@pytest.mark.parametrize("source, line", [
    # each link is two levels (the name and its `+`): 2 * 99 + 2 = 200
    (_derived_chain(99, "d0 + 0 > 1"), None),
    (_derived_chain(99, "d0 + 0 + 0 > 1"), 101),
    (_derived_chain(100), 102),
    # 20 definitions of height 60: no chain is long, the sum is tall
    (_derived_chain(20, step=" + 1" * 60), 18),
    (_derived_chain(400, step=""), 200),  # bare aliases: each name a level
], ids=["at-the-bound", "one-past", "one-link-past", "20x60", "aliases"])
def test_substituted_height_is_bounded(source, line):
    """A condition or derived definition, with the derived concepts it
    reads substituted, is at most MAX_EXPR_DEPTH high. At the bound the
    oracle, which recurses through every definition, agrees with verify();
    past it, one located diagnostic names where the bound was passed."""
    from fractions import Fraction

    from axgate import ActionRequest, SystemState, verify
    from axgate.oracle import oracle_verify

    result = compile_source(source)
    if line is not None:
        [diag] = result.diagnostics
        assert (diag.code, diag.span.line) == ("syntax", line)
        assert "once derived concepts are substituted" in diag.message
        return
    for x in (-500, 5):
        request = ActionRequest("r", "t", {"x": Fraction(x)})
        assert verify(request, SystemState(None), result.environment).decision \
            == oracle_verify(request, SystemState(None), result.environment)


@pytest.mark.parametrize("literal, ok", [
    ("9" * 4300, True), ("9" * 4301, False),
    ("0." + "9" * 4299, True), ("0." + "9" * 4300, False),  # 10**4300 below
    ("0" * 5000 + "1", True), ("1." + "0" * 5000, True),
], ids=["4300-digits", "4301-digits", "4300-digit-denominator",
        "4301-digit-denominator", "leading-zeros", "trailing-zeros"])
def test_literal_digits_are_bounded_after_reduction(literal, ok):
    """A literal whose reduced numerator or denominator has more than 4,300
    digits is a located syntax diagnostic. Before, compile_source raised
    ValueError from the int-to-string limit."""
    result = compile_source('concept x : quantity from request "X"\n'
                            f"axiom a forbid t when x > {literal}\n")
    assert result.ok is ok
    if not ok:
        [diag] = result.diagnostics
        assert (diag.code, diag.span.line, diag.span.col) == ("syntax", 2, 27)


# 10**2200 has 2,201 digits; the reduced square, 4,401, is past the bound.
_N = "1" + "0" * 2200
_X = 'concept x : quantity from request "X"\n'


@pytest.mark.parametrize("source, col", [
    (f"axiom a permit t when x < {_N} * {_N}\n", 28 + len(_N)),
    (f"axiom a permit t when x < {_N} * {_N} * {_N} / 0\n", 28 + len(_N)),
    (f'concept big : quantity from derived = x + 1 / {_N} / {_N} "Big"\n'
     "axiom a permit t when big > 0\n", 48 + len(_N)),
    (f"axiom a permit t when x < {_N[:2150]} * {_N[:2151]} - 1\n", None),
], ids=["condition", "first-node-past-the-bound", "derived", "4300-digits"])
def test_constants_are_bounded_as_literals(source, col):
    """A constant whose reduced numerator or denominator has more than
    4,300 digits is a located syntax diagnostic at the first operator whose
    value passes the bound. Before, the policy compiled: verify() refused
    every call with an evaluation failure, and oracle_verify proved x = 1."""
    from fractions import Fraction

    from axgate import ActionRequest, SystemState, verify

    result = compile_source(_X + source)
    if col is None:
        request = ActionRequest("r", "t", {"x": Fraction(1)})
        assert verify(request, SystemState(None), result.environment).proven
        return
    [diag] = result.diagnostics
    assert (diag.code, diag.span.line, diag.span.col) == ("syntax", 2, col)
    assert "more than 4300 digits" in diag.message
