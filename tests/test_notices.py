import re
from fractions import Fraction

from axgate import ActionRequest, Money, SystemState, compile_source, verify
from axgate.notices import (
    render_notice,
    rendered_trace_values,
    trace_values,
)
from axgate.randgen import iter_instances

# Standalone numerals only: digits inside identifiers ('ax3') are names.
NUMERAL = re.compile(
    r"(?<![\w.])≈?-?\d+(?:\.\d+)?(?: [A-Z]{3})?(?!\w)(?!\.\d)"
)


def _dti_env():
    return compile_source(
        'concept debt_to_income : quantity from state "Debt-to-income ratio"\n'
        "axiom dti_limit forbid approve_loan when debt_to_income >= 0.43\n"
        '  explain "Debt-to-income ratio {debt_to_income} does not satisfy '
        'the required limit of 0.43."\n'
        "axiom base permit approve_loan when debt_to_income >= 0\n"
    ).environment


def test_dti_notice_line():
    env = _dti_env()
    result = verify(
        ActionRequest("r1", "approve_loan", {}),
        SystemState({"debt_to_income": Fraction(9, 20)}),
        env,
    )
    assert result.decision == "Refuted"
    notice = render_notice(result, env, "r1")
    assert notice.lines == (
        "Debt-to-income ratio 0.45 does not satisfy the required limit of 0.43.",
    )
    assert notice.request_id == "r1"
    # The threshold literal 0.43 is a trace value: nothing here is invented.
    assert "0.43" in rendered_trace_values(result.trace)
    assert "0.45" in rendered_trace_values(result.trace)


def test_capital_notice_interpolates_trace_values():
    with open("src/axgate/policies/sec15c3_5.pol", encoding="utf-8") as fh:
        env = compile_source(fh.read()).environment
    result = verify(
        ActionRequest("r2", "execute_trade", {"volume": Fraction(50000)}),
        SystemState({
            "share_price": Money(Fraction(20000), "USD"),
            "daily_capital": Money(Fraction(5_000_000_000), "USD"),
            "max_order_size": Fraction(100000),
        }),
        env,
    )
    notice = render_notice(result, env, "r2")
    line = notice.lines[0]
    assert "10000000 USD" in line  # trade_value from the trace
    assert "50000000 USD" in line  # daily_capital from the trace
    cited = notice.cited_axioms[0]
    assert cited.axiom_id == "capital_threshold"
    assert any(v.symbol == "trade_value" for v in cited.concepts)


def test_missing_fact_notice_names_display_name():
    with open("src/axgate/policies/sec15c3_5.pol", encoding="utf-8") as fh:
        env = compile_source(fh.read()).environment
    result = verify(
        ActionRequest("r3", "execute_trade", {"volume": Fraction(1)}),
        SystemState({
            "share_price": Money(Fraction(20000), "USD"),
            "max_order_size": Fraction(100000),
        }),
        env,
    )
    assert result.decision == "Refuted"
    notice = render_notice(result, env, "r3")
    assert any(
        "required information 'Available daily capital' was not available" in l
        for l in notice.lines
    )


def test_no_permit_notice():
    env = _dti_env()
    result = verify(
        ActionRequest("r4", "unknown_tool", {}), SystemState({}), env
    )
    notice = render_notice(result, env, "r4")
    assert notice.lines == ("No policy permits this action.",)


def test_notice_does_not_substitute_inside_bound_values():
    env = compile_source(
        'concept memo : text from request "Memo"\n'
        'concept volume : quantity from request "Order volume"\n'
        "axiom cap forbid trade when volume > 10\n"
        '  explain "Memo {memo} with volume {volume} exceeds the cap."\n'
        'axiom memo_ok permit trade when memo != "x"\n'
    ).environment
    result = verify(
        ActionRequest("r5", "trade", {"memo": "{volume}",
                                      "volume": Fraction(50)}),
        SystemState({}),
        env,
    )
    notice = render_notice(result, env, "r5")
    assert notice.lines == ("Memo {volume} with volume 50 exceeds the cap.",)


def test_notice_faithfulness_on_fuzzed_refutations():
    checked = 0
    for inst in iter_instances(1311, 500, env_reuse=25):
        result = verify(inst.request, inst.state, inst.env)
        if result.decision != "Refuted":
            continue
        notice = render_notice(result, inst.env, inst.request.request_id)
        allowed = rendered_trace_values(result.trace)
        for line in notice.lines:
            for token in NUMERAL.findall(line):
                token = token.strip()
                assert token in allowed, (
                    f"orphan value {token!r} in notice line {line!r}\n"
                    f"trace values: {sorted(allowed)}\n{inst.source}"
                )
                checked += 1
    assert checked > 0


def test_notice_totality_on_fuzzed_causes():
    """render_notice never raises for anything the kernel can produce."""
    import itertools

    from axgate.kernel import RefusalCause

    env = _dti_env()
    reasons = ["forbid-fired", "no-permit-satisfied", "binding-failure",
               "evaluation-failure"]
    axiom_ids = ["dti_limit", "base", "ghost", None]
    symbols = ["debt_to_income", "missing_sym", None]
    for combo in itertools.product(reasons, axiom_ids, symbols):
        # a refusal with no bindings, its causes replaced by the fuzzed one
        result = verify(ActionRequest("rx", "approve_loan", {}),
                        SystemState({}), env)
        result.refusal_causes = (RefusalCause(*combo),)
        notice = render_notice(result, env, "rx")
        assert notice.lines


def test_trace_values_include_bindings_and_literals():
    env = _dti_env()
    result = verify(
        ActionRequest("r5", "approve_loan", {}),
        SystemState({"debt_to_income": Fraction(1, 3)}),
        env,
    )
    values = trace_values(result.trace)
    assert Fraction(1, 3) in values
    assert Fraction(43, 100) in values
    # Non-terminating decimals render with the approximation marker.
    rendered = rendered_trace_values(result.trace)
    assert any(v.startswith("≈") for v in rendered)


def test_notice_cites_what_the_valuation_tree_holds_without_reading_it(
        monkeypatch):
    """A notice takes its cited symbols and thresholds from the fired
    axiom's condition, so rendering it never materialises the trace; they
    are the sets the valuation tree records."""
    from axgate import kernel
    from axgate.notices import _walk
    from axgate.values import render_value

    tree = kernel._tree
    cited = 0
    for inst in iter_instances(53, 600, env_reuse=25):
        result = verify(inst.request, inst.state, inst.env)
        if result.decision != "Refuted":
            continue
        monkeypatch.setattr(kernel, "_tree", None)
        notice = render_notice(result, inst.env, inst.request.request_id)
        monkeypatch.setattr(kernel, "_tree", tree)
        trees = {e.axiom_id: e.tree for e in result.trace.entries}
        for axiom in notice.cited_axioms:
            nodes = list(_walk(trees[axiom.axiom_id]))
            assert [c.symbol for c in axiom.concepts] == \
                sorted({n.ref for n in nodes if n.op == "sym"})
            assert [c.value for c in axiom.concepts] == \
                [result.trace.bindings[c.symbol] for c in axiom.concepts]
            assert list(axiom.thresholds) == \
                [render_value(n.value) for n in nodes if n.op == "lit"]
            cited += 1
    assert cited > 50
