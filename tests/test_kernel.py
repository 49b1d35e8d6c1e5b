import random
from fractions import Fraction

from axgate import (
    ActionRequest,
    Money,
    SystemState,
    compile_source,
    decide,
    eval_condition,
    oracle_verify,
    verify,
)
from axgate.kernel import ProofTrace, TraceEntry, ValNode, plan_for, plans
from axgate.randgen import PolicyGenerator, iter_instances
from axgate.syntax import Compare, Lit, Sym


def shipped_env():
    with open("src/axgate/policies/sec15c3_5.pol", encoding="utf-8") as fh:
        return compile_source(fh.read()).environment


def trade_request(volume=50000, request_id="r1"):
    return ActionRequest(request_id, "execute_trade",
                         {"volume": Fraction(volume),
                          "symbol": "AAPL", "type": "market"})


def trade_state(capital_minor=5_000_000_000, price_minor=20000,
                max_order=100000):
    return SystemState({
        "share_price": Money(Fraction(price_minor), "USD"),
        "daily_capital": Money(Fraction(capital_minor), "USD"),
        "max_order_size": Fraction(max_order),
    })


# Formulation -----------------------------------------------------------------


def test_formulate_closed_conjecture_with_derived_value():
    env = shipped_env()
    result = verify(trade_request(), trade_state(), env)
    trace = result.trace
    assert tuple(e.axiom_id for e in trace.entries) == (
        "capital_threshold", "max_order", "ordinary_order"
    )
    # every in-scope axiom closed over its bindings
    assert all(e.value is not None and not e.missing for e in trace.entries)
    # derived trade_value = volume * share_price, computed once, exactly
    assert trace.bindings["trade_value"] == Money(
        Fraction(50000) * Fraction(20000), "USD"
    )
    assert trace.provenance["trade_value"] == "derived"
    # extra request params never bind: they are not registered
    assert "symbol" not in trace.bindings
    assert "type" not in trace.bindings


def test_formulate_scope_mismatch_yields_zero_axioms():
    env = shipped_env()
    request = ActionRequest("r2", "transfer", {"volume": Fraction(10)})
    result = verify(request, trade_state(), env)
    assert result.trace.entries == ()
    assert result.trace.bindings == {}
    assert result.decision == "Refuted"


def test_formulate_missing_state_fact_fails():
    env = shipped_env()
    state = SystemState({
        "share_price": Money(Fraction(20000), "USD"),
        "max_order_size": Fraction(100000),
    })
    result = verify(trade_request(), state, env)
    assert result.decision == "Refuted"
    assert any(("daily_capital", "missing") in e.missing
               for e in result.trace.entries)
    assert "daily_capital" not in result.trace.bindings


def test_formulate_kind_mismatch():
    env = shipped_env()
    state = trade_state()
    request = ActionRequest("r3", "execute_trade", {"volume": "not a number"})
    result = verify(request, state, env)
    assert result.decision == "Refuted"
    assert any(("volume", "kind-mismatch") in e.missing
               for e in result.trace.entries)
    assert "volume" not in result.trace.bindings


def test_money_whose_minor_is_not_a_fraction_is_a_kind_mismatch():
    from axgate.kernel import REASON_BINDING, RefusalCause

    env = compile_source(
        'concept amount : money "USD" from request "Amount"\n'
        'concept limit : money "USD" from state "Limit"\n'
        "axiom within permit pay when amount < limit\n"
    ).environment
    state = SystemState({"limit": Money(Fraction(100), "USD")})
    ok = ActionRequest("m", "pay", {"amount": Money(Fraction(5), "USD")})
    assert verify(ok, state, env).proven
    for minor in ("5", 1.5, None, 5):
        request = ActionRequest("m", "pay", {"amount": Money(minor, "USD")})
        result = verify(request, state, env)
        assert result.decision == "Refuted"
        assert result.refusal_causes == (
            RefusalCause(REASON_BINDING, "within", "amount"),)
        assert result.trace.entries[0].missing == (("amount", "kind-mismatch"),)
        assert "amount" not in result.bindings
        _assert_trace_bytes_identical(result)


def test_request_param_cannot_shadow_state_fact():
    env = shipped_env()
    request = ActionRequest("r4", "execute_trade", {
        "volume": Fraction(50000),
        # an agent trying to inject a huge capital figure via params
        "daily_capital": Money(Fraction(10**15), "USD"),
    })
    state = trade_state(capital_minor=5_000_000_000)
    result = verify(request, state, env)
    assert result.decision == "Refuted"  # state's figure is authoritative
    assert oracle_verify(request, state, env) == "Refuted"


# Evaluation ------------------------------------------------------------------


def test_eval_condition_dti_strict_boundary():
    condition = Compare("<", Sym("debt_to_income"), Lit(Fraction(43, 100)))
    value, tree = eval_condition(condition, {"debt_to_income": Fraction(9, 20)})
    assert value is False
    value, _ = eval_condition(condition, {"debt_to_income": Fraction(43, 100)})
    assert value is False  # strict inequality, no tolerance fudge
    value, _ = eval_condition(condition, {"debt_to_income": Fraction(42, 100)})
    assert value is True
    assert tree.op == "lt"
    assert tree.kids[0].value == Fraction(9, 20)


def _reeval(node: ValNode):
    """Independent bottom-up re-evaluation of a recorded valuation tree."""
    kids = [_reeval(k) for k in node.kids]
    op = node.op
    if op in ("lit", "bool", "str", "sym", "atom"):
        return node.value
    if op == "neg":
        v = kids[0]
        return Money(-v.minor, v.ccy) if isinstance(v, Money) else -v
    if op == "not":
        return not kids[0]
    if op in ("add", "sub", "mul", "div"):
        a, b = kids
        if isinstance(a, Money) and isinstance(b, Money):
            return Money(a.minor + b.minor if op == "add" else a.minor - b.minor,
                         a.ccy)
        if isinstance(a, Money):
            return Money(a.minor * b if op == "mul" else a.minor / b, a.ccy)
        if isinstance(b, Money):
            return Money(a * b.minor, b.ccy)
        return {"add": a + b, "sub": a - b, "mul": a * b,
                "div": a / b if b else None}[op]
    a, b = kids
    if isinstance(a, Money) and isinstance(b, Money):
        a, b = a.minor, b.minor
    return {"lt": a < b, "le": a <= b, "gt": a > b, "ge": a >= b,
            "eq": a == b, "ne": a != b,
            "and": a and b, "or": a or b}[op]


def test_trace_soundness_on_random_instances():
    for inst in iter_instances(31, 300, env_reuse=25):
        result = verify(inst.request, inst.state, inst.env)
        for entry in result.trace.entries:
            if entry.tree is not None:
                assert bool(_reeval(entry.tree)) == entry.value


# Decision --------------------------------------------------------------------


def _mk_trace(entries):
    return ProofTrace("e" * 64, "t", tuple(entries), {}, {})


def test_decide_forbid_trumps_permit():
    trace = _mk_trace([
        TraceEntry("p", "permit", True, ValNode("bool", True)),
        TraceEntry("f", "forbid", True, ValNode("bool", True)),
    ])
    decision, causes = decide(trace)
    assert decision == "Refuted"
    assert any(c.reason == "forbid-fired" and c.axiom_id == "f" for c in causes)


def test_decide_empty_trace_refutes():
    decision, causes = decide(_mk_trace([]))
    assert decision == "Refuted"
    assert causes[0].reason == "no-permit-satisfied"


def test_decide_permit_without_forbid_proves():
    trace = _mk_trace([
        TraceEntry("p", "permit", True, ValNode("bool", True)),
        TraceEntry("f", "forbid", False, ValNode("bool", False)),
    ])
    decision, causes = decide(trace)
    assert decision == "Proven"
    assert causes == ()


def test_decide_unevaluated_entry_refutes():
    trace = _mk_trace([
        TraceEntry("p", "permit", True, ValNode("bool", True)),
        TraceEntry("f", "forbid", None, None, (("daily_capital", "missing"),)),
    ])
    decision, causes = decide(trace)
    assert decision == "Refuted"
    assert any(c.reason == "binding-failure" and c.symbol == "daily_capital"
               for c in causes)


# Whole verification ----------------------------------------------------------


def test_verify_capital_breach_refuted():
    # volume 50,000 x $200.00 = $10,000,000 > 10% of $50,000,000 -> Refuted.
    env = shipped_env()
    request, state = trade_request(), trade_state()
    result = verify(request, state, env)
    assert result.decision == "Refuted"
    assert any(c.axiom_id == "capital_threshold" for c in result.refusal_causes)
    assert oracle_verify(request, state, env) == "Refuted"


def test_verify_within_capital_proven():
    # Same trade against $200,000,000 capital: $10M <= $20M and permit holds.
    env = shipped_env()
    request, state = trade_request(), trade_state(capital_minor=20_000_000_000)
    result = verify(request, state, env)
    assert result.decision == "Proven"
    assert result.refusal_causes == ()
    assert oracle_verify(request, state, env) == "Proven"


def test_verify_repeated_thousand_times_identical():
    env = shipped_env()
    request, state = trade_request(), trade_state()
    first = verify(request, state, env)
    for _ in range(999):
        again = verify(request, state, env)
        assert again.trace_digest == first.trace_digest
        assert again.trace.canonical() == first.trace.canonical()
        assert again.decision == first.decision


def test_verify_ignores_request_id_and_timestamps():
    env = shipped_env()
    state = trade_state()
    a = verify(trade_request(request_id="a"), state, env)
    b = verify(
        ActionRequest("b", "execute_trade",
                      {"volume": Fraction(50000)}, received_at=123456789),
        SystemState(state.facts, as_of=42),
        env,
    )
    assert a.trace_digest == b.trace_digest
    assert a.decision == b.decision


def test_verify_unreadable_state_fails_closed():
    env = shipped_env()
    result = verify(trade_request(), SystemState(None), env)
    assert result.decision == "Refuted"
    assert all(c.reason == "binding-failure" for c in result.refusal_causes)


def test_verify_refuses_a_tool_that_is_not_a_string():
    """Only a string names a tool. Any other value is refused with an
    evaluation failure instead of raising out of verify()."""
    env = shipped_env()
    params = trade_request().params
    for tool in (["x"], None, 5):
        result = verify(ActionRequest("t", tool, params), trade_state(), env)
        assert result.decision == "Refuted", tool
        assert [c.to_plain() for c in result.refusal_causes] == [
            {"reason": "evaluation-failure", "axiom": None, "symbol": None}]
        assert result.bindings == {}
        _assert_trace_bytes_identical(result)


def test_sources_that_are_not_mappings_bind_nothing():
    """Params or facts that are not a mapping bind none of their symbols:
    each is missing, as with an unreadable state, and verify() refuses
    instead of raising TypeError."""
    env = shipped_env()
    params, facts = trade_request().params, trade_state().facts

    def call(params, facts):
        return verify(ActionRequest("n", "execute_trade", params),
                      SystemState(facts), env)

    cases = [((bad, facts), call({}, facts)) for bad in (["volume"], "volume", 5)]
    cases += [((params, bad), call(params, None)) for bad in (["cap"], 7)]
    for args, unbound in cases:
        result = call(*args)
        assert result.decision == "Refuted", args
        assert result.refusal_causes == unbound.refusal_causes, args
        assert {c.reason for c in result.refusal_causes} == {
            "binding-failure"}
        assert result.trace_bytes == unbound.trace_bytes, args
        _assert_trace_bytes_identical(result)


# Properties ------------------------------------------------------------------


def test_permutation_invariance():
    rng = random.Random(5150)
    count = 0
    for inst in iter_instances(5150, 400, env_reuse=20):
        n = len(inst.env.axioms)
        base = verify(inst.request, inst.state, inst.env)
        base_causes = {(c.reason, c.axiom_id, c.symbol)
                       for c in base.refusal_causes}
        for _ in range(3):
            order = list(range(n))
            rng.shuffle(order)
            permuted = inst.env.with_axiom_order(tuple(order))
            again = verify(inst.request, inst.state, permuted)
            assert again.decision == base.decision
            causes = {(c.reason, c.axiom_id, c.symbol)
                      for c in again.refusal_causes}
            assert causes == base_causes
            count += 1
    assert count > 0


def test_deny_monotonicity():
    from axgate.compiler import Axiom, PolicyEnvironment
    from axgate.syntax import BoolLit

    for inst in iter_instances(616, 300, env_reuse=30):
        base = verify(inst.request, inst.state, inst.env)
        if base.decision != "Refuted":
            continue
        # Adding any forbid must never flip Refuted to Proven.
        extra = Axiom("added_forbid", "forbid", inst.request.tool,
                      BoolLit(False))
        grown = PolicyEnvironment(inst.env.registry,
                                  inst.env.axioms + (extra,))
        assert verify(inst.request, inst.state, grown).decision == "Refuted"
        # Removing any evaluable permit must never flip Refuted to Proven.
        # (Removing an *unevaluable* permit can: its binding failure was
        # itself forcing the fail-closed refusal, so it is exempt here.)
        evaluated = {e.axiom_id for e in base.trace.entries
                     if e.value is not None}
        for i, axiom in enumerate(inst.env.axioms):
            if axiom.effect != "permit" or axiom.id not in evaluated:
                continue
            shrunk = PolicyEnvironment(
                inst.env.registry,
                inst.env.axioms[:i] + inst.env.axioms[i + 1:],
            )
            assert verify(inst.request, inst.state, shrunk).decision == "Refuted"


def test_fail_closed_state_fact_deletion():
    proven = []
    gen = PolicyGenerator(random.Random(2024), drop_prob=0.0, mutate_prob=0.0,
                          alien_tool_prob=0.0)
    policy = None
    while len(proven) < 40:
        policy = gen.gen_policy()
        for _ in range(5):
            inst = gen.gen_instance("p", policy=policy)
            if verify(inst.request, inst.state, inst.env).decision == "Proven":
                proven.append(inst)

    for inst in proven:
        plan = plan_for(inst.env, inst.request.tool)
        for symbol in (concept.symbol for concept in plan.state):
            if symbol not in inst.state.facts:
                continue
            facts = dict(inst.state.facts)
            del facts[symbol]
            result = verify(inst.request, SystemState(facts), inst.env)
            assert result.decision == "Refuted"
            assert any(
                c.reason == "binding-failure" and c.symbol == symbol
                for c in result.refusal_causes
            )


def test_oracle_equivalence_sample():
    for inst in iter_instances(8080, 2000, env_reuse=40):
        kernel = verify(inst.request, inst.state, inst.env).decision
        oracle = oracle_verify(inst.request, inst.state, inst.env)
        assert kernel == oracle, inst.source


def test_trace_digest_is_sha256_of_canonical_bytes():
    import hashlib

    env = shipped_env()
    result = verify(trade_request(), trade_state(), env)
    assert result.trace_digest == hashlib.sha256(
        result.trace.canonical()
    ).hexdigest()
    assert result.trace.to_plain()["env"] == env.version_digest


def test_result_invariants_on_random_instances():
    for inst in iter_instances(4459, 800, env_reuse=40):
        result = verify(inst.request, inst.state, inst.env)
        if result.decision == "Proven":
            assert result.refusal_causes == ()
        else:
            assert result.refusal_causes


def test_per_axiom_condition_values_match_oracle():
    """10,000 (condition, bindings) pairs: kernel valuation == naive oracle."""
    from axgate.oracle import _eval as oracle_eval, _Unbindable

    pairs = 0
    for inst in iter_instances(97, 5000, env_reuse=40):
        result = verify(inst.request, inst.state, inst.env)
        for step, entry in zip(
            plan_for(inst.env, inst.request.tool).steps, result.trace.entries
        ):
            axiom = step.axiom
            try:
                expected = oracle_eval(
                    axiom.condition, inst.request, inst.state, inst.env
                )
            except _Unbindable:
                expected = None
            if expected is None:
                assert entry.value is None
            else:
                assert entry.value == bool(expected), inst.source
            pairs += 1
        if pairs >= 10_000:
            break
    assert pairs >= 10_000


def test_oracle_edge_semantics():
    from axgate.compiler import compile_source as cs

    empty = cs("").environment
    request = ActionRequest("e", "any_tool", {})
    assert oracle_verify(request, SystemState({}), empty) == "Refuted"
    assert verify(request, SystemState({}), empty).decision == "Refuted"

    both = cs(
        'concept go : flag from request "Go"\n'
        "axiom allow permit t when go\n"
        "axiom deny forbid t when go\n"
    ).environment
    request = ActionRequest("b", "t", {"go": True})
    assert oracle_verify(request, SystemState({}), both) == "Refuted"
    assert verify(request, SystemState({}), both).decision == "Refuted"


# Golden bytes ------------------------------------------------------------------

# Pinned from the kernel before its evaluators were merged: any change to
# these values is a trace/record format change and must be declared as one.
GOLDEN_RANDGEN_SHA256 = \
    "76067cd9178a1d5fdef10c56ef6f6b42d3b9d0df3b0a45c992492d026477dfbe"
GOLDEN_ENV_VERSION = \
    "67152e10f7126c52248c5c8e2609b3c53e49f20c570603832889e2d61b1f7f18"
GOLDEN_TRADE_TRACE_DIGEST = \
    "ee9e0f3f65e30100a95fa83ee9b1f1ffe924557a437752c2be433fe4e2c346fe"
GOLDEN_RECORD_LINE = (
    b'{"decision":"Refuted","enforced":true,"env_version":"'
    + GOLDEN_ENV_VERSION.encode()
    + b'","prev_digest":"' + b"ab" * 32
    + b'","record_digest":'
    b'"afe443c7a5c7f76eab212a10fb044065383d9216a2d42d8db77b51bc35bb7a33",'
    b'"refusal_causes":[["forbid-fired","capital_threshold",null]],'
    b'"request_id":"r1","seq":7,"tool":"execute_trade","trace_digest":"'
    + GOLDEN_TRADE_TRACE_DIGEST.encode()
    + b'","ts_ns":1700000000000000000}\n'
)


def test_golden_randgen_decisions_and_trace_digests():
    import hashlib

    h = hashlib.sha256()
    for inst in iter_instances(11, 4000, env_reuse=6):
        r = verify(inst.request, inst.state, inst.env)
        causes = [[c.reason, c.axiom_id, c.symbol] for c in r.refusal_causes]
        h.update(repr((r.decision, r.trace_digest, causes)).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_RANDGEN_SHA256


def test_golden_environment_digest_and_audit_record_bytes():
    import dataclasses

    from axgate import AuditRecord
    from axgate.canonical import canonical_bytes, sha256_hex

    env = shipped_env()
    assert env.version_digest == GOLDEN_ENV_VERSION
    result = verify(trade_request(), trade_state(), env)
    assert result.trace_digest == GOLDEN_TRADE_TRACE_DIGEST
    record = AuditRecord(
        seq=7, prev_digest="ab" * 32, ts_ns=1_700_000_000_000_000_000,
        request_id="r1", tool="execute_trade", env_version=env.version_digest,
        decision=result.decision, trace_digest=result.trace_digest,
        refusal_causes=tuple((c.reason, c.axiom_id, c.symbol)
                             for c in result.refusal_causes),
        enforced=True,
    )
    record = dataclasses.replace(
        record, record_digest=sha256_hex(canonical_bytes(record.payload())))
    assert record.line() == GOLDEN_RECORD_LINE


# Trace bytes written during evaluation ----------------------------------------

CORPUS_POLICY = """\
concept note : text from request "Note"
concept side : enum { buy, sell, café } from request "Side"
concept amount : money "USD" from request "Amount"
concept rate : quantity from request "Rate"
concept größe : quantity from state "Größe \u2028 \\"quoted\\""
concept share : money "USD" from derived = amount / 3 "Share"
concept scaled : quantity from derived = rate * 2 "Scaled"
concept third : quantity from derived = rate * (1 / 3) - -2 "Third"
axiom note_check forbid * when note == "a\\"b\\\\c\\nd \u2028 é"
axiom side_check permit execute_trade when side == café or side == buy
axiom share_cap forbid execute_trade when share > amount * 0.5
axiom negative permit execute_trade when -rate < größe - 1.5
axiom scaled_cap forbid execute_trade when scaled / 3 > 100
axiom anywhere permit * when not (rate == 0) and note != "x"
axiom ratio_cap forbid execute_trade when rate * (681098 / 567713) > third
axiom fixed permit * when (1 / 3 < 0.5 and true) and -rate < -(1.5)
axiom percent forbid * when "50%" == "50%s" or note == "100% off" or 2 > 3
axiom never forbid other_tool when 681098 / 567713 > 1.2 and side != café
"""


# 10**2200 has 2,201 digits, within the 4,300 Python writes; its square
# has 4,401, past them.
_BIG = "1" + "0" * 2200


def _zero_division_env():
    """Conditions and derived definitions dividing by zero, and a constant
    too large to write: the compiler refuses `/ 0`, so the environment is
    assembled by hand."""
    import dataclasses

    from axgate.compiler import Axiom, PolicyEnvironment
    from axgate.registry import ConceptRegistry
    from axgate.syntax import Binary

    env = compile_source(
        'concept rate : quantity from request "Rate"\n'
        'concept half : quantity from derived = rate / 2 "Half"\n'
        'concept fixed : quantity from derived = rate / 3 "Fixed"\n'
        "axiom ok permit t when rate > 0\n"
        f"axiom too_big forbid t when rate > {_BIG} * {_BIG} - rate\n"
    ).environment
    by_zero = Binary("/", Sym("rate"), Lit(Fraction(0)))
    one_by_zero = Binary("/", Lit(Fraction(1)), Lit(Fraction(0)))
    decls = {d.symbol: d for d in env.registry}
    decls["half"] = dataclasses.replace(decls["half"], derived=by_zero)
    decls["fixed"] = dataclasses.replace(decls["fixed"], derived=one_by_zero)
    axioms = env.axioms + (
        Axiom("div_zero", "forbid", "t", Compare(">", by_zero, Lit(Fraction(1)))),
        Axiom("uses_half", "forbid", "t", Compare(">", Sym("half"), Lit(Fraction(1)))),
        Axiom("const_zero", "forbid", "t",
              Compare("<", Sym("rate"), Binary("*", Lit(Fraction(2)), one_by_zero))),
        Axiom("uses_fixed", "permit", "t", Compare("!=", Sym("fixed"), Sym("rate"))),
    )
    return PolicyEnvironment(ConceptRegistry(decls), axioms)


def _corpus():
    """Hand-made (request, state, env) cases for the trace encoder."""
    env = compile_source(CORPUS_POLICY).environment
    assert env is not None
    params = {"note": 'a"b\\c\nd \u2028 é', "side": "café",
              "amount": Money(Fraction(1001), "USD"), "rate": Fraction(-7, 3)}
    facts = {"größe": Fraction(-5, 2)}
    cases = []
    for tool in ("execute_trade", "*", "other_tool"):
        for p in (params, {**params, "note": "x", "side": "buy"},
                  {k: v for k, v in params.items() if k != "amount"},
                  {**params, "rate": "wrong kind"}):
            for state in (SystemState(facts), SystemState(None)):
                cases.append((ActionRequest("c", tool, p), state, env))
    by_zero = _zero_division_env()
    for tool in ("t", "unknown"):
        for rate in (Fraction(5), Fraction(-1, 3)):
            cases.append((ActionRequest("z", tool, {"rate": rate}),
                          SystemState(None), by_zero))
    return cases


def _assert_trace_bytes_identical(result):
    from axgate.canonical import canonical_bytes

    assert result.trace_bytes == canonical_bytes(result.trace.to_plain())
    assert result.trace.canonical() == result.trace_bytes


def test_trace_bytes_equal_the_materialised_trace_on_a_hand_made_corpus():
    seen = set()
    for request, state, env in _corpus():
        result = verify(request, state, env)
        _assert_trace_bytes_identical(result)
        for entry in result.trace.entries:
            seen.add((entry.value is None, entry.missing[:1]))
    # evaluated entries, binding failures and evaluation failures all occur
    assert (False, ()) in seen
    assert (True, (("", "evaluation-failure"),)) in seen
    assert any(unevaluated and missing and missing[0][0]
               for unevaluated, missing in seen)
    result = verify(ActionRequest("u", "unknown", {"rate": Fraction(1)}),
                    SystemState(None), _zero_division_env())
    assert result.trace.entries == ()


def test_constants_that_fault_refuse_on_every_call():
    """A constant the plans cannot fold, a hand-built `1 / 0` or a product
    too large to write, is walked on every call and faults each time: its
    axiom, or the derived symbol it defines, is an evaluation failure."""
    env = _zero_division_env()
    for _ in range(3):
        for rate in (Fraction(5), Fraction(-1, 3), Fraction(0)):
            result = verify(ActionRequest("z", "t", {"rate": rate}),
                            SystemState(None), env)
            assert result.decision == "Refuted"
            causes = _causes(result)
            for axiom in ("div_zero", "too_big", "const_zero"):
                assert ("evaluation-failure", axiom, None) in causes, axiom
            assert ("evaluation-failure", "uses_fixed", "fixed") in causes
            _assert_trace_bytes_identical(result)


def test_constant_subtrees_are_walked_once_per_environment(monkeypatch):
    """`x > 1 / 3 * y` holds `1 / 3` as its value once the plans are built:
    a call walks the product, one binary node, not the division too, and
    writes the trace the unfolded walk writes."""
    from axgate import kernel
    from axgate.syntax import Binary

    env = compile_source(
        'concept x : quantity from request "X"\n'
        'concept y : quantity from request "Y"\n'
        "axiom third permit t when x > 1 / 3 * y\n").environment
    request = ActionRequest("f", "t", {"x": Fraction(1), "y": Fraction(2)})
    assert verify(request, SystemState({}), env).proven  # builds the plans
    walked = []
    walk_binary = kernel._WALK[Binary]

    def counted(expr, bound, holes):
        walked.append(expr.op)
        return walk_binary(expr, bound, holes)

    monkeypatch.setitem(kernel._WALK, Binary, counted)
    result = verify(request, SystemState({}), env)
    assert result.proven and walked == ["*"]
    _assert_trace_bytes_identical(result)


def test_trace_bytes_equal_the_materialised_trace_on_random_instances():
    checked = 0
    for seed, count, env_reuse in ((11, 3000, 1), (23, 3000, 6),
                                   (37, 2500, 13), (41, 2000, 25)):
        for inst in iter_instances(seed, count, env_reuse=env_reuse):
            _assert_trace_bytes_identical(
                verify(inst.request, inst.state, inst.env))
            checked += 1
    assert checked >= 10_000


# Integer-pair arithmetic -------------------------------------------------------


def _walk_value(expr, values):
    """The kernel's walk of `expr` with each symbol bound to `values[s]`,
    back as a Fraction or Money; the exception class when it faults."""
    from axgate import kernel

    bound = {s: (kernel._pair(v), None) for s, v in values.items()}
    try:
        return kernel._obj(kernel._walk(expr, bound, []))
    except kernel._EvalFault:
        return kernel._EvalFault


def _fraction_reference(op, a, b):
    """`a op b` by Fraction arithmetic and the money rules: money +/- money,
    money * or / rational, rational * money; anything else faults."""
    from axgate import kernel

    fns = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
           "*": lambda x, y: x * y, "/": lambda x, y: x / y}
    money_a, money_b = isinstance(a, Money), isinstance(b, Money)
    try:
        if money_a and money_b and op in "+-":
            return Money(fns[op](a.minor, b.minor), a.ccy)
        if money_a and not money_b and op in "*/":
            return Money(fns[op](a.minor, b), a.ccy)
        if money_b and not money_a and op == "*":
            return Money(a * b.minor, b.ccy)
        if not money_a and not money_b:
            return fns[op](a, b)
    except ZeroDivisionError:
        pass
    return kernel._EvalFault


def test_pair_arithmetic_and_compares_agree_with_fraction():
    """`+ - * /` and the six compares on integer pairs give what Fraction
    gives, over every sign, zero, large operands and the money mixes; a
    zero divisor is an evaluation failure."""
    from axgate.kernel import _EvalFault
    from axgate.syntax import Binary

    rng = random.Random(7)
    big = 10**40 + 7
    rationals = [Fraction(0), Fraction(1), Fraction(-1), Fraction(7, 3),
                 Fraction(-7, 3), Fraction(big, 3), Fraction(-3, big),
                 Fraction(big * 11, big - 2)]
    rationals += [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999))
                  for _ in range(25)]
    monies = [Money(q, "USD") for q in rationals[:8]]
    left, right = Sym("a"), Sym("b")
    checked = faults = 0
    for a in rationals + monies:
        for b in rationals + monies:
            values = {"a": a, "b": b}
            for op in "+-*/":
                got = _walk_value(Binary(op, left, right), values)
                want = _fraction_reference(op, a, b)
                assert got == want and type(got) is type(want), (op, a, b)
                faults += want is _EvalFault
                checked += 1
            if isinstance(a, Money) is not isinstance(b, Money):
                continue
            x, y = (a.minor, b.minor) if isinstance(a, Money) else (a, b)
            for op, want in (("<", x < y), ("<=", x <= y), (">", x > y),
                             (">=", x >= y), ("==", x == y), ("!=", x != y)):
                assert _walk_value(Compare(op, left, right), values) is want
                checked += 1
    assert checked > 5000 and faults > 0
    zero = Lit(Fraction(0))
    for a in (Fraction(5), Money(Fraction(5), "USD")):
        assert _walk_value(Binary("/", left, zero), {"a": a}) is _EvalFault


def test_operand_mixes_the_typechecker_rejects_fail_closed():
    """A hand-made condition mixing kinds the typechecker never admits is
    an evaluation failure; only the typed shapes evaluate."""
    from axgate.kernel import _EvalFault
    from axgate.syntax import Binary, BoolOp, Unary

    usd = Money(Fraction(-5, 2), "USD")
    q = Fraction(3, 4)
    a, b = Sym("a"), Sym("b")
    cases = [
        (Compare("==", a, b), {"a": q, "b": usd}, "fault"),
        (Compare("!=", a, b), {"a": usd, "b": q}, "fault"),
        (Compare("<", a, b), {"a": q, "b": usd}, "fault"),
        (Compare(">=", a, b), {"a": True, "b": Fraction(1)}, "fault"),
        (Compare("<", a, b), {"a": "x", "b": q}, "fault"),
        (Binary("+", a, b), {"a": usd, "b": q}, "fault"),
        (Binary("/", a, b), {"a": q, "b": usd}, "fault"),
        (Binary("*", a, b), {"a": usd, "b": usd}, "fault"),
        (Binary("-", a, b), {"a": usd, "b": Money(q, "EUR")}, "fault"),
        (Binary("*", a, b), {"a": "x", "b": q}, "fault"),
        (Binary("+", a, b), {"a": True, "b": True}, "fault"),
        (Binary("*", a, b), {"a": usd, "b": True}, "fault"),
        (BoolOp("and", a, b), {"a": Fraction(0), "b": True}, "fault"),
        (BoolOp("or", a, b), {"a": Fraction(0), "b": usd}, "fault"),
        (Unary("not", a), {"a": Fraction(0)}, "fault"),
        (Unary("not", a), {"a": usd}, "fault"),
        (Unary("-", a), {"a": usd}, Money(Fraction(5, 2), "USD")),
        (Unary("-", a), {"a": True}, "fault"),
    ]
    for expr, values, want in cases:
        got = _walk_value(expr, values)
        if want == "fault":
            assert got is _EvalFault, expr
        else:
            assert got == want and type(got) is type(want), expr


_FUZZ_VALUES = {
    "f": True, "g": False, "s": "a", "u": "b",
    "x": Fraction(-3, 4), "y": Fraction(0),
    "m": Money(Fraction(250), "USD"), "n": Money(Fraction(0), "USD"),
    "e": Money(Fraction(-7), "EUR"),
}


def _hand_built_env(conditions):
    """An environment over flag, text, rational and money request concepts
    whose axioms (`a0`, `a1`, ... permits on tool `t`) are the given
    conditions, assembled by hand: none of them was typechecked."""
    from axgate.compiler import Axiom, PolicyEnvironment

    env = compile_source(
        'concept f : flag from request "F"\n'
        'concept g : flag from request "G"\n'
        'concept s : text from request "S"\n'
        'concept u : text from request "U"\n'
        'concept x : quantity from request "X"\n'
        'concept y : quantity from request "Y"\n'
        'concept m : money "USD" from request "M"\n'
        'concept n : money "USD" from request "N"\n'
        'concept e : money "EUR" from request "E"\n'
        "axiom base permit t when f\n"
    ).environment
    axioms = tuple(Axiom(f"a{i}", "permit", "t", condition)
                   for i, condition in enumerate(conditions))
    return PolicyEnvironment(env.registry, axioms)


def test_ill_typed_and_unbound_conditions_refuse_and_verify_never_raises():
    """`ok + ok >= 2`, a rational root, an unregistered symbol and a sum
    of two currencies each give one evaluation-failure entry, whose bytes
    equal the trace."""
    from axgate.syntax import Binary

    two = Lit(Fraction(2))
    usd_plus_eur = Binary("+", Sym("m"), Sym("e"))
    for condition in (Compare(">=", Binary("+", Sym("f"), Sym("f")), two),
                      Binary("+", Sym("x"), two),
                      Compare("<", Sym("ghost"), Lit(Fraction(1))),
                      Compare(">", usd_plus_eur, Sym("m"))):
        env = _hand_built_env([condition])
        params = {"f": True, "x": Fraction(1), "m": _FUZZ_VALUES["m"],
                  "e": _FUZZ_VALUES["e"]}
        result = verify(ActionRequest("h", "t", params), SystemState({}), env)
        assert result.decision == "Refuted", condition
        assert [c.to_plain() for c in result.refusal_causes] == [
            {"reason": "evaluation-failure", "axiom": "a0", "symbol": None}]
        (entry,) = result.trace.entries
        assert entry.value is None and entry.tree is None
        assert entry.missing == (("", "evaluation-failure"),)
        _assert_trace_bytes_identical(result)


_FUZZ_KINDS = ("flag", "text", "rational", "USD", "EUR")
_ORDERS = ["<", "<=", ">", ">=", "==", "!="]
# kind -> (node, operators, operand kinds) that the typechecker admits
_FUZZ_SHAPES = {
    "flag": [("compare", _ORDERS, ("rational", "rational")),
             ("compare", _ORDERS, ("USD", "USD")),
             ("compare", _ORDERS, ("EUR", "EUR")),
             ("compare", ["==", "!="], ("flag", "flag")),
             ("compare", ["==", "!="], ("text", "text")),
             ("boolop", ["and", "or"], ("flag", "flag")),
             ("unary", ["not"], ("flag",))],
    "rational": [("binary", list("+-*/"), ("rational", "rational")),
                 ("unary", ["-"], ("rational",))],
}
_FUZZ_SHAPES.update({ccy: [("binary", list("+-"), (ccy, ccy)),
                            ("binary", list("*/"), (ccy, "rational")),
                            ("binary", ["*"], ("rational", ccy)),
                            ("unary", ["-"], (ccy,))]
                     for ccy in ("USD", "EUR")})


def _fuzz_kind(value):
    if isinstance(value, Money):
        return value.ccy
    return {bool: "flag", str: "text", Fraction: "rational"}[type(value)]


def _fuzz_leaf(rng, kind):
    from axgate.syntax import BoolLit, StrLit

    symbols = [s for s, v in _FUZZ_VALUES.items()
               if _fuzz_kind(v) == kind]
    if kind in ("USD", "EUR") or rng.random() < 0.5:
        symbol = rng.choice(symbols)
        return Sym(symbol), kind, _FUZZ_VALUES[symbol]
    if kind == "rational":
        value = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return Lit(value), kind, value
    if kind == "flag":
        value = rng.random() < 0.5
        return BoolLit(value), kind, value
    value = rng.choice("ab")
    return StrLit(value), kind, value


def _fuzz_condition(rng, depth, want="flag"):
    """A random expression meant to be of kind `want`; one operator node in
    five takes operands of random kinds instead. Returns the expression, its
    kind by the typechecker's operand rules (None: ill-typed) and its value
    by Fraction and Money arithmetic ("zero": some divisor was zero)."""
    from axgate.syntax import Binary, BoolOp, Unary

    if want == "text" or depth == 0 or rng.random() < 0.2:
        return _fuzz_leaf(rng, want)
    node, ops, operand_kinds = rng.choice(_FUZZ_SHAPES[want])
    if rng.random() < 0.2:
        ops = {"compare": _ORDERS,
               "boolop": ["and", "or"], "binary": list("+-*/"),
               "unary": ["not", "-"]}[node]
        operand_kinds = [rng.choice(_FUZZ_KINDS) for _ in operand_kinds]
    op = rng.choice(ops)
    operands = [_fuzz_condition(rng, depth - 1, k) for k in operand_kinds]
    kids = [expr for expr, _, _ in operands]
    expr = {"compare": Compare, "boolop": BoolOp, "binary": Binary,
            "unary": Unary}[node](op, *kids)

    kinds = tuple(kind for _, kind, _ in operands)
    kind = next((k for k, shapes in _FUZZ_SHAPES.items()
                 for n, o, ks in shapes
                 if n == node and op in o and ks == kinds), None)
    values = [value for _, _, value in operands]
    if kind is None or "zero" in values:
        return expr, kind, "zero" if kind is not None else None
    numbers = [v.minor if isinstance(v, Money) else v for v in values]
    if node == "unary":
        value = not numbers[0] if op == "not" else -numbers[0]
    elif node == "boolop":
        value = (values[0] and values[1]) if op == "and" \
            else (values[0] or values[1])
    elif node == "compare":
        x, y = numbers
        value = {"<": x < y, "<=": x <= y, ">": x > y, ">=": x >= y,
                 "==": x == y, "!=": x != y}[op]
    elif op == "/" and numbers[1] == 0:
        return expr, kind, "zero"
    else:
        x, y = numbers
        value = {"+": x + y, "-": x - y, "*": x * y}[op] if op != "/" \
            else x / y
    return expr, kind, Money(value, kind) if kind in ("USD", "EUR") \
        else value


def test_hand_built_conditions_evaluate_exactly_when_well_typed():
    """Seeded fuzz over conditions mixing flag, text, rational and money
    leaves under every operator: verify() never raises, its bytes equal the
    materialised trace, every ill-typed condition is an evaluation failure,
    and every well-typed one is evaluated to its value unless a divisor is
    zero."""
    rng = random.Random(12)
    counts = {"ill-typed": 0, "zero": 0, "evaluated": 0}
    for _ in range(150):
        made = [_fuzz_condition(rng, 5) for _ in range(12)]
        env = _hand_built_env([expr for expr, _, _ in made])
        result = verify(ActionRequest("z", "t", dict(_FUZZ_VALUES)),
                        SystemState({}), env)
        _assert_trace_bytes_identical(result)
        for (expr, kind, value), entry in zip(made, result.trace.entries):
            if kind != "flag":
                assert entry.value is None, expr
                counts["ill-typed"] += 1
            elif value == "zero":
                assert entry.value is None, expr
                counts["zero"] += 1
            else:
                assert entry.value is value, expr
                counts["evaluated"] += 1
            if entry.value is None:
                assert entry.missing == (("", "evaluation-failure"),)
    assert min(counts.values()) > 10, counts


def test_trace_texts_are_held_once_per_axiom_across_tools():
    env = compile_source(
        'concept rate : quantity from request "Rate"\n'
        'concept note : text from request "Note"\n'
        'axiom small permit * when rate < 10\n'
        'axiom priced forbid * when rate * 3 > 20 and note != "50% off"\n'
        'axiom only_one permit tool_0 when rate > 0\n'
    ).environment
    tools = [f"tool_{i}" for i in range(50)]
    for tool in tools:
        for params in ({"rate": Fraction(7), "note": "50% off"},
                       {"rate": Fraction(-1, 3)}):
            _assert_trace_bytes_identical(
                verify(ActionRequest("m", tool, params), SystemState({}), env))
    steps = {step for tool in tools for step in plan_for(env, tool).steps}
    assert len(steps) == len(env.axioms) == 3
    assert len({id(a) for a in env.axioms}) == 3


def test_unnamed_tools_share_one_plan_and_add_none():
    """1,000 tool names the policy does not name leave the environment with
    one plan per named tool plus the shared one; the decisions and trace
    bytes are the ones recorded before the plans moved into the kernel."""
    import hashlib

    with open("src/axgate/policies/sec15c3_5.pol", encoding="utf-8") as fh:
        source = fh.read()
    env = compile_source(source + (
        "axiom whole_capital forbid * when trade_value > daily_capital\n"
        "axiom any_volume permit * when volume > 0\n")).environment
    digest = hashlib.sha256()
    decisions = set()
    for i in range(1000):
        facts = dict(trade_state().facts)
        if i % 3 == 1:
            del facts["share_price"]
        request = ActionRequest(f"r{i}", f"unnamed_tool_{i}",
                                trade_request(volume=i * 997).params)
        result = verify(request, SystemState(facts), env)
        decisions.add(result.decision)
        digest.update(result.decision.encode() + b"\n"
                      + result.trace_bytes + b"\n")
    assert decisions == {"Proven", "Refuted"}
    assert digest.hexdigest() == (
        "8407d8a900d03594f52b20434abcbeb61fd48e51c474ba24f456f4872e31698a")
    named = {a.tool for a in env.axioms} - {"*"}
    assert named == {"execute_trade"}
    assert len(plans(env)) == len(named) + 1
    assert plan_for(env, "unnamed_tool_7") is plans(env)["*"]


def test_concept_entries_are_built_for_needed_symbols_only_and_shared():
    """20,000 declared request concepts no axiom reads get no entry: the
    plans hold one entry per symbol some axiom needs, and plans that need
    the same concept hold the same entry."""
    count = 20_000
    source = "".join(f'concept c{i} : flag from request "C{i}"\n'
                     for i in range(count))
    source += (
        'concept rate : quantity from request "Rate"\n'
        'concept cap : quantity from state "Cap"\n'
        'concept room : quantity from derived = cap - rate "Room"\n'
        "axiom small permit buy when rate < 10\n"
        "axiom roomy permit sell when room > 0\n"
        "axiom capped forbid * when rate > cap\n")
    env = compile_source(source).environment
    result = verify(ActionRequest("e", "sell", {"rate": Fraction(3)}),
                    SystemState({"cap": Fraction(5)}), env)
    assert result.proven
    _assert_trace_bytes_identical(result)
    built = plans(env)
    assert set(built) == {"*", "buy", "sell"}
    entries = {id(c): c for plan in built.values()
               for c in plan.request + plan.state + plan.derived}
    assert sorted(c.symbol for c in entries.values()) == [
        "cap", "rate", "room"]
    rate = built["*"].request[0]
    assert built["buy"].request == built["sell"].request == (rate,)
    assert built["buy"].state[0] is built["sell"].state[0]
    assert [c.symbol for c in built["sell"].trailer] == ["cap", "rate", "room"]
    assert built["buy"].derived == ()


def test_one_name_of_two_origins_keeps_each_environments_entries():
    """Two environments declare `x`, one from the request and one from the
    state; each writes its own provenance, however the calls interleave,
    and compiling a policy again gives the new environment its own
    entries."""
    def env_of(origin):
        return compile_source(
            f'concept x : quantity from {origin} "X"\n'
            "axiom positive permit t when x > 0\n").environment

    one = Fraction(1)
    calls = {
        "request": (env_of("request"), ActionRequest("o", "t", {"x": one}),
                    SystemState({})),
        "state": (env_of("state"), ActionRequest("o", "t", {}),
                  SystemState({"x": one})),
    }
    for _ in range(3):
        for origin, (env, request, state) in calls.items():
            result = verify(request, state, env)
            assert result.proven, origin
            assert b'"provenance":{"x":"%s"}' % origin.encode() \
                in result.trace_bytes
            assert result.trace.provenance == {"x": origin}
            _assert_trace_bytes_identical(result)
    reloaded = env_of("request")
    assert reloaded.version_digest == calls["request"][0].version_digest
    assert verify(*calls["request"][1:], reloaded).proven
    assert plans(reloaded)["t"].request[0] \
        is not plans(calls["request"][0])["t"].request[0]


def test_concurrent_first_calls_build_the_plans_once():
    import sys
    import threading

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            env = shipped_env()
            barrier = threading.Barrier(6)
            seen = []

            def first_call():
                barrier.wait(timeout=10)
                built = plans(env)
                result = verify(trade_request(), trade_state(), env)
                seen.append((id(built), result.trace_bytes))

            threads = [threading.Thread(target=first_call) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(seen) == 6 and len(set(seen)) == 1
            assert len(plans(env)) == 2
    finally:
        sys.setswitchinterval(interval)


def test_bindings_and_recorded_values_leave_the_kernel_as_fractions():
    env = shipped_env()
    result = verify(trade_request(), trade_state(), env)
    bindings = result.bindings  # built once, before and after the trace
    assert result.bindings is bindings
    assert result.trace.provenance["trade_value"] == "derived"
    assert result.trace.bindings is bindings and result.bindings is bindings
    assert result.bindings["trade_value"] == Money(Fraction(1_000_000_000),
                                                   "USD")
    typed = (Fraction, Money, bool, str)
    assert all(type(v) in typed for v in result.bindings.values())

    def nodes(node):
        yield node
        for kid in node.kids:
            yield from nodes(kid)

    seen = 0
    for inst in iter_instances(67, 300, env_reuse=10):
        result = verify(inst.request, inst.state, inst.env)
        assert all(type(v) in typed for v in result.bindings.values())
        for entry in result.trace.entries:
            if entry.tree is not None:
                for node in nodes(entry.tree):
                    assert type(node.value) in typed, node
                    seen += 1
    assert seen > 1000
    condition = Compare("<", Sym("x"), Lit(Fraction(1, 3)))
    _, tree = eval_condition(condition, {"x": Fraction(1, 4)})
    assert [type(n.value) for n in nodes(tree)] == [bool, Fraction, Fraction]


def test_derived_value_of_the_wrong_kind_is_a_kind_mismatch():
    """A hand-built definition whose value is not of its concept's declared
    kind binds nothing: the symbol gets a kind-mismatch binding failure, as
    a request value of the wrong kind would, and stays out of the bindings.
    The compiler refuses such definitions, so they are assembled by hand."""
    import dataclasses

    from axgate.compiler import PolicyEnvironment
    from axgate.kernel import REASON_BINDING, RefusalCause
    from axgate.registry import ConceptRegistry
    from axgate.syntax import Binary

    env = compile_source(
        'concept x : quantity from request "X"\n'
        'concept price : money "USD" from request "Price"\n'
        'concept v : money "USD" from derived = price + price "V"\n'
        "axiom cap forbid t when v < price\n"
        "axiom open permit t when x > 0\n"
    ).environment
    request = ActionRequest("k", "t", {"x": Fraction(2),
                                       "price": Money(Fraction(500), "USD")})
    assert verify(request, SystemState(None), env).proven
    decls = {d.symbol: d for d in env.registry}
    rational = Binary("+", Sym("x"), Lit(Fraction(1)))
    usd = Binary("+", Sym("price"), Sym("price"))
    for kind, ccy, definition in (("money", "USD", rational),
                                  ("money", "EUR", usd),
                                  ("quantity", None, usd),
                                  ("flag", None, rational)):
        decls["v"] = dataclasses.replace(decls["v"], kind=kind, ccy=ccy,
                                         derived=definition)
        by_hand = PolicyEnvironment(ConceptRegistry(decls), env.axioms)
        result = verify(request, SystemState(None), by_hand)
        assert not result.proven
        assert result.refusal_causes == (RefusalCause(REASON_BINDING, "cap", "v"),)
        assert "v" not in result.bindings
        entry = result.trace.entries[0]
        assert entry.missing == (("v", "kind-mismatch"),)
        _assert_trace_bytes_identical(result)


def _causes(result):
    return [(c.reason, c.axiom_id, c.symbol) for c in result.refusal_causes]


def test_values_too_large_to_write_fail_closed():
    """Python writes no integer of more than 4,300 digits as a string, so
    no trace can hold such a value. Before, verify() raised ValueError on
    each call below. Now a bound param is a kind-mismatch, a derived value
    an evaluation failure on its symbol, and an operator result an
    evaluation failure of its axiom."""
    from axgate.gateway import coerce_facts

    env = shipped_env()
    derived = [("evaluation-failure", "capital_threshold", "trade_value"),
               ("forbid-fired", "max_order", None)]
    bound = [("binding-failure", axiom, "volume") for axiom in
             ("capital_threshold", "max_order", "ordinary_order")]
    for raw, expected, missing in (
            ("1e4296", derived, ("trade_value", "evaluation-failure")),
            (10**4299, derived, ("trade_value", "evaluation-failure")),
            ("1e4300", bound, ("volume", "kind-mismatch")),
            ("1e-4300", bound, ("volume", "kind-mismatch"))):
        params = coerce_facts({"volume": raw}, env, "request")
        result = verify(ActionRequest("big", "execute_trade", params),
                        trade_state(), env)
        assert _causes(result) == expected, raw
        assert result.trace.entries[0].missing == (missing,), raw
        _assert_trace_bytes_identical(result)

    scaled = compile_source(
        'concept x : quantity from request "X"\n'
        "axiom big forbid t when x * 10 > 1\n"
        "axiom open permit t when x > 0\n").environment
    result = verify(ActionRequest("sc", "t", {"x": Fraction(10**4299)}),
                    SystemState({}), scaled)
    assert _causes(result) == [("evaluation-failure", "big", None)]
    _assert_trace_bytes_identical(result)


def test_text_and_tools_that_are_not_valid_unicode_fail_closed():
    """A JSON escape can spell a lone surrogate, which UTF-8 cannot encode.
    Before, verify() raised UnicodeEncodeError writing the trace. A text
    binding holding one is a kind-mismatch; a tool holding one names no
    tool a trace can record, as a tool that is not a string."""
    env = compile_source(
        'concept memo : text from request "Memo"\n'
        'axiom plain permit t when memo != "x"\n').environment
    result = verify(ActionRequest("m", "t", {"memo": "a\ud800"}),
                    SystemState({}), env)
    assert _causes(result) == [("binding-failure", "plain", "memo")]
    assert result.trace.entries[0].missing == (("memo", "kind-mismatch"),)
    _assert_trace_bytes_identical(result)
    assert verify(ActionRequest("m", "t", {"memo": "日"}), SystemState({}),
                  env).proven

    result = verify(ActionRequest("m", "t\udfff", {"memo": "a"}),
                    SystemState({}), env)
    assert _causes(result) == [("evaluation-failure", None, None)]
    assert result.trace.tool == ""
    _assert_trace_bytes_identical(result)
