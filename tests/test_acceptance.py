"""Acceptance suite: one test per shipped exit criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with the measured numbers. Tolerances are pinned here, in code.
"""

import json
import random
import re
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from axgate import ActionRequest, SystemState, compile_source, verify
from axgate.audit import AuditWriter, verify_chain_lines
from axgate.bench import bench
from axgate.gateway import Gateway
from axgate.kernel import REFUTED, plan_for
from axgate.notices import render_notice, rendered_trace_values
from axgate.oracle import oracle_verify
from axgate.randgen import PolicyGenerator, iter_instances
from axgate.scenario import (
    StubUpstream,
    gateway_config,
    load_scenario,
    request,
)

NUMERAL = re.compile(
    r"(?<![\w.])≈?-?\d+(?:\.\d+)?(?: [A-Z]{3})?(?!\w)(?!\.\d)"
)


def _report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


# 1 ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    """5 seeds x 10,000 instances: kernel == oracle, zero tolerance."""
    seeds = (11, 23, 37, 41, 53)
    started = time.perf_counter()
    total = 0
    mismatches = 0
    for seed in seeds:
        for inst in iter_instances(seed, 10_000, env_reuse=50):
            kernel = verify(inst.request, inst.state, inst.env).decision
            oracle = oracle_verify(inst.request, inst.state, inst.env)
            total += 1
            if kernel != oracle:
                mismatches += 1
    elapsed = time.perf_counter() - started
    assert total == 50_000
    assert mismatches == 0, f"{mismatches} kernel/oracle disagreements"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds the 30s budget"
    _report("1 oracle equivalence",
            f"{total} instances, 0 mismatches, {elapsed:.1f}s")


# 2 ---------------------------------------------------------------------------


def test_criterion_2_deny_overrides_and_permutation_invariance():
    """10,000 environments x 5 permutations: identical decisions; any
    satisfied forbid refutes."""
    rng = random.Random(777)
    environments = 0
    forbid_instances = 0
    for inst in iter_instances(777, 10_000, env_reuse=1):
        base = verify(inst.request, inst.state, inst.env)
        n = len(inst.env.axioms)
        for _ in range(5):
            order = list(range(n))
            rng.shuffle(order)
            permuted = inst.env.with_axiom_order(tuple(order))
            assert verify(inst.request, inst.state, permuted).decision \
                == base.decision
        if any(e.effect == "forbid" and e.value is True
               for e in base.trace.entries):
            forbid_instances += 1
            assert base.decision == REFUTED
        environments += 1
    assert environments == 10_000
    _report("2 deny-overrides & permutation invariance",
            f"{environments} environments x 5 permutations, "
            f"{forbid_instances} with satisfied forbids all Refuted")


# 3 ---------------------------------------------------------------------------


def test_criterion_3_fail_closed_fact_deletion():
    """200 Proven instances: deleting any used state fact refutes with a
    binding-failure cause naming that symbol."""
    gen = PolicyGenerator(random.Random(31415), drop_prob=0.0,
                          mutate_prob=0.0, alien_tool_prob=0.0)
    proven = []
    while len(proven) < 200:
        policy = gen.gen_policy()
        for _ in range(8):
            inst = gen.gen_instance("fc", policy=policy)
            if verify(inst.request, inst.state, inst.env).decision == "Proven":
                proven.append(inst)
                if len(proven) == 200:
                    break

    deletions = 0
    wrong = 0
    unnamed = 0
    for inst in proven:
        plan = plan_for(inst.env, inst.request.tool)
        for symbol in (concept.symbol for concept in plan.state):
            if symbol not in inst.state.facts:
                continue
            facts = dict(inst.state.facts)
            del facts[symbol]
            result = verify(inst.request, SystemState(facts), inst.env)
            deletions += 1
            if result.decision == "Proven":
                wrong += 1
            if not any(c.reason == "binding-failure" and c.symbol == symbol
                       for c in result.refusal_causes):
                unnamed += 1
    assert deletions > 0
    assert wrong == 0, f"{wrong}/{deletions} deletions still Proven"
    assert unnamed == 0, f"{unnamed}/{deletions} missing a named cause"
    _report("3 fail-closed",
            f"200 Proven instances, {deletions} fact deletions, "
            f"0 Proven, 100% named binding-failure causes")


# 4 ---------------------------------------------------------------------------


def _arith_env(axioms: int):
    lines = [
        'concept trade_value : quantity from request "Trade value"',
        'concept capital_limit : quantity from state "Capital limit"',
    ]
    lines.append("axiom cap permit execute_trade when trade_value <= capital_limit")
    for i in range(axioms - 1):
        lines.append(
            f"axiom extra{i} forbid execute_trade when "
            f"trade_value > {10**6 + i} * capital_limit"
        )
    result = compile_source("\n".join(lines) + "\n")
    assert result.ok
    return result.environment


def test_criterion_4_latency():
    """100k in-process verifications; hard gate p99 <= 1 ms."""
    request = ActionRequest("lat", "execute_trade",
                            {"trade_value": Fraction(10_000_000)})
    state = SystemState({"capital_limit": Fraction(50_000_000)})

    one = bench(_arith_env(1), request, state, 100_000)
    ten = bench(_arith_env(10), request, state, 100_000)

    def us(ns):
        return ns / 1000.0

    targets = [
        ("1-axiom p50 <= 10 us", one.p50_ns, 10_000),
        ("1-axiom p99 <= 100 us", one.p99_ns, 100_000),
        ("10-axiom p50 <= 50 us", ten.p50_ns, 50_000),
    ]
    lines = []
    for name, actual, target in targets:
        status = "met" if actual <= target else "missed (reported)"
        lines.append(f"{name}: {us(actual):.2f} us [{status}]")

    # The hard gate: sub-millisecond tail on both policies.
    assert one.p99_ns <= 1_000_000, f"1-axiom p99 {us(one.p99_ns):.1f} us > 1 ms"
    assert ten.p99_ns <= 1_000_000, f"10-axiom p99 {us(ten.p99_ns):.1f} us > 1 ms"
    _report("4 latency",
            f"hard gate p99 <= 1 ms met (1-axiom p99 {us(one.p99_ns):.1f} us, "
            f"10-axiom p99 {us(ten.p99_ns):.1f} us); " + "; ".join(lines))


# 5 ---------------------------------------------------------------------------


def test_criterion_5_concurrent_determinism():
    """One fixed triple, 1,000 verifications across 4 workers: byte-identical
    canonical traces and digests."""
    with open("src/axgate/policies/sec15c3_5.pol", encoding="utf-8") as fh:
        env = compile_source(fh.read()).environment
    from axgate.values import Money

    request = ActionRequest("det", "execute_trade",
                            {"volume": Fraction(50000)})
    state = SystemState({
        "share_price": Money(Fraction(20000), "USD"),
        "daily_capital": Money(Fraction(5_000_000_000), "USD"),
        "max_order_size": Fraction(100000),
    })

    def run(_):
        result = verify(request, state, env)
        return result.trace.canonical(), result.trace_digest

    with ThreadPoolExecutor(max_workers=4) as pool:
        outcomes = list(pool.map(run, range(1000)))
    traces = {t for t, _ in outcomes}
    digests = {d for _, d in outcomes}
    assert len(outcomes) == 1000
    assert len(traces) == 1
    assert len(digests) == 1
    _report("5 determinism",
            f"1000 concurrent verifications, 1 unique canonical trace, "
            f"digest {next(iter(digests))[:12]}…")


# 6 ---------------------------------------------------------------------------


def _burst_bodies(scenario):
    bodies = []
    step = scenario.steps[0]
    for rep in range(step.repeat):
        rid = f"{scenario.name}-0-{rep}"
        bodies.append(json.dumps({
            "request_id": rid, "tool": step.tool, "params": step.params,
        }).encode("utf-8"))
    return bodies


def test_criterion_6_interception_completeness(tmp_path):
    """knight_burst: enforce blocks all 1,000 oversize orders before the
    upstream; shadow forwards all 1,000 byte-identically and audits them."""
    from axgate.audit import iter_records

    scenario = load_scenario("src/axgate/scenarios/knight_burst.scn")
    bodies = _burst_bodies(scenario)
    assert len(bodies) == 1000

    def burst_config(mode, upstream_url):
        log = str(tmp_path / f"{mode}-audit.log")
        return gateway_config(tmp_path, scenario.policy_source,
                              scenario.initial_state, upstream_url, mode=mode,
                              audit_log_path=log)

    with StubUpstream() as upstream:
        config = burst_config("enforce", upstream.url)
        with Gateway(config) as gw:
            statuses = []
            notices = 0
            for body in bodies:
                status, _, data = request(gw.address, "POST", "/v1/execute",
                                          body, timeout=30)
                statuses.append(status)
                doc = json.loads(data)
                if doc.get("notice", {}).get("lines"):
                    notices += 1
            gw.pump.drain()
        enforce_hits = len(upstream.bodies)
    assert statuses == [403] * 1000
    assert notices == 1000
    assert enforce_hits == 0

    with StubUpstream() as upstream:
        config = burst_config("shadow", upstream.url)
        with Gateway(config) as gw:
            for body in bodies:
                status, _, _ = request(gw.address, "POST", "/v1/execute",
                                       body, timeout=30)
                assert status == 200
            gw.pump.drain()
            records = list(iter_records(config.audit_log_path))
            with open(config.audit_log_path, "rb") as fh:
                chain = verify_chain_lines(fh.readlines())
        assert upstream.bodies == bodies  # exactly, byte-identical, in order
    assert len(records) == 1000
    assert chain.ok and chain.records == 1000
    assert [r.seq for r in records] == list(range(1000))
    assert all(r.decision == "Refuted" and r.enforced is False for r in records)
    _report("6 interception completeness",
            "enforce: 1000x403 with notices, 0 upstream arrivals; "
            "shadow: 1000 byte-identical forwards, 1000 Refuted audit records")


# 7 ---------------------------------------------------------------------------


def test_criterion_7_audit_tamper_evidence(tmp_path):
    """Exhaustive single-bit flips over a 50-record log; deletions and
    reorderings of every record."""
    log = tmp_path / "tamper.log"
    with AuditWriter(str(log), fsync=False) as writer:
        for i in range(50):
            writer.append(
                ts_ns=1_000_000 + i,
                request_id=f"r{i}",
                tool="execute_trade",
                env_version="e" * 64,
                decision="Refuted" if i % 2 else "Proven",
                trace_digest=f"{i:064x}",
                refusal_causes=(("forbid-fired", "cap", None),)
                if i % 2 else (),
                enforced=bool(i % 3),
            )
    raw_lines = [l + b"\n" for l in log.read_bytes().split(b"\n") if l]
    assert len(raw_lines) == 50
    assert verify_chain_lines(raw_lines).ok

    started = time.perf_counter()
    positions = 0
    for i, line in enumerate(raw_lines):
        for offset in range(len(line)):
            mutated = bytearray(line)
            mutated[offset] ^= 1 << (offset % 8)
            candidate = raw_lines[:i] + [bytes(mutated)] + raw_lines[i + 1:]
            report = verify_chain_lines(candidate)
            assert not report.ok, f"flip at record {i} offset {offset} undetected"
            assert report.bad_index is not None and report.bad_index <= i, (
                f"flip at record {i} offset {offset} reported at "
                f"{report.bad_index}"
            )
            positions += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"exhaustive flips took {elapsed:.1f}s"

    head = verify_chain_lines(raw_lines).head
    for i in range(50):
        deleted = raw_lines[:i] + raw_lines[i + 1:]
        # tail truncation needs the trusted head digest; interior deletions
        # break the chain by content alone
        report = verify_chain_lines(deleted, expected_head=head)
        assert not report.ok, f"deletion of {i} undetected"
    for i in range(49):
        swapped = list(raw_lines)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        assert not verify_chain_lines(swapped).ok, f"swap at {i} undetected"

    _report("7 audit tamper evidence",
            f"{positions} bit-flip positions, 50 deletions, 49 swaps all "
            f"detected at or before the mutated record, {elapsed:.1f}s")


# 8 ---------------------------------------------------------------------------


def test_criterion_8_notice_faithfulness():
    """1,000 fuzzed Refuted results: zero orphan numerals in notices."""
    refuted = 0
    numerals = 0
    orphans = []
    # low drop/mutate rates: most refutations should be fired forbids with
    # rendered templates, not binding failures without numerals
    for inst in iter_instances(2718, 4000, env_reuse=25,
                               drop_prob=0.04, mutate_prob=0.02):
        if refuted >= 1000:
            break
        result = verify(inst.request, inst.state, inst.env)
        if result.decision != "Refuted":
            continue
        refuted += 1
        notice = render_notice(result, inst.env, inst.request.request_id)
        allowed = rendered_trace_values(result.trace)
        for line in notice.lines:
            for token in NUMERAL.findall(line):
                numerals += 1
                if token.strip() not in allowed:
                    orphans.append((token, line))
    assert refuted == 1000
    assert not orphans, f"orphan values: {orphans[:5]}"
    _report("8 notice faithfulness",
            f"1000 refuted results, {numerals} interpolated numerals, 0 orphans")


# 9 ---------------------------------------------------------------------------


def _fuzz_corpus(count: int):
    rng = random.Random(0xF00D)
    gen = PolicyGenerator(random.Random(4242))
    valid_sources = [gen.gen_policy()[0] for _ in range(50)]
    vocab = (
        "concept axiom forbid permit when explain from request state derived "
        "unit quantity money enum flag text and or not true false "
        '( ) { } , : = < <= > >= == != + - * / ident x1 "str" 0.5 99 #c'
    ).split(" ")

    for i in range(count):
        roll = rng.random()
        if roll < 0.35:
            size = rng.randint(0, 256) if rng.random() < 0.98 \
                else rng.randint(256, 65536)
            yield bytes(rng.getrandbits(8) for _ in range(size))
        elif roll < 0.70:
            n = rng.randint(0, 120)
            text = " ".join(rng.choice(vocab) for _ in range(n))
            yield text.encode("utf-8")
        else:
            source = bytearray(rng.choice(valid_sources).encode("utf-8"))
            for _ in range(rng.randint(1, 8)):
                if not source:
                    break
                op = rng.random()
                pos = rng.randrange(len(source))
                if op < 0.5:
                    source[pos] = rng.getrandbits(8)
                elif op < 0.8:
                    del source[pos:pos + rng.randint(1, 16)]
                else:
                    source[pos:pos] = bytes(rng.getrandbits(8)
                                            for _ in range(rng.randint(1, 8)))
            yield bytes(source)


def test_criterion_9_compiler_robustness():
    """100,000 fuzzed inputs <= 64 KiB: no crashes, no hangs > 1 s, every
    rejection carries a located diagnostic."""
    inputs = 0
    rejections = 0
    slow = 0
    for data in _fuzz_corpus(100_000):
        assert len(data) <= 65536
        t0 = time.perf_counter()
        result = compile_source(data)  # must never raise
        dt = time.perf_counter() - t0
        if dt > 1.0:
            slow += 1
        inputs += 1
        if result.environment is None:
            rejections += 1
            errors = [d for d in result.diagnostics if d.severity == "error"]
            assert errors, "rejection without diagnostics"
            for diag in errors:
                assert diag.span.line >= 1 and diag.span.col >= 1
    assert inputs == 100_000
    assert slow == 0, f"{slow} inputs exceeded the 1s hang budget"
    _report("9 compiler robustness",
            f"100000 fuzzed inputs, {rejections} rejections all with located "
            f"diagnostics, 0 crashes, 0 hangs")
