from fractions import Fraction

import pytest

from axgate import compile_source
from axgate.bench import InsufficientSamplesError, bench
from axgate.kernel import ActionRequest, SystemState


def _env(axioms: int):
    lines = ['concept x : quantity from request "X"']
    for i in range(axioms):
        lines.append(f"axiom a{i} permit execute_trade when x >= {i}")
    result = compile_source("\n".join(lines) + "\n")
    assert result.ok
    return result.environment


def _call():
    return (ActionRequest("b", "execute_trade", {"x": Fraction(10**6)}),
            SystemState({}))


def test_report_percentiles_ordered():
    report = bench(_env(1), *_call(), 2000)
    assert report.p50_ns <= report.p90_ns <= report.p99_ns <= report.max_ns
    assert report.samples == 2000
    assert report.axiom_count == 1
    assert not report.reportable  # < 10k samples


def test_zero_samples_rejected():
    with pytest.raises(InsufficientSamplesError):
        bench(_env(1), *_call(), 0)


def test_scaling_with_axiom_count_is_monotone_and_bounded():
    small = bench(_env(1), *_call(), 3000)
    large = bench(_env(100), *_call(), 3000)
    assert large.p50_ns >= small.p50_ns
    # at most linear in in-scope axiom count, within a 2x allowance
    assert large.p50_ns <= small.p50_ns * 100 * 2


def test_bench_never_touches_audit(monkeypatch):
    import axgate.audit as audit_mod

    calls = {"n": 0}
    original = audit_mod.AuditWriter.append

    def counting_append(self, **fields):
        calls["n"] += 1
        return original(self, **fields)

    monkeypatch.setattr(audit_mod.AuditWriter, "append", counting_append)
    bench(_env(1), *_call(), 500)
    assert calls["n"] == 0


TRACE_HOOKS_SCRIPT = """\
import http.client, json, socket, sys
root, workdir = sys.argv[1:]
sys.path[:0] = [root + "/perfbench", root + "/src"]
from tracing import SpanSet, Tracer, install_gateway_spans
tracer = Tracer()
install_gateway_spans(tracer)
from axgate.gateway import Gateway, GatewayConfig
from axgate.scenario import StubUpstream
with open(workdir + "/policy.pol", "w") as fh:
    fh.write('concept volume : quantity from request "Volume"\\n'
             "axiom ordinary permit execute_trade when volume > 0\\n")
with StubUpstream() as stub:
    config = GatewayConfig(policy_path=workdir + "/policy.pol",
                           upstream_url=stub.url, audit_fsync=False,
                           audit_log_path=workdir + "/audit.log")
    with Gateway(config) as gw:
        # A raw client, so that its own connect records no span.
        with socket.create_connection(gw.address) as client:
            for i in range(3):
                body = json.dumps({"request_id": f"h{i}", "tool":
                                   "execute_trade", "params": {"volume": 5}})
                client.sendall(b"POST /v1/execute HTTP/1.1\\r\\n"
                               b"Content-Length: %d\\r\\n\\r\\n%s"
                               % (len(body), body.encode()))
                resp = http.client.HTTPResponse(client)
                resp.begin()
                assert resp.status == 200, resp.status
                resp.read()
spans = SpanSet(tracer.spans)
assert len(spans.named("Gateway._forward")) == 3
connects = spans.named("HTTPConnection.connect")
assert connects
assert {spans.parent_name(s) for s in connects} == {"Gateway._forward"}, \\
    [spans.parent_name(s) for s in connects]
# One audit submit under each request's handler, and one append each.
submits = spans.named("AuditPump.submit")
assert [spans.parent_name(s) for s in submits] == \\
    ["Gateway.handle_tool_call"] * 3, [spans.parent_name(s) for s in submits]
assert len(spans.named("AuditWriter.append")) == 3
"""


def test_perfbench_trace_hooks_install(tmp_path):
    """The traced benchmark run patches axgate callables by name; every
    name it patches must still exist. Every upstream connect it records
    must sit under `Gateway._forward`, or `upstream.connects_per_forward`
    would miss connects made elsewhere (say, a pool warmed at startup)."""
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", TRACE_HOOKS_SCRIPT, str(root), str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
