import http.client
import json
import os
import threading

import pytest

from axgate.audit import iter_records, verify_chain
from axgate.gateway import (
    Gateway,
    GatewayConfig,
    GatewayStartupError,
    load_config,
)
from axgate.scenario import StubUpstream

POLICY = """\
concept volume : quantity from request "Order volume (shares)"
concept max_order_size : quantity from state "Maximum order size (shares)"
axiom max_order forbid execute_trade when volume > max_order_size
  explain "Order volume {volume} exceeds the maximum order size {max_order_size}."
axiom ordinary permit execute_trade when volume > 0
"""


@pytest.fixture()
def workspace(tmp_path):
    policy = tmp_path / "policy.pol"
    policy.write_text(POLICY, encoding="utf-8")
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"facts": {"max_order_size": 10000}}))
    return tmp_path


def make_config(workspace, upstream_url, **overrides):
    defaults = dict(
        listen_address="127.0.0.1:0",
        upstream_url=upstream_url,
        mode="enforce",
        policy_path=str(workspace / "policy.pol"),
        state_path=str(workspace / "state.json"),
        state_refresh_secs=0,
        audit_log_path=str(workspace / "audit.log"),
        audit_fsync=False,
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


def post(gateway, path, doc=None, body=None, timeout=10):
    host, port = gateway.address
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = body if body is not None else json.dumps(doc).encode()
        conn.request("POST", path, body=payload,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
        headers = dict(resp.getheaders())
        return resp.status, data, headers
    finally:
        conn.close()


def get(gateway, path):
    host, port = gateway.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def tool_call(request_id, volume):
    return {"request_id": request_id, "tool": "execute_trade",
            "params": {"volume": volume}}


def test_enforce_refuted_blocks_and_never_contacts_upstream(workspace):
    with StubUpstream() as upstream:
        with Gateway(make_config(workspace, upstream.url)) as gw:
            status, data, _ = post(gw, "/v1/execute", tool_call("r1", 99999))
            assert status == 403
            doc = json.loads(data)
            assert doc["decision"] == "Refuted"
            assert "exceeds the maximum order size" in doc["notice"]["lines"][0]
            assert "upstream_status" not in doc
            gw.pump.drain()
        assert upstream.bodies == []


def test_enforce_proven_forwards_original_bytes(workspace):
    with StubUpstream() as upstream:
        with Gateway(make_config(workspace, upstream.url)) as gw:
            body = json.dumps(tool_call("r2", 10)).encode()
            status, data, headers = post(gw, "/v1/execute", body=body)
            assert status == 200
            assert json.loads(data) == {"ok": True}
            assert headers["X-Axgate-Decision"] == "Proven"
            gw.pump.drain()
        assert upstream.bodies == [body]


def test_shadow_mode_forwards_refuted_and_audits(workspace):
    with StubUpstream() as upstream:
        config = make_config(workspace, upstream.url, mode="shadow")
        with Gateway(config) as gw:
            body = json.dumps(tool_call("r3", 99999)).encode()
            status, data, headers = post(gw, "/v1/execute", body=body)
            assert status == 200  # upstream response relayed
            assert json.loads(data) == {"ok": True}
            assert headers["X-Axgate-Decision"] == "Refuted"
            assert headers["X-Axgate-Enforced"] == "false"
            gw.pump.drain()
            records = list(iter_records(config.audit_log_path))
        assert upstream.bodies == [body]
    assert len(records) == 1
    assert records[0].decision == "Refuted"
    assert records[0].enforced is False


def test_verify_endpoint_never_forwards(workspace):
    with StubUpstream() as upstream:
        with Gateway(make_config(workspace, upstream.url)) as gw:
            status, data, _ = post(gw, "/v1/verify", tool_call("r4", 5))
            assert status == 200
            doc = json.loads(data)
            assert doc["decision"] == "Proven"
            assert doc["enforced"] is False
            assert doc["latency_ns"] > 0
            gw.pump.drain()
        assert upstream.bodies == []


def test_malformed_body_is_400_and_audited_refuted(workspace):
    config = make_config(workspace, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        status, _, _ = post(gw, "/v1/execute", body=b"{not json")
        assert status == 400
        status, _, _ = post(gw, "/v1/execute", doc={"tool": "t"})
        assert status == 400
        gw.pump.drain()
        records = list(iter_records(config.audit_log_path))
    assert len(records) == 2
    assert all(r.decision == "Refuted" for r in records)
    assert all(("binding-failure", None, None) in
               tuple(tuple(c) for c in r.refusal_causes) for r in records)


def test_oversize_body_is_413_and_audited(workspace):
    config = make_config(workspace, "http://127.0.0.1:9/none",
                         max_body_bytes=128)
    with Gateway(config) as gw:
        big = json.dumps(tool_call("big", 1)).encode() + b" " * 500
        status, _, _ = post(gw, "/v1/execute", body=big)
        assert status == 413
        gw.pump.drain()
        records = list(iter_records(config.audit_log_path))
    assert len(records) == 1
    assert records[0].note == "oversize-body"
    assert records[0].decision == "Refuted"


def test_upstream_unreachable_is_502_and_audited(workspace):
    config = make_config(workspace, "http://127.0.0.1:1/unreachable")
    with Gateway(config) as gw:
        status, data, _ = post(gw, "/v1/execute", tool_call("r5", 10))
        assert status == 502
        assert json.loads(data)["error"] == "upstream-unreachable"
        gw.pump.drain()
        records = list(iter_records(config.audit_log_path))
    assert len(records) == 1
    assert records[0].decision == "Proven"
    assert records[0].note == "upstream-unreachable"


def test_unreadable_state_fails_closed(workspace):
    config = make_config(workspace, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        os.remove(config.state_path)
        gw.refresh_state()
        status, data, _ = post(gw, "/v1/execute", tool_call("r6", 10))
        assert status == 403
        doc = json.loads(data)
        assert doc["decision"] == "Refuted"
        gw.pump.drain()
        records = list(iter_records(config.audit_log_path))
    causes = tuple(tuple(c) for c in records[0].refusal_causes)
    assert any(c[0] == "binding-failure" and c[2] == "max_order_size"
               for c in causes)


def test_startup_fails_fast_on_bad_policy(tmp_path):
    bad = tmp_path / "bad.pol"
    bad.write_text("axiom broken forbid t when undeclared > 1\n")
    config = GatewayConfig(
        policy_path=str(bad), upstream_url="http://127.0.0.1:9/none",
        audit_log_path=str(tmp_path / "a.log"),
    )
    with pytest.raises(GatewayStartupError) as err:
        Gateway(config)
    assert err.value.diagnostics


def test_startup_fails_fast_on_unreadable_state(tmp_path):
    policy = tmp_path / "p.pol"
    policy.write_text(POLICY, encoding="utf-8")
    config = GatewayConfig(
        policy_path=str(policy), upstream_url="http://127.0.0.1:9/none",
        state_path=str(tmp_path / "missing.json"),
        audit_log_path=str(tmp_path / "a.log"),
    )
    with pytest.raises(GatewayStartupError):
        Gateway(config)


def test_policy_and_health_endpoints(workspace):
    with Gateway(make_config(workspace, "http://127.0.0.1:9/none")) as gw:
        status, doc = get(gw, "/v1/policy")
        assert status == 200
        assert doc["axiom_count"] == 2
        assert doc["mode"] == "enforce"
        assert doc["env_version"] == gw.snapshot.env.version_digest
        status, health = get(gw, "/v1/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["audit_degraded"] is False


def test_reload_policy_success_and_failure(workspace):
    config = make_config(workspace, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        original = gw.snapshot.env.version_digest

        # byte-identical reload is a no-op with the same digest
        status, doc = _post_json(gw, "/v1/policy/reload", {})
        assert status == 200 and doc["env_version"] == original

        # a broken policy is rejected with diagnostics, env unchanged
        (workspace / "policy.pol").write_text(
            "axiom x forbid t when ghost > 1\n", encoding="utf-8"
        )
        status, doc = _post_json(gw, "/v1/policy/reload", {})
        assert status == 422
        assert any("unregistered-symbol" in line for line in doc["diagnostics"])
        assert gw.snapshot.env.version_digest == original

        # a valid new policy publishes a new digest
        (workspace / "policy.pol").write_text(
            POLICY + "\naxiom extra permit transfer when volume >= 0\n",
            encoding="utf-8",
        )
        status, doc = _post_json(gw, "/v1/policy/reload", {})
        assert status == 200
        assert doc["env_version"] != original
        assert gw.snapshot.env.version_digest == doc["env_version"]


def _post_json(gateway, path, doc):
    status, data, _ = post(gateway, path, doc)
    return status, json.loads(data)


def test_one_request_one_record_under_parallel_load(workspace):
    from concurrent.futures import ThreadPoolExecutor

    with StubUpstream() as upstream:
        config = make_config(workspace, upstream.url, max_in_flight=64)
        n = 1000
        with Gateway(config) as gw:
            def worker(i):
                volume = 99999 if i % 2 else 10
                status, _, _ = post(gw, "/v1/execute",
                                    tool_call(f"p{i}", volume))
                assert status in (200, 403)
                return status

            with ThreadPoolExecutor(max_workers=32) as pool:
                statuses = list(pool.map(worker, range(n)))
            assert len(statuses) == n
            gw.pump.drain()
            records = list(iter_records(config.audit_log_path))
            assert gw.requests_received == n
        assert len(records) == n
        seqs = sorted(r.seq for r in records)
        assert seqs == list(range(n))
        assert verify_chain(config.audit_log_path).ok
        # every refuted id audited once, every proven forwarded once
        assert len(upstream.bodies) == n // 2


def test_duplicate_request_id_noted(workspace):
    config = make_config(workspace, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        post(gw, "/v1/verify", tool_call("dup", 99999))
        post(gw, "/v1/verify", tool_call("dup", 99999))
        gw.pump.drain()
        records = list(iter_records(config.audit_log_path))
    assert records[0].duplicate_of is None
    assert records[1].duplicate_of == 0
    assert records[0].decision == records[1].decision


def test_state_override_requires_test_mode(workspace):
    config = make_config(workspace, "http://127.0.0.1:9/none")
    call = {**tool_call("so1", 20000),
            "state_override": {"max_order_size": 50000}}
    with Gateway(config) as gw:
        status, data, _ = post(gw, "/v1/verify", call)
        assert json.loads(data)["decision"] == "Refuted"  # override ignored
        gw.pump.drain()

    config2 = make_config(workspace, "http://127.0.0.1:9/none",
                          allow_state_override=True,
                          audit_log_path=str(workspace / "audit2.log"))
    with Gateway(config2) as gw:
        status, data, _ = post(gw, "/v1/verify", call)
        assert json.loads(data)["decision"] == "Proven"
        gw.pump.drain()


def test_snapshot_isolation_under_concurrent_reloads(workspace):
    with StubUpstream() as upstream:
        config = make_config(workspace, upstream.url)
        with Gateway(config) as gw:
            versions = set()
            stop = threading.Event()

            def reloader():
                flip = False
                while not stop.is_set():
                    extra = "\naxiom e permit transfer when volume >= 0\n"
                    text = POLICY + (extra if flip else "")
                    (workspace / "policy.pol").write_text(text, encoding="utf-8")
                    out = gw.reload_policy()
                    if isinstance(out, str):
                        versions.add(out)
                    flip = not flip

            thread = threading.Thread(target=reloader)
            thread.start()
            decisions = []
            try:
                for i in range(100):
                    status, data, _ = post(gw, "/v1/verify",
                                           tool_call(f"iso{i}", 10))
                    decisions.append(json.loads(data))
            finally:
                stop.set()
                thread.join()
            gw.pump.drain()
            records = {r.request_id: r for r in
                       iter_records(config.audit_log_path)}
            versions.add(gw.snapshot.env.version_digest)
            for doc in decisions:
                # decided under exactly one published environment version
                assert doc["env_version"] in versions
                assert doc["decision"] == "Proven"
                assert records[doc["request_id"]].env_version == doc["env_version"]


def test_backpressure_returns_429_and_audits(workspace):
    # max_in_flight=1 and a slow upstream: concurrent calls must shed.
    import time as _time

    class SlowHandler(StubUpstream):
        pass

    with StubUpstream() as upstream:
        config = make_config(workspace, upstream.url, max_in_flight=1)
        with Gateway(config) as gw:
            # hold the single slot by keeping one request in flight against
            # a stalled upstream; simplest deterministic route: patch the
            # gateway's forward to block briefly.
            original_forward = gw._forward
            gate = threading.Event()

            def slow_forward(body, content_type):
                gate.wait(2.0)
                return original_forward(body, content_type)

            gw._forward = slow_forward
            statuses = []

            def worker(i):
                status, _, _ = post(gw, "/v1/execute", tool_call(f"bp{i}", 10))
                statuses.append(status)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            _time.sleep(0.3)
            gate.set()
            for t in threads:
                t.join()
            gw.pump.drain()
            records = list(iter_records(config.audit_log_path))
        assert statuses.count(429) >= 1
        assert len(records) == 4  # every request audited, shed or not
        shed = [r for r in records if r.note == "backpressure"]
        assert len(shed) == statuses.count(429)


def test_load_config_file_and_env_overrides(tmp_path):
    cfg = tmp_path / "gateway.conf"
    cfg.write_text(
        "# gateway config\n"
        "listen_address = 127.0.0.1:0\n"
        "upstream_url = http://127.0.0.1:9/x\n"
        "mode = shadow\n"
        "policy_path = p.pol\n"
        "max_in_flight = 7\n"
        "audit_fsync = false\n",
        encoding="utf-8",
    )
    config = load_config(str(cfg), env={})
    assert config.mode == "shadow"
    assert config.max_in_flight == 7
    assert config.audit_fsync is False
    assert config.trace_archive_path == config.audit_log_path + ".traces"

    config = load_config(str(cfg), env={"AXGATE_MODE": "enforce",
                                        "AXGATE_MAX_IN_FLIGHT": "3"})
    assert config.mode == "enforce"
    assert config.max_in_flight == 3

    with pytest.raises(GatewayStartupError):
        GatewayConfig(mode="observe")
    with pytest.raises(GatewayStartupError):
        GatewayConfig(max_in_flight=0)


def test_replayability_from_audit_records(workspace):
    """Stored inputs + audit records re-verify to the recorded trace digests."""
    from fractions import Fraction

    from axgate.compiler import compile_file
    from axgate.kernel import ActionRequest, SystemState, verify as kverify

    config = make_config(workspace, "http://127.0.0.1:9/none")
    sent = {}
    with Gateway(config) as gw:
        for i, volume in enumerate((5, 50, 99999, 12345)):
            rid = f"replay{i}"
            sent[rid] = volume
            post(gw, "/v1/verify", tool_call(rid, volume))
        gw.pump.drain()
        records = {r.request_id: r for r in iter_records(config.audit_log_path)}

    env = compile_file(config.policy_path).environment
    facts = {"max_order_size": Fraction(10000)}
    for rid, volume in sent.items():
        result = kverify(
            ActionRequest(rid, "execute_trade", {"volume": Fraction(volume)}),
            SystemState(facts),
            env,
        )
        assert records[rid].trace_digest == result.trace_digest
        assert records[rid].decision == result.decision
        assert records[rid].env_version == env.version_digest


def test_client_reset_before_response_gets_one_record(workspace):
    """A client that resets the connection right after sending is still
    audited exactly once: the lost response is not a second decision."""
    import socket
    import struct

    config = make_config(workspace, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        host, port = gw.address
        for i in range(20):
            payload = json.dumps(tool_call(f"reset-{i}", 99999)).encode()
            sock = socket.create_connection((host, port), timeout=10)
            sock.sendall(
                b"POST /v1/execute HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload
            )
            # linger on, timeout 0: close() sends RST instead of FIN
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
        # a normal request afterwards proves the gateway still serves
        status, _, _ = post(gw, "/v1/execute", tool_call("after-reset", 99999))
        assert status == 403
        gw.pump.drain()
        received = gw.requests_received
    records = list(iter_records(config.audit_log_path))
    assert received == 21
    assert len(records) == received
    assert all(r.note is None for r in records)
    assert verify_chain(config.audit_log_path).ok


# Golden replies, records and archive bytes ----------------------------------

GOLDEN_KINDS = ("proven", "refuted", "binding", "malformed")
UNREACHABLE = "http://127.0.0.1:1/unreachable"

# (mode, upstream reachable, path) -> status per GOLDEN_KINDS entry
GOLDEN_STATUSES = {
    ("enforce", True, "/v1/execute"): [200, 403, 403, 400],
    ("enforce", False, "/v1/execute"): [502, 403, 403, 400],
    ("shadow", True, "/v1/execute"): [200, 200, 200, 400],
    ("shadow", False, "/v1/execute"): [502, 502, 502, 400],
    **{(mode, reachable, "/v1/verify"): [200, 200, 200, 400]
       for mode in ("enforce", "shadow") for reachable in (True, False)},
}

# SHA-256 over every reply (status, content type, body without latency_ns
# in its key order, X-Axgate-* headers without the latency one), every audit
# record without ts_ns and its chain digests, the chain verdict, the bodies
# the upstream received and the exact trace-archive bytes of the matrix.
GOLDEN_GATEWAY_SHA256 = \
    "08129ac417dfd82b2f617fed49ef9747406f48fd87dadadc2494286826942f27"


def _golden_call(kind, request_id):
    if kind == "proven":
        return tool_call(request_id, 10)
    if kind == "refuted":
        return tool_call(request_id, 99999)
    if kind == "binding":
        return {"request_id": request_id, "tool": "execute_trade",
                "params": {}}
    return {"tool": "execute_trade", "params": {"volume": 10}}


def _golden_run(workspace, mode, upstream_url):
    from collections import OrderedDict

    name = f"{mode}-{'up' if upstream_url != UNREACHABLE else 'down'}"
    config = make_config(workspace, upstream_url, mode=mode,
                         audit_log_path=str(workspace / f"{name}.log"))
    replies = []
    with Gateway(config) as gw:
        for path in ("/v1/execute", "/v1/verify"):
            for kind in GOLDEN_KINDS:
                doc = _golden_call(kind, f"{name}{path}/{kind}")
                status, data, headers = post(gw, path, doc)
                body = json.loads(data, object_pairs_hook=OrderedDict)
                body.pop("latency_ns", None)
                replies.append({
                    "path": path, "kind": kind, "status": status,
                    "content_type": headers.get("Content-Type"),
                    "body": json.dumps(body),
                    "headers": [[k, v] for k, v in headers.items()
                                if k.startswith("X-Axgate-")
                                and k != "X-Axgate-Latency-Ns"],
                })
        gw.pump.drain()
    records = []
    with open(config.audit_log_path, "rb") as fh:
        for line in fh:
            record = json.loads(line)
            for key in ("ts_ns", "prev_digest", "record_digest"):
                del record[key]
            records.append(record)
    with open(config.trace_archive_path, "rb") as fh:
        archive = fh.read().decode("utf-8")
    return {"replies": replies, "records": records, "archive": archive,
            "chain_ok": verify_chain(config.audit_log_path).ok}


def test_golden_gateway_replies_records_and_archive(workspace):
    import hashlib

    outcomes = []
    for mode in ("enforce", "shadow"):
        for reachable in (True, False):
            if reachable:
                with StubUpstream() as upstream:
                    outcome = _golden_run(workspace, mode, upstream.url)
                outcome["upstream_bodies"] = [
                    json.loads(b) for b in upstream.bodies]
            else:
                outcome = _golden_run(workspace, mode, UNREACHABLE)
            for path in ("/v1/execute", "/v1/verify"):
                statuses = [r["status"] for r in outcome["replies"]
                            if r["path"] == path]
                assert statuses == GOLDEN_STATUSES[(mode, reachable, path)], \
                    (mode, reachable, path)
            assert outcome["chain_ok"]
            assert len(outcome["records"]) == 2 * len(GOLDEN_KINDS)
            outcomes.append([mode, reachable, outcome])
    blob = json.dumps(outcomes, sort_keys=False).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_GATEWAY_SHA256


def test_malformed_upstream_reply_is_502_with_the_real_decision(workspace):
    """An upstream that took the body but answered with something that is
    not HTTP is handled like an unreachable one: the call was decided
    Proven and forwarded, so the record must say so."""
    import socket

    from axgate.canonical import ZERO_DIGEST

    listener = socket.create_server(("127.0.0.1", 0))
    received = []

    def garbage_upstream():
        conn, _ = listener.accept()
        with conn:
            data = b""
            while b"\r\n\r\n" not in data:
                data += conn.recv(65536)
            head, _, body = data.partition(b"\r\n\r\n")
            length = int([line.split(b":", 1)[1] for line in head.split(b"\r\n")
                          if line.lower().startswith(b"content-length:")][0])
            while len(body) < length:
                body += conn.recv(65536)
            received.append(body)
            conn.sendall(b"GARBAGE NOT HTTP\r\n\r\n")

    thread = threading.Thread(target=garbage_upstream)
    thread.start()
    host, port = listener.getsockname()
    config = make_config(workspace, f"http://{host}:{port}/execute")
    try:
        with Gateway(config) as gw:
            body = json.dumps(tool_call("garbled", 10)).encode()
            status, data, _ = post(gw, "/v1/execute", body=body)
            gw.pump.drain()
            records = list(iter_records(config.audit_log_path))
    finally:
        thread.join(10)
        listener.close()
    assert received == [body]
    assert status == 502
    doc = json.loads(data)
    assert doc["error"] == "upstream-unreachable"
    assert doc["decision"] == "Proven"
    assert len(records) == 1
    assert records[0].decision == "Proven"
    assert records[0].note == "upstream-unreachable"
    assert records[0].refusal_causes == ()
    assert records[0].trace_digest != ZERO_DIGEST


@pytest.mark.parametrize("key, raw", [
    ("audit_fsync", "ture"),
    ("allow_state_override", "maybe"),
    ("max_in_flight", "lots"),
    ("upstream_timeout_secs", "soon"),
])
def test_load_config_rejects_unreadable_values(tmp_path, key, raw):
    cfg = tmp_path / "gateway.conf"
    cfg.write_text(f"policy_path = p.pol\n{key} = {raw}\n", encoding="utf-8")
    with pytest.raises(GatewayStartupError, match=key):
        load_config(str(cfg), env={})

    cfg.write_text("policy_path = p.pol\n", encoding="utf-8")
    with pytest.raises(GatewayStartupError, match=key):
        load_config(str(cfg), env={"AXGATE_" + key.upper(): raw})


def test_load_config_boolean_spellings(tmp_path):
    cfg = tmp_path / "gateway.conf"
    cfg.write_text("policy_path = p.pol\n", encoding="utf-8")
    for raw, expected in (("1", True), ("TRUE", True), ("yes", True),
                          ("on", True), ("0", False), ("False", False),
                          ("no", False), ("off", False)):
        config = load_config(str(cfg), env={"AXGATE_AUDIT_FSYNC": raw})
        assert config.audit_fsync is expected, raw


def test_trace_archive_lines_are_canonical_documents(tmp_path):
    """The archive splices the kernel's trace bytes into its line; that must
    equal the canonical document built from the trace's plain form."""
    from axgate.canonical import canonical_bytes
    from axgate.gateway import AuditEvent, AuditPump
    from axgate.kernel import verify
    from axgate.randgen import iter_instances

    archive = tmp_path / "audit.log.traces"
    pump = AuditPump(str(tmp_path / "audit.log"), str(archive), fsync=False)
    expected = {}
    try:
        for i, inst in enumerate(iter_instances(11, 3000, env_reuse=6)):
            result = verify(inst.request, inst.state, inst.env)
            expected.setdefault(result.trace_digest, canonical_bytes({
                "trace_digest": result.trace_digest,
                "trace": result.trace.to_plain(),
            }) + b"\n")
            pump.submit(AuditEvent(
                request_id=f"a{i}", tool=inst.request.tool,
                env_version=inst.env.version_digest, decision=result.decision,
                trace_digest=result.trace_digest, refusal_causes=(),
                enforced=False, trace_bytes=result.trace_bytes,
            ))
        pump.drain()
    finally:
        pump.close()
    assert len(expected) > 1000
    assert archive.read_bytes().splitlines(keepends=True) == \
        list(expected.values())


def test_reply_failure_after_the_record_does_not_audit_twice(workspace):
    """A request id that cannot go into a latin-1 response header fails the
    relayed reply after the call was decided, forwarded and recorded; the
    fallback must not add a second, contradicting record."""
    with StubUpstream() as upstream:
        config = make_config(workspace, upstream.url)
        with Gateway(config) as gw:
            with pytest.raises((http.client.HTTPException, OSError)):
                post(gw, "/v1/execute", tool_call("日", 10))
            status, _, _ = post(gw, "/v1/execute", tool_call("after", 10))
            assert status == 200
            gw.pump.drain()
            records = list(iter_records(config.audit_log_path))
        assert len(upstream.bodies) == 2
    assert [(r.request_id, r.decision, r.note) for r in records] == \
        [("日", "Proven", None), ("after", "Proven", None)]
