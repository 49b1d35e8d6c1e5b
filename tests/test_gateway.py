import errno
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
from axgate.scenario import StubUpstream, gateway_config, request

POLICY = """\
concept volume : quantity from request "Order volume (shares)"
concept max_order_size : quantity from state "Maximum order size (shares)"
axiom max_order forbid execute_trade when volume > max_order_size
  explain "Order volume {volume} exceeds the maximum order size {max_order_size}."
axiom ordinary permit execute_trade when volume > 0
"""


FACTS = {"max_order_size": 10000}


@pytest.fixture()
def workspace(tmp_path):
    """The directory `gateway_config` writes a test gateway's files to."""
    return tmp_path


def make_config(workspace, upstream_url, **overrides):
    return gateway_config(workspace, POLICY, FACTS, upstream_url, **overrides)


def post(gateway, path, doc=None, body=None):
    return request(gateway.address, "POST", path,
                   json.dumps(doc).encode() if body is None else body)


def drained_records(gateway):
    gateway.pump.drain()
    return list(iter_records(gateway.config.audit_log_path))


def tool_call(request_id, volume):
    return {"request_id": request_id, "tool": "execute_trade",
            "params": {"volume": volume}}


def test_enforce_refuted_blocks_and_never_contacts_upstream(workspace):
    with StubUpstream() as upstream:
        with Gateway(make_config(workspace, upstream.url)) as gw:
            status, _, data = post(gw, "/v1/execute", tool_call("r1", 99999))
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
            status, headers, data = post(gw, "/v1/execute", body=body)
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
            status, headers, data = post(gw, "/v1/execute", body=body)
            assert status == 200  # upstream response relayed
            assert json.loads(data) == {"ok": True}
            assert headers["X-Axgate-Decision"] == "Refuted"
            assert headers["X-Axgate-Enforced"] == "false"
            records = drained_records(gw)
        assert upstream.bodies == [body]
    assert len(records) == 1
    assert records[0].decision == "Refuted"
    assert records[0].enforced is False


def test_verify_endpoint_never_forwards(workspace):
    with StubUpstream() as upstream:
        with Gateway(make_config(workspace, upstream.url)) as gw:
            status, _, data = post(gw, "/v1/verify", tool_call("r4", 5))
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
        records = drained_records(gw)
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
        records = drained_records(gw)
    assert len(records) == 1
    assert records[0].note == "oversize-body"
    assert records[0].decision == "Refuted"


def test_oversize_body_keeps_the_connection(workspace):
    """An oversize body is read and dropped, so after its 413 the same
    connection carries the next request."""
    config = make_config(workspace, "http://127.0.0.1:9/none",
                         max_body_bytes=128)
    big = json.dumps(tool_call("big", 1)).encode() + b" " * 500
    after = json.dumps(tool_call("after", 1)).encode()
    with Gateway(config) as gw:
        reply = _exchange(gw, (
            b"POST /v1/verify HTTP/1.1\r\nHost: x\r\nContent-Length: %d"
            b"\r\n\r\n%s" % (len(big), big)) + (
            b"POST /v1/verify HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(after), after)))
        records = drained_records(gw)
    assert reply is not None
    assert reply.startswith(b"HTTP/1.1 413 ")
    assert reply.count(b"HTTP/1.1 200 ") == 1
    assert [(r.request_id, r.decision, r.note) for r in records] == \
        [("", "Refuted", "oversize-body"), ("after", "Proven", None)]


def test_upstream_unreachable_is_502_and_audited(workspace):
    config = make_config(workspace, "http://127.0.0.1:1/unreachable")
    with Gateway(config) as gw:
        status, _, data = post(gw, "/v1/execute", tool_call("r5", 10))
        assert status == 502
        assert json.loads(data)["error"] == "upstream-unreachable"
        records = drained_records(gw)
    assert len(records) == 1
    assert records[0].decision == "Proven"
    assert records[0].note == "upstream-unreachable"


@pytest.mark.parametrize("url", [
    "http://127.0.0.1:port/x",  # was a 500: the port was read per call
    "ftp://127.0.0.1/x",
    "http://127.0.0.1:1/a b",
    "http:///x",
])
def test_an_upstream_url_that_cannot_be_sent_to_is_502(workspace, url):
    with Gateway(make_config(workspace, url)) as gw:
        status, _, data = post(gw, "/v1/execute", tool_call("url", 10))
        records = drained_records(gw)
    assert (status, json.loads(data)["error"]) == \
        (502, "upstream-unreachable")
    assert [(r.decision, r.note) for r in records] == \
        [("Proven", "upstream-unreachable")]


def test_unreadable_state_fails_closed(workspace):
    config = make_config(workspace, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        os.remove(config.state_path)
        gw.refresh_state()
        status, _, data = post(gw, "/v1/execute", tool_call("r6", 10))
        assert status == 403
        doc = json.loads(data)
        assert doc["decision"] == "Refuted"
        records = drained_records(gw)
    causes = tuple(tuple(c) for c in records[0].refusal_causes)
    assert any(c[0] == "binding-failure" and c[2] == "max_order_size"
               for c in causes)


def test_startup_fails_fast_on_bad_policy(tmp_path):
    # The second, a literal of 4,301 digits, made the compiler raise a
    # ValueError, which Gateway() let out bare.
    for bad in ("axiom broken forbid t when undeclared > 1\n",
                POLICY.replace("volume > 0", "volume > " + "9" * 4301)):
        config = gateway_config(tmp_path, bad, FACTS, "http://127.0.0.1:9/none")
        with pytest.raises(GatewayStartupError) as err:
            Gateway(config)
        assert err.value.diagnostics


def test_startup_fails_fast_on_unreadable_state(tmp_path):
    """A missing file is unreadable, and so is any document but
    {"facts": {...}}: a bare object of facts among them."""
    (tmp_path / "bare.json").write_text(json.dumps({"max_order_size": 10}))
    for state in ("missing.json", "bare.json"):
        config = make_config(tmp_path, "http://127.0.0.1:9/none",
                             state_path=str(tmp_path / state))
        with pytest.raises(GatewayStartupError, match="state source"):
            Gateway(config)


def test_policy_and_health_endpoints(workspace):
    with Gateway(make_config(workspace, "http://127.0.0.1:9/none")) as gw:
        status, _, data = request(gw.address, "GET", "/v1/policy")
        doc = json.loads(data)
        assert status == 200
        assert doc["axiom_count"] == 2
        assert doc["mode"] == "enforce"
        assert doc["env_version"] == gw.snapshot.env.version_digest
        status, _, data = request(gw.address, "GET", "/v1/healthz")
        health = json.loads(data)
        assert status == 200
        assert health["status"] == "ok"
        assert health["audit_degraded"] is False
        assert health["archive_degraded"] is False


def test_health_is_degraded_while_state_or_audit_is_untrustworthy(
        workspace, caplog):
    """/v1/healthz says "ok" only while enforcement can be trusted. An
    unreadable state source or a failed audit append makes it 503
    "degraded" with the reasons; the unreadable source is logged once."""
    import logging

    from axgate.audit import AuditStorageError

    caplog.set_level(logging.INFO, logger="axgate.gateway")
    config = make_config(workspace, "http://127.0.0.1:9/none")
    state = workspace / "state.json"
    readable = state.read_text()
    with Gateway(config) as gw:
        state.write_text("{not json")
        gw.refresh_state()
        state.write_text(json.dumps({"max_order_size": 10000}))  # bare
        gw.refresh_state()
        status, _, data = request(gw.address, "GET", "/v1/healthz")
        health = json.loads(data)
        assert status == 503
        assert health["status"] == "degraded"
        assert health["reasons"] == ["state-unreadable"]
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and config.state_path in warnings[0]

        state.write_text(readable)
        gw.refresh_state()
        status, _, data = request(gw.address, "GET", "/v1/healthz")
        health = json.loads(data)
        assert (status, health["status"], health["reasons"]) == (200, "ok", [])

        def failing_append(**fields):
            raise AuditStorageError("disk full")

        gw.pump._writer.append = failing_append
        status, _, _ = post(gw, "/v1/verify", tool_call("h1", 10))
        assert status == 200
        gw.pump.drain()
        status, _, data = request(gw.address, "GET", "/v1/healthz")
        health = json.loads(data)
        assert status == 503
        assert health["reasons"] == ["audit-degraded"]
        assert health["audit_degraded"] is True


class _FullDisk:
    """A trace archive whose every write fails as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass

    def close(self):
        self.fh.close()


def test_failed_archive_write_degrades_archiving_not_the_log(workspace,
                                                             caplog):
    """A trace-archive write that fails ends archiving: it is logged once,
    every record still lands in the log, drain() returns, and /v1/healthz
    names the reason."""
    import logging

    caplog.set_level(logging.ERROR, logger="axgate.audit")
    config = make_config(workspace, "http://127.0.0.1:9/none")
    gw = Gateway(config).start()
    archive = gw.pump._trace_fh
    gw.pump._trace_fh = _FullDisk(archive)
    n = 5
    for i in range(n):
        status, _, _ = post(gw, "/v1/verify", tool_call(f"d{i}", 20000 + i))
        assert status == 200
    drained = threading.Thread(target=gw.pump.drain, daemon=True)
    drained.start()
    drained.join(10)
    # A pump whose consumer died never drains, and neither would stop().
    assert not drained.is_alive()
    try:
        assert gw.pump.records_written == n
        assert archive.closed
        status, _, data = request(gw.address, "GET", "/v1/healthz")
        health = json.loads(data)
        assert status == 503
        assert health["reasons"] == ["archive-degraded"]
        assert health["archive_degraded"] is True
        assert health["audit_degraded"] is False
    finally:
        gw.stop()
    assert verify_chain(config.audit_log_path).ok
    assert len(list(iter_records(config.audit_log_path))) == n
    assert os.path.getsize(config.audit_log_path + ".traces") == 0
    errors = [r for r in caplog.records if r.name == "axgate.audit"]
    assert len(errors) == 1 and "archiving stopped" in errors[0].getMessage()


def test_reload_policy_success_and_failure(workspace):
    config = make_config(workspace, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        original = gw.snapshot.env.version_digest

        # byte-identical reload is a no-op with the same digest
        status, doc = _reload(gw)
        assert status == 200 and doc["env_version"] == original

        # a broken policy is rejected with diagnostics, env unchanged
        (workspace / "policy.pol").write_text(
            "axiom x forbid t when ghost > 1\n", encoding="utf-8"
        )
        status, doc = _reload(gw)
        assert status == 422
        assert any("unregistered-symbol" in line for line in doc["diagnostics"])
        assert gw.snapshot.env.version_digest == original

        # so is a literal of 4,301 digits: the compiler used to raise, and
        # the connection closed with no reply
        (workspace / "policy.pol").write_text(
            POLICY.replace("volume > 0", "volume > " + "9" * 4301),
            encoding="utf-8")
        status, doc = _reload(gw)
        assert status == 422
        assert doc["diagnostics"][0].startswith("error syntax 5:")
        assert gw.snapshot.env.version_digest == original

        # a valid new policy publishes a new digest
        (workspace / "policy.pol").write_text(
            POLICY + "\naxiom extra permit transfer when volume >= 0\n",
            encoding="utf-8",
        )
        status, doc = _reload(gw)
        assert status == 200
        assert doc["env_version"] != original
        assert gw.snapshot.env.version_digest == doc["env_version"]


def _reload(gateway):
    """Reload the configured policy: an empty body."""
    status, _, data = post(gateway, "/v1/policy/reload", body=b"")
    return status, json.loads(data)


def test_reload_body_naming_the_audit_descriptor_is_refused(workspace):
    """A JSON integer used to reach open() as a file descriptor: reading
    the audit log's write-only descriptor failed and the `with` block closed
    it, so the next record was counted but never reached the log."""
    config = make_config(workspace, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        original = gw.snapshot.env.version_digest
        fd = gw.pump._writer._fh.fileno()
        status, _, data = post(gw, "/v1/policy/reload", {"path": fd})
        assert (status, json.loads(data)) == (400, {"error": "malformed-body"})
        status, _, _ = post(gw, "/v1/execute", tool_call("after", 99999))
        assert status == 403
        gw.pump.drain()
        assert gw.snapshot.env.version_digest == original
        assert gw.pump.records_written == 1
    assert [r.request_id for r in iter_records(config.audit_log_path)] == \
        ["after"]
    assert verify_chain(config.audit_log_path).ok


def test_reload_rejects_bad_bodies_and_unreadable_files(workspace,
                                                         monkeypatch):
    """A reload re-reads the configured policy_path and nothing else: any
    body, one that names another policy file included, is refused and
    publishes nothing."""
    import axgate.gateway as gateway_module

    monkeypatch.setattr(gateway_module, "_CLIENT_TIMEOUT_SECS", 0.5)
    # would prove the call the configured policy refuses
    other = workspace / "other.pol"
    other.write_text(POLICY.split("axiom max_order")[0]
                     + "axiom ordinary permit execute_trade when volume > 0\n",
                     encoding="utf-8")
    config = make_config(workspace, "http://127.0.0.1:9/none",
                         max_body_bytes=128)
    with Gateway(config) as gw:
        original = gw.snapshot.env.version_digest
        status, _, data = post(gw, "/v1/verify", tool_call("before", 99999))
        assert (status, json.loads(data)["decision"]) == (200, "Refuted")
        named = b'{"path": "%s"}' % str(other).encode()
        cases = [
            (named + b" " * 200, 413, "oversize-body"),
            (named, 400, "malformed-body"),
            (b"{}", 400, "malformed-body"),
            (b'{"path": null}', 400, "malformed-body"),
            (b"[1]", 400, "malformed-body"),
            (b"{", 400, "malformed-body"),
            (b" ", 400, "malformed-body"),
        ]
        for body, status, error in cases:
            got, _, data = post(gw, "/v1/policy/reload", body=body)
            assert (got, json.loads(data)["error"]) == (status, error), body
            assert gw.snapshot.env.version_digest == original, body
        status, _, data = post(gw, "/v1/verify", tool_call("after", 99999))
        assert (status, json.loads(data)["decision"]) == (200, "Refuted")

        reply = _exchange(gw, b"POST /v1/policy/reload HTTP/1.1\r\nHost: x\r\n"
                          b"Content-Length: 100\r\n\r\n{", wait=5)
        assert reply.startswith(b"HTTP/1.1 408 ")
        assert gw.snapshot.env.version_digest == original

        # the configured file missing, then a directory, cannot be read
        policy = workspace / "policy.pol"
        text = policy.read_text(encoding="utf-8")
        for make_unreadable in (policy.unlink, policy.mkdir):
            make_unreadable()
            status, reply = _reload(gw)
            assert (status, reply["error"]) == (422, "policy-unreadable")
            assert gw.snapshot.env.version_digest == original
        policy.rmdir()
        policy.write_text(text, encoding="utf-8")
        assert _reload(gw) == (200, {"env_version": original})


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
            records = drained_records(gw)
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
        records = drained_records(gw)
    assert records[0].duplicate_of is None
    assert records[1].duplicate_of == 0
    assert records[0].decision == records[1].decision


def test_huge_wire_exponent_is_refused_at_once(workspace):
    """A 12-byte quantity string whose exponent would build a 33-million-bit
    integer is a kind mismatch, decided and audited without the work."""
    import time

    config = make_config(workspace, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        start = time.process_time()
        status, _, data = post(gw, "/v1/verify",
                               tool_call("exp", "1e10000000"))
        cpu_s = time.process_time() - start
        records = drained_records(gw)
    assert (status, json.loads(data)["decision"]) == (200, "Refuted")
    assert cpu_s < 0.5
    assert len(records) == 1
    assert records[0].decision == "Refuted"
    assert ("binding-failure", "ordinary", "volume") in \
        tuple(tuple(c) for c in records[0].refusal_causes)


def test_state_override_is_ignored(workspace):
    """State facts come only from the state source: a request body cannot
    rewrite them, and a `state_override` key is an ignored extra key."""
    config = make_config(workspace, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        for override in ({"max_order_size": 50000}, 5):
            call = {**tool_call("so1", 20000), "state_override": override}
            status, _, data = post(gw, "/v1/verify", call)
            assert (status, json.loads(data)["decision"]) == (200, "Refuted")


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
                    status, _, data = post(gw, "/v1/verify",
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
            records = drained_records(gw)
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
    config = make_config(workspace, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        for i in range(20):
            payload = json.dumps(tool_call(f"reset-{i}", 99999)).encode()
            _exchange(gw, b"POST /v1/execute HTTP/1.1\r\nHost: x\r\n"
                      b"Content-Type: application/json\r\nContent-Length: "
                      b"%d\r\n\r\n%s" % (len(payload), payload),
                      wait=0, reset=True)
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
                status, headers, data = post(gw, path, doc)
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
    with open(config.audit_log_path + ".traces", "rb") as fh:
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
    from axgate.canonical import ZERO_DIGEST

    def garbage(conn, n):
        conn.sendall(b"GARBAGE NOT HTTP\r\n\r\n")
        return False

    with _RawUpstream(garbage) as upstream:
        config = make_config(workspace, upstream.url)
        with Gateway(config) as gw:
            body = json.dumps(tool_call("garbled", 10)).encode()
            status, _, data = post(gw, "/v1/execute", body=body)
            records = drained_records(gw)
        assert upstream.bodies == [body]
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
    ("max_in_flight", "lots"),
    ("upstream_timeout_secs", "soon"),
    ("upstream_timeout_secs", "0"),
    ("upstream_timeout_secs", "-1"),
    ("upstream_timeout_secs", "inf"),
    ("upstream_timeout_secs", "nan"),
    ("max_body_bytes", "0"),
    ("max_body_bytes", "-1"),
    ("state_refresh_secs", "-1"),
    ("state_refresh_secs", "inf"),
    ("state_refresh_secs", "nan"),
])
def test_load_config_rejects_unreadable_values(tmp_path, key, raw):
    cfg = tmp_path / "gateway.conf"
    cfg.write_text(f"policy_path = p.pol\n{key} = {raw}\n", encoding="utf-8")
    with pytest.raises(GatewayStartupError, match=key):
        load_config(str(cfg), env={})

    cfg.write_text("policy_path = p.pol\n", encoding="utf-8")
    with pytest.raises(GatewayStartupError, match=key):
        load_config(str(cfg), env={"AXGATE_" + key.upper(): raw})


def test_load_config_refuses_allow_state_override_as_unknown_key(tmp_path):
    """Removed keys stop startup: the option that let a request body
    rewrite state facts, and the trace archive's path, which is always
    `<audit_log_path>.traces`."""
    cfg = tmp_path / "gateway.conf"
    for key, raw in (("allow_state_override", "true"),
                     ("trace_archive_path", "a.traces")):
        cfg.write_text(f"policy_path = p.pol\n{key} = {raw}\n",
                       encoding="utf-8")
        with pytest.raises(GatewayStartupError,
                           match=f"unknown config key: '{key}'"):
            load_config(str(cfg), env={})


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
    pump = AuditPump(str(tmp_path / "audit.log"), fsync=False)
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


def test_reply_failure_after_the_record_does_not_audit_twice(workspace,
                                                             monkeypatch):
    """A relayed reply that fails after the call was decided, forwarded and
    recorded must not make the fallback add a second, contradicting
    record."""
    from axgate.gateway import _Handler

    send_raw = _Handler._send_raw
    failed = []

    def send_raw_failing_once(self, *args):
        if not failed:
            failed.append(True)
            raise RuntimeError("reply failed")
        return send_raw(self, *args)

    monkeypatch.setattr(_Handler, "_send_raw", send_raw_failing_once)
    with StubUpstream() as upstream:
        config = make_config(workspace, upstream.url)
        with Gateway(config) as gw:
            with pytest.raises((http.client.HTTPException, OSError)):
                post(gw, "/v1/execute", tool_call("fails", 10))
            status, _, _ = post(gw, "/v1/execute", tool_call("after", 10))
            assert status == 200
            records = drained_records(gw)
        assert len(upstream.bodies) == 2
    assert failed
    assert [(r.request_id, r.decision, r.note) for r in records] == \
        [("fails", "Proven", None), ("after", "Proven", None)]


@pytest.mark.parametrize("request_id", ["r1\r\nX-Injected: yes", "日"])
def test_request_id_outside_printable_ascii_is_400(workspace, request_id):
    """The request id is echoed in a response header: CR/LF there would
    inject header lines, and a non-latin-1 character cannot be encoded
    after the call was already forwarded. Such ids are refused up front."""
    with StubUpstream() as upstream:
        config = make_config(workspace, upstream.url)
        with Gateway(config) as gw:
            status, headers, data = post(gw, "/v1/execute",
                                         tool_call(request_id, 10))
            records = drained_records(gw)
        assert upstream.bodies == []
    assert status == 400
    assert json.loads(data) == {"error": "malformed-request-id"}
    assert "X-Injected" not in headers
    assert [(r.decision, r.note) for r in records] == \
        [("Refuted", "malformed-request-id")]


def test_audit_pump_windows_are_fifo(tmp_path, monkeypatch):
    """Both dedup windows insert on a miss, evict the oldest entry past the
    cap and never refresh on a hit."""
    import axgate.audit as audit_module
    from axgate.audit import AuditEvent, AuditPump

    monkeypatch.setattr(audit_module, "_DUPLICATE_WINDOW", 3)
    monkeypatch.setattr(audit_module, "_ARCHIVE_WINDOW", 3)
    archive = tmp_path / "audit.log.traces"
    pump = AuditPump(str(tmp_path / "audit.log"), fsync=False)
    ids = ["a", "b", "a", "c", "d", "a", "d"]
    traces = ["1", "2", "1", "3", "4", "1", "3"]
    try:
        for request_id, trace in zip(ids, traces):
            pump.submit(AuditEvent(
                request_id=request_id, tool="t", env_version="e" * 64,
                decision="Proven", trace_digest=trace * 64,
                refusal_causes=(), enforced=False, trace_bytes=b"{}",
            ))
        pump.drain()
    finally:
        pump.close()
    records = list(iter_records(str(tmp_path / "audit.log")))
    # "a" at seq 5 comes after three newer distinct ids: evicted, not a hit.
    assert [r.duplicate_of for r in records] == \
        [None, None, 0, None, None, None, 4]
    # "1" left the archive window once "2", "3" and "4" were archived.
    archived = [json.loads(line)["trace_digest"][0]
                for line in archive.read_bytes().splitlines()]
    assert archived == ["1", "2", "3", "4", "1"]


def test_keep_alive_round_trips_are_off_the_delayed_ack_floor(workspace):
    """Headers and body go out as two writes; with Nagle on, each keep-alive
    reply waited about 40 ms for the client's delayed ACK."""
    import statistics
    import time

    with StubUpstream() as upstream:
        config = make_config(workspace, upstream.url)
        with Gateway(config) as gw:
            conn = http.client.HTTPConnection(*gw.address, timeout=10)
            try:
                medians = {}
                for path in ("/v1/verify", "/v1/execute"):
                    times = []
                    for i in range(40):
                        body = json.dumps(tool_call(f"{path}-{i}", 10))
                        t0 = time.perf_counter()
                        conn.request("POST", path, body=body.encode(),
                                     headers={"Content-Type":
                                              "application/json"})
                        resp = conn.getresponse()
                        resp.read()
                        times.append(time.perf_counter() - t0)
                        assert resp.status == 200
                    medians[path] = statistics.median(times)
            finally:
                conn.close()
    assert all(m < 0.020 for m in medians.values()), medians


def test_readme_gateway_config_example_loads(tmp_path):
    import pathlib
    import re

    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Gateway", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    cfg = tmp_path / "gateway.conf"
    cfg.write_text(block, encoding="utf-8")
    config = load_config(str(cfg), env={})
    assert config.mode == "enforce"
    assert config.state_path == "state.json"
    assert config.max_in_flight == 64
    # every key the section's range table names is a config field
    table = re.findall(r"^\| `(\w+)` \|", section.split("\n## ")[0], re.M)
    assert table and set(table) <= set(GatewayConfig.__dataclass_fields__)


# Upstream connection reuse ---------------------------------------------------

UPSTREAM_OK = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
               b"Content-Length: 12\r\n\r\n{\"ok\": true}")


class _RawUpstream:
    """A raw-socket upstream. It counts the connections it accepts, records
    every request head and body it reads, and answers each request with
    `reply(conn, n)`, where n counts requests over all connections; a false
    return closes the connection. `closed` is released after each
    connection closes."""

    def __init__(self, reply):
        import socket

        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self._reply = reply
        self._stop = threading.Event()
        self.accepted = 0
        self.heads = []
        self.bodies = []
        self.closed = threading.Semaphore(0)
        self._threads = [threading.Thread(target=self._accept)]
        self._threads[0].start()

    @property
    def url(self):
        host, port = self._listener.getsockname()
        return f"http://{host}:{port}/execute"

    def _accept(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            self.accepted += 1
            thread = threading.Thread(target=self._serve, args=(conn,))
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn):
        with conn:
            conn.settimeout(10)
            rest = b""
            while True:
                request = self._read_request(conn, rest)
                if request is None:
                    break
                head, body, rest = request
                self.heads.append(head)
                self.bodies.append(body)
                if not self._reply(conn, len(self.bodies)):
                    break
        self.closed.release()

    @staticmethod
    def _read_request(conn, data):
        """(head, body, bytes after it), or None when the peer closes
        first. The head ends with its empty line."""
        length = None
        while length is None or len(data) < length:
            if length is None and b"\r\n\r\n" in data:
                head, _, data = data.partition(b"\r\n\r\n")
                head += b"\r\n\r\n"
                length = int([
                    line.split(b":", 1)[1] for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length:")][0])
                continue
            chunk = conn.recv(65536)
            if not chunk:
                return None
            data += chunk
        return head, data[:length], data[length:]

    def close(self):
        self._stop.set()
        for thread in self._threads:  # the acceptor first: no more appends
            thread.join(10)
            assert not thread.is_alive()
        self._listener.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _keep_alive(conn, n):
    conn.sendall(UPSTREAM_OK)
    return True


def test_sequential_forwards_reuse_the_upstream_connection(workspace):
    with _RawUpstream(_keep_alive) as upstream:
        with Gateway(make_config(workspace, upstream.url)) as gw:
            sent = [json.dumps(tool_call(f"seq-{i}", 10)).encode()
                    for i in range(50)]
            statuses = [post(gw, "/v1/execute", body=body)[0]
                        for body in sent]
        assert statuses == [200] * 50
        assert upstream.bodies == sent
        assert upstream.accepted <= 2


def test_upstream_that_closes_after_each_reply_gets_no_resend(workspace):
    """The upstream closes after every reply without saying so. The closed
    connection is found before reuse, so no call fails or is sent twice."""
    def reply_then_close(conn, n):
        conn.sendall(UPSTREAM_OK)
        return False

    with _RawUpstream(reply_then_close) as upstream:
        config = make_config(workspace, upstream.url)
        with Gateway(config) as gw:
            sent, statuses = [], []
            for i in range(10):
                sent.append(json.dumps(tool_call(f"close-{i}", 10)).encode())
                statuses.append(post(gw, "/v1/execute", body=sent[-1])[0])
                assert upstream.closed.acquire(timeout=10)
            records = drained_records(gw)
        assert statuses == [200] * 10
        assert upstream.bodies == sent
        assert upstream.accepted == 10
    assert all(r.note is None for r in records)


def test_connection_close_reply_is_not_reused(workspace):
    """`Connection: close` is honoured even while the upstream still keeps
    the socket open and would read another request on it."""
    reply = UPSTREAM_OK.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n")

    def reply_close_but_keep_reading(conn, n):
        conn.sendall(reply)
        return True

    with _RawUpstream(reply_close_but_keep_reading) as upstream:
        with Gateway(make_config(workspace, upstream.url)) as gw:
            statuses = [post(gw, "/v1/execute", tool_call(f"cc-{i}", 10))[0]
                        for i in range(5)]
        assert statuses == [200] * 5
        assert len(upstream.bodies) == 5
        assert upstream.accepted == 5


def test_reset_after_the_body_arrived_is_502_and_never_resent(workspace):
    """A pooled connection reset after the upstream read the body: the
    call may have executed, so it is answered 502 with its real decision
    and not sent again; the next call opens a new connection."""
    import socket
    import struct

    def reset_the_second(conn, n):
        if n == 2:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            return False
        conn.sendall(UPSTREAM_OK)
        return True

    with _RawUpstream(reset_the_second) as upstream:
        config = make_config(workspace, upstream.url)
        with Gateway(config) as gw:
            sent = [json.dumps(tool_call(f"rst-{i}", 10)).encode()
                    for i in range(3)]
            replies = [post(gw, "/v1/execute", body=body) for body in sent]
            records = drained_records(gw)
        assert upstream.bodies == sent
        assert upstream.accepted == 2
    assert [status for status, _, _ in replies] == [200, 502, 200]
    doc = json.loads(replies[1][2])
    assert doc["error"] == "upstream-unreachable"
    assert doc["decision"] == "Proven"
    assert [(r.decision, r.note) for r in records] == [
        ("Proven", None), ("Proven", "upstream-unreachable"), ("Proven", None)]


def test_pooled_forwards_are_off_the_delayed_ack_floor(workspace, monkeypatch):
    """The Nagle-on stub holds each reply body until its headers are
    ACKed; a reused connection without quick ACK waits about 40 ms on
    every forward."""
    import statistics
    import time

    connect = http.client.HTTPConnection.connect
    upstream_connects = []

    with StubUpstream() as upstream:
        upstream_port = int(upstream.url.split(":")[2].split("/")[0])

        def counting_connect(self):
            if self.port == upstream_port:
                upstream_connects.append(self)
            return connect(self)

        monkeypatch.setattr(http.client.HTTPConnection, "connect",
                            counting_connect)
        with Gateway(make_config(workspace, upstream.url)) as gw:
            conn = http.client.HTTPConnection(*gw.address, timeout=10)
            try:
                times = []
                for i in range(40):
                    body = json.dumps(tool_call(f"ack-{i}", 10)).encode()
                    t0 = time.perf_counter()
                    conn.request("POST", "/v1/execute", body=body,
                                 headers={"Content-Type": "application/json"})
                    resp = conn.getresponse()
                    resp.read()
                    times.append(time.perf_counter() - t0)
                    assert resp.status == 200
            finally:
                conn.close()
        assert len(upstream.bodies) == 40
    assert len(upstream_connects) <= 2
    assert statistics.median(times) < 0.020, statistics.median(times)


def test_without_quick_ack_each_forward_gets_a_fresh_connection(
        workspace, monkeypatch):
    import axgate.gateway as gateway_module

    monkeypatch.setattr(gateway_module, "_QUICKACK", None)
    with _RawUpstream(_keep_alive) as upstream:
        with Gateway(make_config(workspace, upstream.url)) as gw:
            statuses = [post(gw, "/v1/execute", tool_call(f"nq-{i}", 10))[0]
                        for i in range(5)]
        assert statuses == [200] * 5
        assert upstream.accepted == 5


# Upstream replies ----------------------------------------------------------------

_CHUNKED = (b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n"
            b"7;name=value\r\n, world\r\n0\r\nX-Trailer: t\r\n\r\n")
_TO_CLOSE = (b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\n"
             b"hello, world")
_NO_CONTENT = b"HTTP/1.1 204 No Content\r\nContent-Type: text/plain\r\n\r\n"
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n" + UPSTREAM_OK
# http.client took a 103 for the final reply, with no body
_EARLY_HINTS = (b"HTTP/1.1 103 Early Hints\r\nLink: </a.css>; rel=preload"
                b"\r\n\r\n" + UPSTREAM_OK)
_HTTP10 = (b"HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n"
           b"Content-Length: 12\r\n\r\nhello, world")
_HTTP10_KEEP_ALIVE = _HTTP10.replace(b"\r\n\r\n",
                                     b"\r\nConnection: keep-alive\r\n\r\n")


# (upstream reply, whether the upstream closes after it, relayed status,
# content type and body, whether the connection is reused)
@pytest.mark.parametrize("reply, closes, status, content_type, body, reused", [
    (_CHUNKED, False, 200, "text/plain", b"hello, world", True),
    (_TO_CLOSE, True, 200, "text/plain", b"hello, world", False),
    (_NO_CONTENT, False, 204, "text/plain", b"", True),
    (_CONTINUE, False, 200, "application/json", b'{"ok": true}', True),
    (_EARLY_HINTS, False, 200, "application/json", b'{"ok": true}', True),
    (_HTTP10, False, 200, "text/plain", b"hello, world", False),
    (_HTTP10_KEEP_ALIVE, False, 200, "text/plain", b"hello, world", True),
], ids=["chunked", "read-to-close", "204", "100-continue", "103",
        "http-1.0", "http-1.0-keep-alive"])
def test_upstream_replies_are_relayed_and_pooled(
        workspace, reply, closes, status, content_type, body, reused):
    def answer(conn, n):
        conn.sendall(reply)
        return not closes

    with _RawUpstream(answer) as upstream:
        with Gateway(make_config(workspace, upstream.url)) as gw:
            replies = [post(gw, "/v1/execute", tool_call(f"up-{i}", 10))
                       for i in range(3)]
            records = drained_records(gw)
        assert len(upstream.bodies) == 3
        assert (upstream.accepted == 1) == reused
        assert upstream.accepted in (1, 3)
    for got_status, headers, data in replies:
        assert (got_status, headers["Content-Type"], data) == \
            (status, content_type, body)
        assert headers["Content-Length"] == str(len(body))
        assert "Transfer-Encoding" not in headers
        assert headers["X-Axgate-Decision"] == "Proven"
    assert [(r.decision, r.note) for r in records] == [("Proven", None)] * 3


def test_upstream_request_heads_are_http_clients_bytes(workspace):
    """Each forward is one write of the head http.client wrote, then the
    body; the Content-Type is the caller's, else JSON."""
    with _RawUpstream(_keep_alive) as upstream:
        url = upstream.url + "?desk=7"
        with Gateway(make_config(workspace, url)) as gw:
            body = json.dumps(tool_call("head", 10)).encode()
            for headers in ({"Content-Type": "application/json"},
                            {"Content-Type": "text/x-json; charset=utf-8"},
                            {}):
                status, _, _ = request(gw.address, "POST", "/v1/execute",
                                       body, headers)
                assert status == 200
        host = url.split("/")[2]
        assert upstream.heads == [
            b"POST /execute?desk=7 HTTP/1.1\r\nHost: %s\r\n"
            b"Accept-Encoding: identity\r\nContent-Type: %s\r\n"
            b"Content-Length: %d\r\n\r\n" % (host.encode(), content_type,
                                              len(body))
            for content_type in (b"application/json",
                                 b"text/x-json; charset=utf-8",
                                 b"application/json")]
        assert upstream.bodies == [body] * 3


# Replies that cannot be relayed: the call was decided Proven and forwarded,
# so each is a 502 with its real decision, and nothing is sent again.
_UNRELAYABLE = [
    UPSTREAM_OK.replace(b"Content-Length", b"Content-Length "),
    UPSTREAM_OK.replace(b"\r\nContent-Length", b"\r\n Content-Length"),
    UPSTREAM_OK.replace(b"12", b"12, 13"),
    UPSTREAM_OK.replace(b"12", b"40"),  # the body ends at the close
    _CHUNKED.replace(b"7;", b"seven;"),
    _CHUNKED.replace(b"chunked", b"gzip"),
    _CHUNKED[:-20],
    b"HTTP/2.0 200 OK\r\nContent-Length: 0\r\n\r\n",
    b"HTTP/1.1 101 Switching Protocols\r\n\r\n" + UPSTREAM_OK,
]


@pytest.mark.parametrize("reply", _UNRELAYABLE, ids=[
    "space-before-colon", "obs-fold", "lengths-differ", "short-body",
    "bad-chunk-size", "gzip", "chunks-cut-short", "http-2", "101"])
def test_upstream_reply_that_cannot_be_relayed_is_502_once(workspace, reply):
    def answer(conn, n):
        conn.sendall(reply)
        return False

    with _RawUpstream(answer) as upstream:
        with Gateway(make_config(workspace, upstream.url)) as gw:
            body = json.dumps(tool_call("bad-reply", 10)).encode()
            status, _, data = post(gw, "/v1/execute", body=body)
            records = drained_records(gw)
        assert upstream.bodies == [body]
    assert status == 502
    assert json.loads(data)["error"] == "upstream-unreachable"
    assert [(r.decision, r.note) for r in records] == \
        [("Proven", "upstream-unreachable")]


def test_bytes_after_a_reply_retire_the_upstream_connection(workspace):
    """Bytes the upstream sent after a whole reply were read ahead into the
    connection's reader. They are not the next call's reply: the
    connection is closed and the next call gets a fresh one."""
    def reply_twice(conn, n):
        conn.sendall(UPSTREAM_OK + UPSTREAM_OK.replace(b"true", b"fals"))
        return True

    with _RawUpstream(reply_twice) as upstream:
        with Gateway(make_config(workspace, upstream.url)) as gw:
            replies = [post(gw, "/v1/execute", tool_call(f"extra-{i}", 10))
                       for i in range(3)]
        assert upstream.accepted == 3
    assert [(status, data) for status, _, data in replies] == \
        [(200, b'{"ok": true}')] * 3


def test_forwarded_and_refused_calls_do_not_use_http_client_heads(
        workspace, monkeypatch):
    """Neither the request head nor the upstream's reply head goes through
    http.client.parse_headers, which builds an email.message.Message."""
    def parse_headers(*args, **kwargs):
        raise AssertionError("http.client.parse_headers was called")

    with _RawUpstream(_keep_alive) as upstream:
        with Gateway(make_config(workspace, upstream.url)) as gw:
            monkeypatch.setattr(http.client, "parse_headers", parse_headers)
            bodies = [json.dumps(tool_call(f"np-{volume}", volume)).encode()
                      for volume in (10, 99999)]
            replies = [_exchange(gw, b"POST /v1/execute HTTP/1.1\r\nHost: x"
                                 b"\r\nConnection: close\r\nContent-Length: "
                                 b"%d\r\n\r\n%s" % (len(body), body))
                       for body in bodies]
            records = drained_records(gw)
        assert upstream.bodies == bodies[:1]
    assert replies[0].startswith(b"HTTP/1.1 200 OK\r\n")
    assert replies[0].endswith(b"\r\n\r\n{\"ok\": true}")
    assert replies[1].startswith(b"HTTP/1.1 403 Forbidden\r\n")
    assert [(r.decision, r.enforced) for r in records] == \
        [("Proven", False), ("Refuted", True)]


def test_expect_100_continue_gets_the_interim_reply_first(workspace):
    with StubUpstream() as upstream:
        with Gateway(make_config(workspace, upstream.url)) as gw:
            body = json.dumps(tool_call("expect", 10)).encode()
            reply = _exchange(gw, b"POST /v1/execute HTTP/1.1\r\nHost: x\r\n"
                              b"Expect: 100-continue\r\nConnection: close\r\n"
                              b"Content-Length: %d\r\n\r\n%s"
                              % (len(body), body))
        assert upstream.bodies == [body]
    assert reply.startswith(b"HTTP/1.1 100 Continue\r\n\r\n"
                            b"HTTP/1.1 200 OK\r\nServer: axgate ")
    assert reply.endswith(b"\r\n\r\n{\"ok\": true}")


# Slow and vanishing clients --------------------------------------------------


def test_stalled_body_times_out_with_one_record(workspace, monkeypatch):
    """A client that declares a Content-Length and stops sending gets one
    `read-timeout` record and loses its connection; the slot is free for
    the next client."""
    import axgate.gateway as gateway_module
    from axgate.canonical import ZERO_DIGEST

    monkeypatch.setattr(gateway_module, "_CLIENT_TIMEOUT_SECS", 0.5)
    config = make_config(workspace, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        reply = _exchange(gw, b"POST /v1/execute HTTP/1.1\r\nHost: x\r\n"
                          b"Content-Length: 100\r\n\r\n0123456789", wait=5)
        status, _, _ = post(gw, "/v1/execute", tool_call("next", 99999))
        records = drained_records(gw)
    assert reply.startswith(b"HTTP/1.1 408 ")
    assert status == 403
    assert [(r.decision, r.trace_digest, r.note) for r in records] == [
        ("Refuted", ZERO_DIGEST, "read-timeout"),
        ("Refuted", records[1].trace_digest, None)]
    assert verify_chain(config.audit_log_path).ok


def test_reset_before_the_request_line_is_logged_not_printed(workspace,
                                                              capfd, caplog):
    """A reset while the request line is read used to reach socketserver's
    default handler, which prints a traceback to stderr."""
    import logging

    caplog.set_level(logging.INFO, logger="axgate.gateway")
    config = make_config(workspace, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        for _ in range(3):
            # the pause lets the handler thread block in its read
            _exchange(gw, b"", wait=0.05, reset=True)
        status, _, _ = post(gw, "/v1/execute", tool_call("after", 99999))
    assert status == 403
    assert "Traceback" not in capfd.readouterr().err
    assert any("ConnectionResetError" in r.getMessage()
               for r in caplog.records if r.levelno == logging.INFO)


def test_startup_on_a_torn_audit_log_fails_and_closes_the_listener(
        workspace, monkeypatch):
    import axgate.gateway as gateway_module
    from axgate.audit import AuditStorageError

    servers = []

    class RecordingServer(gateway_module._Server):
        def __init__(self, *args):
            super().__init__(*args)
            servers.append(self)

    monkeypatch.setattr(gateway_module, "_Server", RecordingServer)
    config = make_config(workspace, "http://127.0.0.1:9/none")
    with open(config.audit_log_path, "wb") as fh:
        fh.write(b'{"seq":0,"prev')
    with pytest.raises(AuditStorageError, match="byte 0"):
        Gateway(config)
    assert [server.socket.fileno() for server in servers] == [-1]


# Request framing ----------------------------------------------------------------


def _exchange(gateway, data, wait=3.0, reset=False):
    """The bytes the gateway sends back for `data` on one connection, up
    to its close; None when it keeps the connection open past `wait`. With
    `reset`, the connection is reset `wait` seconds after sending instead,
    and None is returned."""
    import socket
    import struct
    import time

    sock = socket.create_connection(gateway.address, timeout=10)
    try:
        sock.sendall(data)
        if reset:
            time.sleep(wait)
            # linger on, timeout 0: close() sends RST instead of FIN
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            return None
        sock.settimeout(wait)
        received = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:  # closed with bytes left unread
                return received
            except socket.timeout:
                return None
            if not chunk:
                return received
            received += chunk
    finally:
        sock.close()


def _smuggled(path="/v1/execute", request_id="smuggled"):
    """A complete request, sent as the body of a badly framed one."""
    body = json.dumps(tool_call(request_id, 50)).encode()
    return (b"POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: application/json"
            b"\r\nContent-Length: %d\r\n\r\n%s" % (path.encode(), len(body),
                                                   body))


# (framing header lines, status, error): each is refused, and the
# connection closes before its body could be parsed as a request
_BAD_FRAMING = [
    (b"Content-Length: abc", 400, "bad-framing"),
    (b"Content-Length: -1", 400, "bad-framing"),
    (b"Content-Length: +5", 400, "bad-framing"),
    (b"Content-Length: 1_0", 400, "bad-framing"),
    (b"Content-Length: 0x5", 400, "bad-framing"),
    (b"Content-Length: \xb2", 400, "bad-framing"),
    (b"Content-Length: ", 400, "bad-framing"),
    (b"Content-Length: 5\r\nContent-Length: 500", 400, "bad-framing"),
    (b"Content-Length: 5, 6", 400, "bad-framing"),
    (b"Transfer-Encoding: chunked", 501, "unsupported-transfer-encoding"),
    (b"Transfer-Encoding: chunked\r\nContent-Length: 3", 501,
     "unsupported-transfer-encoding"),
    (b"Transfer-Encoding: gzip, chunked", 501,
     "unsupported-transfer-encoding"),
    (b"Transfer-Encoding: gzip", 400, "bad-framing"),
    # a field line that is not `name: value` (RFC 9112 §5.1, §5.2): before,
    # the Content-Length was not seen, and the body was read as a request
    (b"Content-Length : 5", 400, "bad-framing"),
    (b"Content-Length\t: 5", 400, "bad-framing"),
    (b" Content-Length: 5", 400, "bad-framing"),  # an obs-fold of Host
]


@pytest.mark.parametrize("path", ["/v1/execute", "/v1/verify"])
def test_bad_framing_is_refused_once_and_the_body_is_never_a_request(
        workspace, path):
    """`Content-Length: abc` used to read as an empty body on a connection
    left open, so a body that was itself a request got decided, audited
    and forwarded. Each badly framed request now gets one reply and one
    record, and its connection closes."""
    from axgate.canonical import ZERO_DIGEST

    with StubUpstream() as upstream:
        config = make_config(workspace, upstream.url)
        with Gateway(config) as gw:
            for framing, status, error in _BAD_FRAMING:
                reply = _exchange(gw, b"POST %s HTTP/1.1\r\nHost: x\r\n%s"
                                  b"\r\n\r\n%s" % (path.encode(), framing,
                                                   _smuggled(path)))
                assert reply is not None, framing  # the connection closed
                assert reply.startswith(b"HTTP/1.1 %d " % status), framing
                assert reply.count(b"HTTP/1.1 ") == 1, framing
                assert json.loads(reply.split(b"\r\n\r\n", 1)[1]) == \
                    {"error": error}, framing
            records = drained_records(gw)
        assert upstream.bodies == []
    assert [(r.request_id, r.decision, r.trace_digest, r.note)
            for r in records] == [("", "Refuted", ZERO_DIGEST, error)
                                  for _, _, error in _BAD_FRAMING]
    assert verify_chain(config.audit_log_path).ok


def test_repeated_equal_content_lengths_frame_the_body(workspace):
    with StubUpstream() as upstream:
        with Gateway(make_config(workspace, upstream.url)) as gw:
            body = json.dumps(tool_call("twice", 50)).encode()
            for framing in (b"Content-Length: %d\r\nContent-Length: %d",
                            b"Content-Length: %d, %d"):
                head = b"POST /v1/execute HTTP/1.1\r\nHost: x\r\n" + \
                    framing % (len(body), len(body)) + b"\r\n\r\n"
                reply = _exchange(gw, head + body + _smuggled(
                    request_id="next") + b"GET /v1/healthz HTTP/1.1\r\n"
                    b"Host: x\r\nConnection: close\r\n\r\n")
                assert reply is not None
                assert reply.count(b"HTTP/1.1 200 ") == 3
            gw.pump.drain()
        next_body = json.dumps(tool_call("next", 50)).encode()
        assert upstream.bodies == [body, next_body] * 2


def test_an_unread_body_closes_the_connection(workspace):
    """A GET or an unknown POST path reads no body; whatever it declared
    must not be parsed as the next request."""
    with StubUpstream() as upstream:
        config = make_config(workspace, upstream.url)
        with Gateway(config) as gw:
            inner = _smuggled()
            for line in (b"GET /v1/healthz", b"POST /v1/nowhere"):
                reply = _exchange(gw, line + b" HTTP/1.1\r\nHost: x\r\n"
                                  b"Content-Length: %d\r\n\r\n%s"
                                  % (len(inner), inner))
                assert reply is not None and reply.count(b"HTTP/1.1 ") == 1
            gw.pump.drain()
            assert gw.pump.records_written == 0
        assert upstream.bodies == []


def test_a_head_that_cannot_frame_a_body_is_400_on_every_path(workspace):
    """The body declared by `Content-Length : 36` was a second request: it
    got its own 200 reply after the 400."""
    config = make_config(workspace, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        inner = b"GET /v1/policy HTTP/1.1\r\nHost: x\r\n\r\n"
        for line in (b"POST /v1/verify", b"GET /v1/healthz",
                     b"POST /v1/nowhere"):
            reply = _exchange(gw, line + b" HTTP/1.1\r\nHost: x\r\n"
                              b"Content-Length : %d\r\n\r\n%s"
                              % (len(inner), inner))
            assert reply is not None and reply.count(b"HTTP/1.1 ") == 1, line
            assert reply.startswith(b"HTTP/1.1 400 "), line
            assert json.loads(reply.split(b"\r\n\r\n", 1)[1]) == \
                {"error": "bad-framing"}, line
        records = drained_records(gw)
    assert [(r.decision, r.note) for r in records] == \
        [("Refuted", "bad-framing")]


# (request head, the first line of the reply, whether the connection stays
# open): the request-line, head-limit and keep-alive rules of
# BaseHTTPRequestHandler. A version it cannot read gets an HTTP/0.9 reply,
# the error page alone.
_HEADS = [
    (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n",
     b"HTTP/1.1 414 Request-URI Too Long", False),
    (b"BREW /v1/healthz HTTP/1.1\r\n\r\n",
     b"HTTP/1.1 501 Unsupported method ('BREW')", False),
    (b"GET /v1/healthz HTTP/2.0\r\n\r\n",
     b"<p>Error code: 505</p>", False),
    (b"GET /v1/healthz HTTP/1.x\r\n\r\n",
     b"<p>Message: Bad request version ('HTTP/1.x').</p>", False),
    (b"GET /v1/healthz now HTTP/1.1\r\n\r\n",
     b"HTTP/1.1 400 Bad request syntax ('GET /v1/healthz now HTTP/1.1')",
     False),
    (b"GET /v1/healthz HTTP/1.1\r\nX: " + b"a" * 65536 + b"\r\n\r\n",
     b"HTTP/1.1 431 Line too long", False),
    (b"GET /v1/healthz HTTP/1.1\r\n" + b"X: a\r\n" * 100 + b"\r\n",
     b"HTTP/1.1 431 Too many headers", False),
    (b"GET /v1/healthz HTTP/1.1\r\n" + b"X: a\r\n" * 98
     + b"Connection: close\r\n\r\n", b"HTTP/1.1 200 OK", False),
    (b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
     b"HTTP/1.1 200 OK", False),
    (b"GET /v1/healthz HTTP/1.0\r\n\r\n", b"HTTP/1.1 200 OK", False),
    (b"GET /v1/healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
     b"HTTP/1.1 200 OK", True),
]


@pytest.mark.parametrize("head, first_line, stays_open", _HEADS, ids=[
    "uri-too-long", "unknown-method", "http-2", "bad-version", "four-words",
    "field-too-long", "100-fields", "99-fields", "close", "http-1.0",
    "http-1.0-keep-alive"])
def test_request_lines_and_head_limits_get_the_stdlib_replies(
        workspace, head, first_line, stays_open):
    with Gateway(make_config(workspace, "http://127.0.0.1:9/none")) as gw:
        reply = _exchange(gw, head, wait=1.0)
        if stays_open:
            assert reply is None
            reply = _exchange(gw, head.replace(b"\r\n", b"\r\nConnection: "
                                               b"close\r\n", 1))
    assert first_line in reply.partition(b"\r\n")[0]


def test_reload_with_bad_framing_is_400_and_publishes_nothing(workspace):
    (workspace / "other.pol").write_text(
        POLICY + "\naxiom extra permit transfer when volume >= 0\n",
        encoding="utf-8")
    config = make_config(workspace, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        original = gw.snapshot.env.version_digest
        inner_body = json.dumps({"path": str(workspace / "other.pol")})
        inner = (b"POST /v1/policy/reload HTTP/1.1\r\nHost: x\r\n"
                 b"Content-Length: %d\r\n\r\n%s"
                 % (len(inner_body), inner_body.encode()))
        for framing, status, error in _BAD_FRAMING:
            reply = _exchange(gw, b"POST /v1/policy/reload HTTP/1.1\r\n"
                              b"Host: x\r\n%s\r\n\r\n%s" % (framing, inner))
            assert reply is not None and reply.count(b"HTTP/1.1 ") == 1
            assert reply.startswith(b"HTTP/1.1 %d " % status), framing
            assert gw.snapshot.env.version_digest == original, framing
        gw.pump.drain()
        assert gw.pump.records_written == 0


def test_tool_that_is_not_valid_unicode_is_400_and_keeps_the_pump(workspace):
    """A JSON escape can spell a lone surrogate in valid UTF-8. Before,
    verify() raised writing the trace, the 500's record with that tool
    killed the audit pump's thread, and /v1/healthz still said ok."""
    config = make_config(workspace, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        status, _, data = post(
            gw, "/v1/verify",
            body=b'{"request_id":"a","tool":"\\ud800","params":{}}')
        assert (status, json.loads(data)) == (400, {"error": "malformed-tool"})
        status, _, _ = post(gw, "/v1/verify", tool_call("b", 10))
        assert status == 200
        gw.pump.drain()
        assert gw.pump._thread.is_alive() and not gw.pump.degraded
        assert request(gw.address, "GET", "/v1/healthz")[0] == 200
        records = list(iter_records(config.audit_log_path))
    assert [(r.request_id, r.tool, r.decision, r.note) for r in records] == [
        ("", "", "Refuted", "malformed-tool"),
        ("b", "execute_trade", "Proven", None)]


@pytest.mark.parametrize("volume", ["1e4296", "1e4300", "1e-4300", 10**4299,
                                    "9" * 4300 + "/2"],
                         ids=["1e4296", "1e4300", "1e-4300", "10**4299",
                              "4300-digit-half"])
def test_values_too_large_to_write_are_refused_not_500(tmp_path, caplog,
                                                      volume):
    """Under the shipped policy each of these volumes, or the trade value
    derived from it, has more digits than Python writes as a string. Before,
    each call was a 500 `internal-error` with a logged traceback. The last
    volume binds, but its decimal form in the notice would need 4,301
    digits, so the notice shows it as unavailable."""
    import logging
    import pathlib

    caplog.set_level(logging.INFO, logger="axgate")
    shipped = pathlib.Path("src/axgate/policies/sec15c3_5.pol").read_text(
        encoding="utf-8")
    config = gateway_config(tmp_path, shipped, {
        "share_price": {"minor": 20000, "ccy": "USD"},
        "daily_capital": {"minor": 5_000_000_000, "ccy": "USD"},
        "max_order_size": 100000}, "http://127.0.0.1:9/none")
    with Gateway(config) as gw:
        status, _, data = post(gw, "/v1/verify", tool_call("big", volume))
        records = drained_records(gw)
    doc = json.loads(data)
    assert (status, doc["decision"]) == (200, "Refuted")
    assert [(r.request_id, r.decision, r.note) for r in records] == \
        [("big", "Refuted", None)]
    assert not [r for r in caplog.records if r.exc_info]
    if volume == "9" * 4300 + "/2":
        assert doc["notice"]["lines"][0].startswith(
            "Decision refused: the policy check could not be completed.")
        assert "Order volume <Order volume (shares): unavailable> exceeds" \
            in doc["notice"]["lines"][1]


# Strict upstream framing -------------------------------------------------------


@pytest.mark.parametrize("reply", [
    _CHUNKED.replace(b"5\r\nhello", b"+5\r\nhello"),
    _CHUNKED.replace(b"5\r\nhello", b"0x5\r\nhello"),
    _CHUNKED.replace(b"5\r\nhello", b" 5 \r\nhello"),
    UPSTREAM_OK.replace(b"200", b"2_00"),
    UPSTREAM_OK.replace(b"200", b"+200"),
    UPSTREAM_OK.replace(b"200", b"0200"),
], ids=["chunk-size-+5", "chunk-size-0x5", "chunk-size-spaces", "status-2_00",
        "status-+200", "status-0200"])
def test_upstream_numbers_that_are_not_strict_digits_are_502_once(
        workspace, reply):
    """`int()` read these chunk sizes and status codes, so each reply was
    relayed as a 200."""
    def answer(conn, n):
        conn.sendall(reply)
        return True

    with _RawUpstream(answer) as upstream:
        with Gateway(make_config(workspace, upstream.url)) as gw:
            status, _, data = post(gw, "/v1/execute", tool_call("strict", 10))
            records = drained_records(gw)
        assert len(upstream.bodies) == 1
    assert (status, json.loads(data)["error"]) == (502, "upstream-unreachable")
    assert [(r.decision, r.note) for r in records] == \
        [("Proven", "upstream-unreachable")]


@pytest.mark.parametrize("reply", [
    _CHUNKED.replace(b"chunked\r\n", b"chunked\r\nContent-Length: 5\r\n"),
    _CHUNKED.replace(b"HTTP/1.1", b"HTTP/1.0").replace(
        b"chunked\r\n", b"chunked\r\nConnection: keep-alive\r\n"),
], ids=["transfer-encoding-and-content-length", "http-1.0-chunked"])
def test_suspect_upstream_framing_retires_the_connection(workspace, reply):
    """RFC 9112 §6.1 and §6.3: such a reply is relayed, and its connection
    is closed after it; both were kept for the next forward."""
    def answer(conn, n):
        conn.sendall(reply)
        return True

    with _RawUpstream(answer) as upstream:
        with Gateway(make_config(workspace, upstream.url)) as gw:
            replies = [post(gw, "/v1/execute", tool_call(f"te-{i}", 10))
                       for i in range(3)]
        assert upstream.accepted == 3
    assert [(status, data) for status, _, data in replies] == \
        [(200, b"hello, world")] * 3


# One deadline per request ---------------------------------------------------------


def test_a_trickled_body_gets_408_at_the_request_deadline(workspace,
                                                          monkeypatch):
    """One byte every 0.3 s kept each read under the 0.5 s timeout, so the
    request was answered 200 after about 20 s. The deadline bounds the
    whole request: 408, one record, and a close."""
    import select
    import socket
    import time

    import axgate.gateway as gateway_module
    from axgate.canonical import ZERO_DIGEST

    monkeypatch.setattr(gateway_module, "_CLIENT_TIMEOUT_SECS", 0.5)
    body = json.dumps(tool_call("t", 1)).encode()
    with Gateway(make_config(workspace, "http://127.0.0.1:9/none")) as gw:
        with socket.create_connection(gw.address, timeout=10) as sock:
            start = time.monotonic()
            sock.sendall(b"POST /v1/verify HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body))
            for byte in body:
                if select.select([sock], [], [], 0.3)[0] \
                        or time.monotonic() - start > 3:
                    break
                sock.sendall(bytes([byte]))
            answered = time.monotonic() - start
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        records = drained_records(gw)
    assert len(body) == 69
    assert reply.startswith(b"HTTP/1.1 408 ")
    assert answered < 2.0, answered
    assert [(r.decision, r.trace_digest, r.note) for r in records] == \
        [("Refuted", ZERO_DIGEST, "read-timeout")]


def test_a_body_cut_short_by_the_client_is_400_with_one_record(workspace):
    """The client half-closes one byte short of its Content-Length. The
    short body was decided as if whole; it is now refused."""
    import socket

    body = json.dumps(tool_call("cut", 10)).encode()
    with Gateway(make_config(workspace, "http://127.0.0.1:9/none")) as gw:
        with socket.create_connection(gw.address, timeout=10) as sock:
            sock.sendall(b"POST /v1/verify HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: %d\r\n\r\n%s" % (len(body) + 1, body))
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        records = drained_records(gw)
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert json.loads(reply.split(b"\r\n\r\n", 1)[1]) == \
        {"error": "incomplete-body"}
    assert [(r.request_id, r.decision, r.note) for r in records] == \
        [("", "Refuted", "incomplete-body")]


def test_a_reset_inside_a_body_is_refused_with_one_record(workspace):
    """The client sends a head, 13 of its 100 body bytes, then a reset.
    Before, the reset left read_body as an exception: the call was counted
    but got no record. It is now refused as a close inside a body is."""
    import socket
    import struct
    import time

    with Gateway(make_config(workspace, "http://127.0.0.1:9/none")) as gw:
        sock = socket.create_connection(gw.address, timeout=10)
        try:
            sock.sendall(b"POST /v1/verify HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 100\r\n\r\n" + b'{"request_id"')
            deadline = time.monotonic() + 10
            while gw.requests_received < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gw.requests_received == 1
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
        finally:
            sock.close()
        deadline = time.monotonic() + 10
        while gw.pump.records_written < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        records = drained_records(gw)
        assert gw.requests_received == len(records)
    assert [(r.request_id, r.decision, r.note) for r in records] == \
        [("", "Refuted", "incomplete-body")]
