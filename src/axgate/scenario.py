"""Scripted scenario replay, in-process or through a live gateway.

Scenario files are flat sectioned text: one `key = value` per line, values
in JSON where structure is needed, and `#` only at the start of a line:

    name = knight_burst
    # relative to this file
    policy = ../policies/sec15c3_5.pol
    # initial facts, wire format
    [state]
    daily_capital = {"minor": 5000000000, "ccy": "USD"}
    # one block per step: 1000 requests, then state_after is applied once
    [step]
    tool = execute_trade
    expect = Refuted
    repeat = 1000
    params = {"volume": 99999}
    state_after = {"max_order_size": 500}

Replay compares actual against expected decisions step by step; in gateway
mode it also runs a stub upstream and asserts the forwarding contract
(enforce: refuted requests never reach upstream; shadow: every well-formed
request arrives byte-identically).

This module is also the harness for a live gateway, shared by replay and the
tests: `StubUpstream`, the client `request` and the config builder
`gateway_config`.
"""

from __future__ import annotations

import http.client
import json
import os
import tempfile
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping

from .audit import iter_records
from .compiler import PolicyEnvironment, compile_source
from .gateway import SERVE_POLL_SECS, Gateway, GatewayConfig, coerce_facts
from .kernel import ActionRequest, SystemState, verify


class ScenarioError(ValueError):
    """Malformed scenario file or a step violating scenario invariants."""


@dataclass(frozen=True)
class Step:
    tool: str
    expect: str
    params: dict
    repeat: int = 1
    request_id: str | None = None
    state_after: dict | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    policy_source: str
    initial_state: dict
    steps: tuple[Step, ...]

    def compile_env(self) -> PolicyEnvironment:
        result = compile_source(self.policy_source)
        if result.environment is None:
            raise ScenarioError(
                "scenario policy does not compile:\n"
                + "\n".join(d.render() for d in result.diagnostics)
            )
        return result.environment


def _parse_json_value(key: str, raw: str, lineno: int):
    try:
        return json.loads(raw)
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: bad JSON for {key!r}: {exc}") from exc


def parse_scenario(text: str, base_dir: str = ".") -> Scenario:
    name = ""
    policy_source: str | None = None
    initial_state: dict = {}
    steps: list[Step] = []
    section: str | None = None
    current: dict | None = None

    def flush_step() -> None:
        nonlocal current
        if current is None:
            return
        if "tool" not in current or "expect" not in current:
            raise ScenarioError("each [step] needs 'tool' and 'expect'")
        if current["expect"] not in ("Proven", "Refuted"):
            raise ScenarioError(f"bad expect value: {current['expect']!r}")
        steps.append(Step(
            tool=current["tool"],
            expect=current["expect"],
            params=current.get("params", {}),
            repeat=int(current.get("repeat", 1)),
            request_id=current.get("request_id"),
            state_after=current.get("state_after"),
        ))
        current = None

    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[state]":
            flush_step()
            section = "state"
            continue
        if line == "[step]":
            flush_step()
            section = "step"
            current = {}
            continue
        if line.startswith("["):
            raise ScenarioError(f"line {lineno}: unknown section {line!r}")
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()

        if section is None:
            if key == "name":
                name = raw
            elif key == "policy":
                path = os.path.join(base_dir, raw)
                with open(path, encoding="utf-8") as fh:
                    policy_source = fh.read()
            elif key == "policy_text":
                policy_source = raw.replace("\\n", "\n")
            else:
                raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        elif section == "state":
            initial_state[key] = _parse_json_value(key, raw, lineno)
        else:
            assert current is not None
            if key in ("params", "state_after"):
                value = _parse_json_value(key, raw, lineno)
                if not isinstance(value, dict):
                    raise ScenarioError(f"line {lineno}: {key!r} must be an object")
                current[key] = value
            elif key == "repeat":
                current[key] = int(raw)
            elif key in ("tool", "expect", "request_id"):
                current[key] = raw
            else:
                raise ScenarioError(f"line {lineno}: unknown step key {key!r}")

    flush_step()
    if policy_source is None:
        raise ScenarioError("scenario needs a 'policy' or 'policy_text' line")
    if not name:
        raise ScenarioError("scenario needs a 'name' line")
    scenario = Scenario(name, policy_source, initial_state, tuple(steps))
    _validate_mutations(scenario)
    return scenario


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read(), base_dir=os.path.dirname(path) or ".")


def _validate_mutations(scenario: Scenario) -> None:
    env = scenario.compile_env()
    state_symbols = {
        d.symbol for d in env.registry if d.origin == "state"
    }
    for i, step in enumerate(scenario.steps):
        if step.state_after:
            rogue = set(step.state_after) - state_symbols
            if rogue:
                raise ScenarioError(
                    f"step {i}: state_after touches non-state symbols: "
                    f"{sorted(rogue)}"
                )


# Stub upstream ----------------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        pass

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length) if length else b""
        self.server.record(body)  # type: ignore[attr-defined]
        reply = b'{"ok": true}'
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)


class _StubServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 128


class StubUpstream:
    """Execution endpoint double: records every body it receives."""

    def __init__(self) -> None:
        self._server = _StubServer(("127.0.0.1", 0), _StubHandler)
        self._lock = threading.Lock()
        self.bodies: list[bytes] = []
        self._server.record = self._record  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(SERVE_POLL_SECS,),
            daemon=True,
        )

    def _record(self, body: bytes) -> None:
        with self._lock:
            self.bodies.append(body)

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/execute"

    def start(self) -> "StubUpstream":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()

    def __enter__(self) -> "StubUpstream":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# Client and config ------------------------------------------------------------


def request(address: tuple[str, int], method: str, path: str,
            body: bytes | None = None,
            headers: Mapping[str, str] | None = None,
            timeout: float = 10.0) -> tuple[int, dict[str, str], bytes]:
    """One request on a fresh connection to `address`, closed after the
    reply: (status, headers, body). `headers` defaults to a JSON content
    type."""
    if headers is None:
        headers = {"Content-Type": "application/json"}
    conn = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=dict(headers))
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def gateway_config(workdir, policy_source: str, facts: Mapping[str, object],
                   upstream_url: str, **overrides) -> GatewayConfig:
    """Write `policy.pol` and the state file `state.json`, `{"facts": ...}`,
    into `workdir`, and return the config of a gateway that reads them and
    logs to `audit.log` there. It listens on a free loopback port, polls no
    state (callers refresh it) and skips fsync; `overrides` set any field."""
    policy_path = os.path.join(workdir, "policy.pol")
    with open(policy_path, "w", encoding="utf-8") as fh:
        fh.write(policy_source)
    state_path = os.path.join(workdir, "state.json")
    _write_state(state_path, facts)
    fields = dict(
        listen_address="127.0.0.1:0",
        upstream_url=upstream_url,
        policy_path=policy_path,
        state_path=state_path,
        state_refresh_secs=0,
        audit_log_path=os.path.join(workdir, "audit.log"),
        audit_fsync=False,
    )
    fields.update(overrides)
    return GatewayConfig(**fields)


def _write_state(path: str, facts: Mapping[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"facts": dict(facts)}, fh)


# Replay -----------------------------------------------------------------------


@dataclass(frozen=True)
class StepResult:
    index: int
    request_id: str
    tool: str
    expected: str
    actual: str
    ok: bool


@dataclass(frozen=True)
class ReplayReport:
    scenario: str
    mode: str
    gateway_mode: str | None
    steps: tuple[StepResult, ...]
    upstream_hits: int | None = None
    upstream_bytes_ok: bool | None = None
    audited: tuple[tuple[str, int], ...] | None = None

    @property
    def passed(self) -> int:
        return sum(1 for s in self.steps if s.ok)

    @property
    def failed(self) -> int:
        return len(self.steps) - self.passed

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.upstream_bytes_ok is not False

    def first_mismatch(self) -> StepResult | None:
        for step in self.steps:
            if not step.ok:
                return step
        return None

    def render(self) -> str:
        lines = [f"scenario {self.scenario} mode={self.mode}"
                 + (f" gateway_mode={self.gateway_mode}" if self.gateway_mode else "")]
        for step in self.steps:
            mark = "pass" if step.ok else "FAIL"
            lines.append(
                f"  [{mark}] step {step.index} {step.request_id} "
                f"{step.tool}: expected {step.expected}, got {step.actual}"
            )
        lines.append(f"  steps: {len(self.steps)}  passed: {self.passed}  "
                     f"failed: {self.failed}")
        if self.upstream_hits is not None:
            lines.append(f"  upstream requests: {self.upstream_hits}"
                         + ("" if self.upstream_bytes_ok is None else
                            f"  byte-identical: {self.upstream_bytes_ok}"))
        if self.audited is not None:
            audit = ", ".join(f"{k}={v}" for k, v in self.audited)
            lines.append(f"  audited: {audit}")
        return "\n".join(lines) + "\n"


def _expand(scenario: Scenario):
    index = 0
    for block_no, step in enumerate(scenario.steps):
        for rep in range(step.repeat):
            rid = step.request_id or f"{scenario.name}-{block_no}-{rep}"
            if step.request_id and step.repeat > 1:
                rid = f"{step.request_id}-{rep}"
            last = rep == step.repeat - 1
            yield index, rid, step, (step.state_after if last else None)
            index += 1


def replay_kernel(scenario: Scenario) -> ReplayReport:
    env = scenario.compile_env()
    facts = coerce_facts(scenario.initial_state, env, "state")
    results: list[StepResult] = []
    for index, rid, step, mutation in _expand(scenario):
        params = coerce_facts(step.params, env, "request")
        request = ActionRequest(rid, step.tool, params)
        actual = verify(request, SystemState(facts), env).decision
        results.append(StepResult(index, rid, step.tool, step.expect, actual,
                                  actual == step.expect))
        if mutation:
            facts = dict(facts)
            facts.update(coerce_facts(mutation, env, "state"))
    return ReplayReport(scenario.name, "kernel", None, tuple(results))


def replay_gateway(scenario: Scenario, gateway_mode: str = "enforce") -> ReplayReport:
    results: list[StepResult] = []
    sent: list[bytes] = []
    state_doc = dict(scenario.initial_state)
    with tempfile.TemporaryDirectory(prefix="axgate-replay-") as tmp, \
            StubUpstream() as upstream:
        config = gateway_config(tmp, scenario.policy_source, state_doc,
                                upstream.url, mode=gateway_mode)
        with Gateway(config) as gateway:
            for index, rid, step, mutation in _expand(scenario):
                sent.append(json.dumps({
                    "request_id": rid, "tool": step.tool,
                    "params": step.params,
                }).encode("utf-8"))
                actual = _decision(*request(gateway.address, "POST",
                                            "/v1/execute", sent[-1]))
                results.append(StepResult(
                    index, rid, step.tool, step.expect, actual,
                    actual == step.expect,
                ))
                if mutation:
                    state_doc.update(mutation)
                    _write_state(config.state_path, state_doc)
                    gateway.refresh_state()
            gateway.pump.drain()
            audited: dict[str, int] = {}
            for record in iter_records(config.audit_log_path):
                audited[record.decision] = audited.get(record.decision, 0) + 1

    # enforce forwards only Proven calls; shadow forwards every call
    forwarded = sent if gateway_mode == "shadow" else [
        body for body, r in zip(sent, results) if r.actual == "Proven"]
    return ReplayReport(
        scenario.name, "gateway", gateway_mode, tuple(results),
        upstream_hits=len(upstream.bodies),
        upstream_bytes_ok=upstream.bodies == forwarded,
        audited=tuple(sorted(audited.items())),
    )


def _decision(status: int, headers: dict[str, str], body: bytes) -> str:
    """The decision a gateway reply carries, or `http-<status>`."""
    if "X-Axgate-Decision" in headers:
        return headers["X-Axgate-Decision"]
    try:
        return json.loads(body).get("decision", f"http-{status}")
    except ValueError:
        return f"http-{status}"


def replay(scenario: Scenario, mode: str = "kernel",
           gateway_mode: str = "enforce") -> ReplayReport:
    if mode == "kernel":
        return replay_kernel(scenario)
    if mode == "gateway":
        return replay_gateway(scenario, gateway_mode)
    raise ScenarioError(f"unknown replay mode: {mode!r}")
