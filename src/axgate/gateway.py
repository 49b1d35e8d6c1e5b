"""The Orchestrator: an HTTP gateway that intercepts agent tool calls.

Every POST /v1/execute is parsed, sanitized against the concept registry,
verified against the currently published policy snapshot, and then either
forwarded to the single upstream execution endpoint (Proven, or always in
shadow mode) or blocked with an adverse-action notice (Refuted in enforce
mode). Exactly one audit record is written per received request, whatever
the outcome.

Concurrency model: handler threads share one immutable Snapshot (policy
environment + typed state) published by atomic reference swap; policy
reloads and state refreshes build a fresh snapshot off the hot path and
swap it in, so no request ever sees a half-updated policy. All audit
records flow through one bounded queue with a single consumer thread that
owns the log file; producers block when the queue is full. Forwards share
a LIFO of idle keep-alive connections to the upstream.
"""

from __future__ import annotations

import html
import http.client
import json
import logging
import math
import os
import select
import socket
import socketserver
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from email.utils import formatdate
from http import HTTPStatus
from http.server import DEFAULT_ERROR_CONTENT_TYPE, DEFAULT_ERROR_MESSAGE
from typing import Mapping
from urllib.parse import urlsplit

from . import http1
from .audit import AuditEvent, AuditPump
from .canonical import ZERO_DIGEST, encodable
from .compiler import PolicyEnvironment, compile_file
from .diagnostics import Diagnostic
from .kernel import REFUTED, ActionRequest, SystemState, verify
from .notices import notice_to_plain, render_notice
from .values import WireValueError, value_from_wire

logger = logging.getLogger("axgate.gateway")

MODES = ("shadow", "enforce")

# Seconds a connection may wait for a request's first byte, and a reply
# write may take. From that byte to the request's last body byte, the same
# span is one deadline: a client that stalls or trickles cannot hold a
# thread for longer.
_CLIENT_TIMEOUT_SECS = 30.0

# How often the accept loop checks for stop(), which waits out one poll.
# socketserver's default of 0.5 s made every stop() take half a second.
SERVE_POLL_SECS = 0.05

# Linux only. Where it is missing, forwards use a fresh upstream connection
# each: a reused one would wait on the upstream's delayed ACKs.
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


class GatewayStartupError(RuntimeError):
    """Configuration or policy problems that must fail fast at startup."""

    def __init__(self, message: str, diagnostics: list[Diagnostic] | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


@dataclass
class GatewayConfig:
    listen_address: str = "127.0.0.1:0"
    upstream_url: str = ""
    mode: str = "enforce"
    policy_path: str = ""
    state_path: str = ""
    state_refresh_secs: float = 2.0
    audit_log_path: str = "audit.log"
    max_in_flight: int = 64
    max_body_bytes: int = 1 << 20
    audit_fsync: bool = True
    upstream_timeout_secs: float = 5.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise GatewayStartupError(f"mode must be one of {MODES}: {self.mode!r}")
        if self.max_in_flight < 1:
            raise GatewayStartupError("max_in_flight must be >= 1")
        if self.max_body_bytes < 1:
            raise GatewayStartupError("max_body_bytes must be >= 1")
        if not 0 < self.upstream_timeout_secs < math.inf:
            raise GatewayStartupError("upstream_timeout_secs must be finite and > 0")
        if not 0 <= self.state_refresh_secs < math.inf:
            raise GatewayStartupError("state_refresh_secs must be finite and >= 0")


# GatewayConfig's annotations are strings (see the __future__ import). A bool
# takes only these spellings, so a typo cannot silently turn audit_fsync off.
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}
_CONVERTERS = {"str": str, "int": int, "float": float,
               "bool": lambda raw: _BOOLEANS[raw.strip().lower()]}


def load_config(path: str, env: Mapping[str, str] | None = None) -> GatewayConfig:
    """Flat `key = value` config file; AXGATE_<KEY> env vars override."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise GatewayStartupError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            key, _, raw = line.partition("=")
            values[key.strip()] = raw.strip()
    overrides = env if env is not None else os.environ
    for key in list(GatewayConfig.__dataclass_fields__):
        env_key = "AXGATE_" + key.upper()
        if env_key in overrides:
            values[key] = overrides[env_key]

    kwargs: dict[str, object] = {}
    for key, raw in values.items():
        field_ = GatewayConfig.__dataclass_fields__.get(key)
        if field_ is None:
            raise GatewayStartupError(f"unknown config key: {key!r}")
        try:
            kwargs[key] = _CONVERTERS[field_.type](raw)
        except (KeyError, ValueError):
            raise GatewayStartupError(
                f"config key {key!r}: not a valid {field_.type}: {raw!r}"
            ) from None
    return GatewayConfig(**kwargs)


# Snapshots --------------------------------------------------------------------


@dataclass(frozen=True)
class Snapshot:
    """One immutable (policy, typed state) pair shared by handler threads."""

    env: PolicyEnvironment
    state: SystemState


def coerce_facts(raw: Mapping[str, object], env: PolicyEnvironment,
                 origin: str) -> dict[str, object]:
    """Sanitize a wire document: only registered symbols of the given origin
    are coerced and kept; everything else is stripped. Values that cannot be
    read as their declared kind pass through raw, where the kernel's kind
    check turns them into a fail-closed refusal."""
    out: dict[str, object] = {}
    for decl in env.registry:
        if decl.origin != origin or decl.symbol not in raw:
            continue
        value = raw[decl.symbol]
        try:
            out[decl.symbol] = value_from_wire(value, decl.kind)
        except WireValueError:
            out[decl.symbol] = value
    return out


def load_state_file(path: str, env: PolicyEnvironment) -> SystemState:
    """Read the fact source, `{"facts": {...}}`; a file that cannot be read
    or parsed, or any other document, yields the unreadable marker."""
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read().decode("utf-8"))
    except (OSError, ValueError, UnicodeDecodeError):
        return SystemState(None)
    if not isinstance(doc, dict) or not isinstance(doc.get("facts"), dict):
        return SystemState(None)
    return SystemState(coerce_facts(doc["facts"], env, "state"),
                       as_of=time.time_ns())


# HTTP plumbing ------------------------------------------------------------------


_REASONS = {status.value: status.phrase for status in HTTPStatus}
_SERVER = "axgate Python/" + sys.version.split()[0]


class _Handler(socketserver.BaseRequestHandler):
    """One client connection: receive, feed the request reader, act on its
    events, send. Each reply keeps the bytes `http.server` wrote."""

    def setup(self) -> None:
        # A 100 Continue and the reply after it are two writes; with Nagle
        # on, the second would wait for the client's delayed ACK (~40 ms).
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        self.gateway: Gateway = self.server.gateway  # type: ignore
        self.reader = http1.RequestReader(self.gateway.config.max_body_bytes)
        self.events: deque = deque()
        self.close_connection = False

    def handle(self) -> None:
        try:
            while not self.close_connection:
                self.deadline = None
                head = self._next_event()
                if not isinstance(head, http1.Head):  # the end, or a bad head
                    if head is not None and head.status:
                        self._send_page(head.status, head.error,
                                        head.explain, head.bare)
                    return
                self._serve(head)
        except (ConnectionResetError, BrokenPipeError, TimeoutError) as exc:
            # A client that resets, hangs up or stalls is routine.
            logger.info("client %s dropped: %r", self.client_address[0], exc)
        except Exception:
            logger.exception("error serving client %s", self.client_address[0])

    def _serve(self, head: http1.Head) -> None:
        self.head, self.close_connection = head, head.close
        if head.expect_continue:
            self.request.sendall(http1.write_head("HTTP/1.1 100 Continue", ()))
        route = head.method, head.target
        if route in (("POST", "/v1/execute"), ("POST", "/v1/verify")):
            self.gateway.handle_tool_call(
                self, forward=head.target == "/v1/execute")
        elif route == ("POST", "/v1/policy/reload"):
            self._handle_reload()
        elif head.method not in ("GET", "POST"):
            self._send_page(501, "Unsupported method (%r)" % head.method,
                            with_page=head.method != "HEAD")
        else:
            # No body is read here: a declared one must not be parsed as the
            # next request, and one that cannot be framed is a 400.
            self.close_connection |= head.declares_body
            if head.malformed:
                self._send_json(400, {"error": "bad-framing"})
            elif route == ("GET", "/v1/healthz"):
                doc = self.gateway.health_doc()
                self._send_json(200 if doc["status"] == "ok" else 503, doc)
            elif route == ("GET", "/v1/policy"):
                self._send_json(200, self.gateway.policy_doc())
            else:
                self._send_json(404, {"error": "not-found"})

    def _next_event(self):
        """The reader's next event; None when the stream ends first. Before
        a request's first byte one read waits up to _CLIENT_TIMEOUT_SECS;
        from that byte to its last body byte, the same span is a deadline
        for the whole request. Past either, raises TimeoutError."""
        while not self.events:
            if self.deadline is None and self.reader.buffer:
                self.deadline = time.monotonic() + _CLIENT_TIMEOUT_SECS
            timeout = _CLIENT_TIMEOUT_SECS if self.deadline is None \
                else self.deadline - time.monotonic()
            if timeout <= 0:
                raise TimeoutError("request deadline passed")
            self.request.settimeout(timeout)
            data = self.request.recv(65536)
            if self.deadline is None:
                self.deadline = time.monotonic() + _CLIENT_TIMEOUT_SECS
            self.events.extend(self.reader.feed(data))
            if not data:
                break
        return self.events.popleft() if self.events else None

    def read_body(self) -> bytes | http1.Refusal:
        """The request body, or its Refusal. After one that closes, the 408
        of a request past its deadline among them, the bytes left on the
        connection must never be read as a request."""
        if not self.head.declares_body:
            return b""
        try:
            event = self._next_event()
        except TimeoutError:
            event = http1.Refusal(408, "read-timeout", True)
        except OSError:  # a reset inside the body, as a close there
            event = http1.Refusal(400, "incomplete-body", True)
        if isinstance(event, http1.Refusal):
            self.close_connection |= event.close
        return event

    def _send_json(self, status: int, doc: dict) -> None:
        self._send_raw(status, json.dumps(doc).encode("utf-8"),
                       "application/json", {})

    def _send_raw(self, status: int, body: bytes, content_type: str,
                  headers: dict[str, str]) -> None:
        """The reply in one write: `Server`, `Date`, `Content-Type`,
        `Content-Length`, then `headers`, then the body."""
        self._send(status, _REASONS.get(status, ""), body, [
            ("Content-Type", content_type or "application/octet-stream"),
            ("Content-Length", str(len(body))), *headers.items()],
            self.head.version == "HTTP/0.9")

    def _send_page(self, status: int, message: str, explain: str | None = None,
                   bare: bool = False, with_page: bool = True) -> None:
        """The error page `http.server`'s send_error writes; the connection
        closes after it."""
        self.close_connection = True
        page = (DEFAULT_ERROR_MESSAGE % {
            "code": status, "message": html.escape(message, quote=False),
            "explain": html.escape(explain or HTTPStatus(status).description,
                                   quote=False)}).encode("utf-8", "replace")
        self._send(status, message, page if with_page else b"", [
            ("Connection", "close"), ("Content-Type", DEFAULT_ERROR_CONTENT_TYPE),
            ("Content-Length", str(len(page)))], bare)

    def _send(self, status: int, reason: str, body: bytes, fields: list,
              bare: bool) -> None:
        """`body` behind a head of `Server`, `Date` and `fields`, in one
        write; the reply to an HTTP/0.9 request (`bare`) is the body alone."""
        if not bare:
            body = http1.write_head("HTTP/1.1 %d %s" % (status, reason), [
                ("Server", _SERVER), ("Date", formatdate(usegmt=True)),
                *fields]) + body
        self.request.settimeout(_CLIENT_TIMEOUT_SECS)
        try:
            self.request.sendall(body)
        except OSError:
            # The client reset or closed the connection. The request was
            # already decided and audited; a lost reply is not a new decision.
            self.close_connection = True
            logger.info("client %s went away before the %d response",
                        self.client_address[0], status)

    def _handle_reload(self) -> None:
        """Reload the configured policy file; the body must be empty. The
        published snapshot changes only on a 200."""
        raw = self.read_body()
        if isinstance(raw, http1.Refusal):
            self._send_json(raw.status, {"error": raw.error})
        elif raw:
            self._send_json(400, {"error": "malformed-body"})
        else:
            try:
                outcome = self.gateway.reload_policy()
            except OSError as exc:
                self._send_json(422, {"error": "policy-unreadable",
                                      "diagnostics": [f"cannot read: {exc}"]})
                return
            if isinstance(outcome, str):
                self._send_json(200, {"env_version": outcome})
            else:
                self._send_json(
                    422, {"diagnostics": [d.render() for d in outcome]})


class _Server(socketserver.ThreadingTCPServer):
    # Handler threads are not daemons and are joined at close, so shutdown
    # drains the requests in flight.
    allow_reuse_address = True
    request_queue_size = 128  # default backlog of 5 drops bursts of connects

    def __init__(self, address, gateway: "Gateway"):
        super().__init__(address, _Handler)
        self.gateway = gateway


# The gateway -------------------------------------------------------------------


class Gateway:
    """Owns the published snapshot, the audit pump, and the HTTP server."""

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        self._upstream = _upstream_target(config.upstream_url)
        result = compile_file(config.policy_path)
        if result.environment is None:
            raise GatewayStartupError("policy failed to compile",
                                      result.diagnostics)
        environment = result.environment
        state = self._load_state(environment)
        if state.facts is None and config.state_path:
            raise GatewayStartupError(
                f"state source unreadable at startup: {config.state_path}"
            )
        self._snapshot = Snapshot(environment, state)
        self._snapshot_lock = threading.Lock()  # serializes rebuilds only

        # Bind the socket before starting the audit consumer so a failed
        # bind cannot leak the pump thread.
        host, _, port = config.listen_address.rpartition(":")
        self._server = _Server((host or "127.0.0.1", int(port or 0)), self)
        try:
            self.pump = AuditPump(config.audit_log_path,
                                  fsync=config.audit_fsync)
        except BaseException:
            self._server.server_close()
            raise
        # Idle keep-alive connections to the upstream, most recently used
        # last. It never holds more than the peak of concurrent forwards.
        self._upstream_idle: list[http.client.HTTPConnection] = []
        self._upstream_lock = threading.Lock()
        self._inflight = threading.BoundedSemaphore(config.max_in_flight)
        self.requests_received = 0
        self._count_lock = threading.Lock()
        self._serve_thread: threading.Thread | None = None
        self._poll_stop = threading.Event()
        self._poll_thread: threading.Thread | None = None

    # Lifecycle ------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def base_url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "Gateway":
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever, args=(SERVE_POLL_SECS,),
            name="axgate-serve", daemon=True,
        )
        self._serve_thread.start()
        if self.config.state_path and self.config.state_refresh_secs > 0:
            self._poll_thread = threading.Thread(
                target=self._poll_state, name="axgate-state-poll", daemon=True
            )
            self._poll_thread.start()
        logger.info("listening on %s (mode=%s, env=%s)", self.base_url,
                    self.config.mode, self.snapshot.env.version_digest[:12])
        return self

    def stop(self) -> None:
        """Graceful: stop accepting, drain in-flight, close the idle
        upstream connections, flush the audit queue."""
        self._poll_stop.set()
        self._server.shutdown()
        self._server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join()
        if self._poll_thread is not None:
            self._poll_thread.join()
        with self._upstream_lock:
            idle, self._upstream_idle = self._upstream_idle, []
        for conn in idle:
            conn.close()
        self.pump.drain()
        self.pump.close()

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # Snapshot management ----------------------------------------------------

    @property
    def snapshot(self) -> Snapshot:
        return self._snapshot  # single atomic reference read

    def _load_state(self, env: PolicyEnvironment) -> SystemState:
        if not self.config.state_path:
            return SystemState({})
        return load_state_file(self.config.state_path, env)

    def refresh_state(self) -> None:
        """Re-read the fact source and publish a fresh snapshot now. Warns
        once when a readable source becomes unreadable."""
        with self._snapshot_lock:
            env = self._snapshot.env
            was_readable = self._snapshot.state.facts is not None
            self._snapshot = Snapshot(env, self._load_state(env))
            readable = self._snapshot.state.facts is not None
        if was_readable and not readable:
            logger.warning("state source unreadable: %s; calls that need "
                           "state facts are refused until it is readable",
                           self.config.state_path)
        elif readable and not was_readable:
            logger.info("state source readable again: %s",
                        self.config.state_path)

    def _poll_state(self) -> None:
        while not self._poll_stop.wait(self.config.state_refresh_secs):
            self.refresh_state()

    def reload_policy(self) -> str | list[Diagnostic]:
        """Compile the configured policy file off the hot path; publish
        atomically only on success. Raises OSError when it cannot be read."""
        result = compile_file(self.config.policy_path)
        if result.environment is None:
            return result.diagnostics
        with self._snapshot_lock:
            if result.environment.version_digest == self._snapshot.env.version_digest:
                return self._snapshot.env.version_digest  # byte-identical: no-op
            self._snapshot = Snapshot(
                result.environment, self._load_state(result.environment)
            )
        logger.info("policy reloaded: %s", result.environment.version_digest[:12])
        return result.environment.version_digest

    # Documents ---------------------------------------------------------------

    def health_doc(self) -> dict:
        """Status "ok", or "degraded" with the reasons enforcement cannot
        be trusted right now."""
        snapshot = self.snapshot
        reasons = []
        if snapshot.state.facts is None:
            reasons.append("state-unreadable")
        if self.pump.degraded:
            reasons.append("audit-degraded")
        if self.pump.archive_degraded:
            reasons.append("archive-degraded")
        return {
            "status": "degraded" if reasons else "ok",
            "reasons": reasons,
            "mode": self.config.mode,
            "env_version": snapshot.env.version_digest,
            "audit_degraded": self.pump.degraded,
            "archive_degraded": self.pump.archive_degraded,
        }

    def policy_doc(self) -> dict:
        snapshot = self.snapshot
        return {
            "env_version": snapshot.env.version_digest,
            "axiom_count": len(snapshot.env.axioms),
            "mode": self.config.mode,
        }

    # Request handling ---------------------------------------------------------

    def handle_tool_call(self, handler: _Handler, *, forward: bool) -> None:
        """Decide one tool call, submit its one audit record, then send its
        one reply."""
        with self._count_lock:
            self.requests_received += 1
        snapshot = self.snapshot
        env = snapshot.env
        enforce = self.config.mode == "enforce"

        def refuse(status: int, error: str, note: str, request_id: str = "",
                   tool: str = "", reason: str = "binding-failure") -> None:
            self.pump.submit(AuditEvent(
                request_id=request_id, tool=tool,
                env_version=env.version_digest, decision=REFUTED,
                trace_digest=ZERO_DIGEST,
                refusal_causes=((reason, None, None),),
                enforced=enforce and forward, note=note,
            ))
            handler._send_json(status, {"error": error})

        raw = handler.read_body()
        if isinstance(raw, http1.Refusal):
            refuse(raw.status, raw.error, raw.error)
            return

        parsed = _parse_tool_call(raw)
        if isinstance(parsed, str):
            refuse(400, parsed, parsed)
            return
        request_id, tool, raw_params = parsed

        if not self._inflight.acquire(blocking=False):
            refuse(429, "too-many-requests", "backpressure", request_id, tool)
            return
        # Only deciding and recording is guarded: once the record is
        # submitted, a failure cannot lead to a second one.
        try:
            request = ActionRequest(request_id, tool,
                                    coerce_facts(raw_params, env, "request"),
                                    received_at=time.time_ns())
            t0 = time.perf_counter_ns()
            result = verify(request, snapshot.state, env)
            latency_ns = time.perf_counter_ns() - t0

            # /v1/verify never forwards and never enforces. /v1/execute in
            # enforce mode blocks a Refuted call without contacting the
            # upstream; otherwise it forwards the original body bytes.
            enforced = enforce and forward and result.decision == REFUTED
            upstream = self._forward(
                raw, http1.first(handler.head.fields, "content-type")) \
                if forward and not enforced else None
            unreachable = forward and not enforced and upstream is None
            if upstream is None:
                status = 502 if unreachable else 403 if enforced else 200
                doc = {"error": "upstream-unreachable"} if unreachable else {}
                doc.update(request_id=request_id, decision=result.decision,
                           enforced=enforced, env_version=env.version_digest,
                           latency_ns=latency_ns)
                if result.decision == REFUTED:
                    doc["notice"] = notice_to_plain(
                        render_notice(result, env, request_id))

            self.pump.submit(AuditEvent(
                request_id=request_id, tool=tool,
                env_version=env.version_digest, decision=result.decision,
                trace_digest=result.trace_digest,
                refusal_causes=tuple((c.reason, c.axiom_id, c.symbol)
                                     for c in result.refusal_causes),
                enforced=enforced,
                note="upstream-unreachable" if unreachable else None,
                trace_bytes=result.trace_bytes,
            ))
        except Exception:
            logger.exception("internal error handling %s", request_id)
            refuse(500, "internal-error", "internal-error", request_id, tool,
                   "evaluation-failure")
        else:
            degraded = self.pump.degraded
            if upstream is None:
                if degraded:
                    doc["audit_degraded"] = True
                handler._send_json(status, doc)
                return
            status, body, content_type = upstream
            headers = {
                "X-Axgate-Request-Id": request_id,
                "X-Axgate-Decision": result.decision,
                "X-Axgate-Enforced": "false",
                "X-Axgate-Env-Version": env.version_digest,
                "X-Axgate-Latency-Ns": str(latency_ns),
            }
            if degraded:
                headers["X-Axgate-Audit-Degraded"] = "true"
            handler._send_raw(status, body, content_type, headers)
        finally:
            self._inflight.release()

    def _forward(self, body: bytes, content_type: str):
        """(status, body, content type) of the upstream's reply to `body`,
        or None when there is no reply to relay."""
        if self._upstream is None:
            return None
        host, port, start, host_field = self._upstream
        conn = self._idle_upstream() or http.client.HTTPConnection(
            host, port, timeout=self.config.upstream_timeout_secs)
        try:
            if conn.sock is None:
                conn.connect()
            # Quick ACK lapses after a few segments, so re-arm it for each
            # exchange. A Nagle-on upstream holds its reply body until the
            # headers are ACKed; a delayed ACK would cost about 40 ms.
            _quickack(conn.sock)
            conn.sock.sendall(http1.write_head(start, (
                ("Host", host_field), ("Accept-Encoding", "identity"),
                ("Content-Type", content_type or "application/json"),
                ("Content-Length", str(len(body))))) + body)
            _quickack(conn.sock)
            reader, replies = http1.ReplyReader(), []
            while not replies:
                replies = reader.feed(conn.sock.recv(65536))
        except (OSError, ValueError):
            # Unreachable, reset, or an answer that is not HTTP or not
            # framed: there is no upstream reply to relay. The body may have
            # gone out and /v1/execute is not idempotent, so it is never
            # sent again.
            conn.close()
            return None
        reply = replies[0]
        # Bytes after the reply answer no request of ours.
        if _QUICKACK is None or not reply.keep or reader.buffer:
            conn.close()
        else:
            with self._upstream_lock:
                self._upstream_idle.append(conn)
        return reply.status, reply.body, reply.content_type

    def _idle_upstream(self) -> http.client.HTTPConnection | None:
        """The most recently used idle upstream connection that the peer
        has not closed, or None."""
        while True:
            with self._upstream_lock:
                if not self._upstream_idle:
                    return None
                conn = self._upstream_idle.pop()
            if _still_idle(conn):
                return conn
            conn.close()


# The upstream hop ---------------------------------------------------------------


def _upstream_target(url: str) -> tuple[str, int, str, str] | None:
    """(host, port, request line, Host field) of an http:// upstream URL,
    as http.client writes them; None when the URL names no upstream
    http.client could send to: every forward is then a 502."""
    parts = urlsplit(url)
    host = parts.hostname
    path = parts.path or "/"
    if parts.query:
        path += "?" + parts.query
    # http.client refuses control characters and spaces in both.
    if parts.scheme != "http" or not host or " " in host + path \
            or not (host + path).isprintable():
        return None
    try:
        port = parts.port or 80
        path.encode("ascii")
        host_field = host if host.isascii() else \
            host.encode("idna").decode("ascii")
    except ValueError:  # no port number, or a name that does not encode
        return None
    if ":" in host_field:  # an IPv6 address
        host_field = "[%s]" % host_field
    if port != 80:
        host_field += ":%d" % port
    return host, port, "POST %s HTTP/1.1" % path, host_field


def _quickack(sock: socket.socket) -> None:
    if _QUICKACK is not None:
        sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)


def _still_idle(conn: http.client.HTTPConnection) -> bool:
    """True when nothing is waiting to be read: no FIN, no reset and no
    unsolicited bytes from the peer."""
    poller = select.poll()
    poller.register(conn.sock, select.POLLIN)
    return not poller.poll(0)


def _parse_tool_call(raw: bytes):
    """Returns (request_id, tool, params) or an error slug."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return "malformed-body"
    if not isinstance(doc, dict):
        return "malformed-body"
    request_id = doc.get("request_id")
    tool = doc.get("tool")
    params = doc.get("params", {})
    if not isinstance(request_id, str) or not request_id:
        return "missing-request-id"
    # The id is echoed in the X-Axgate-Request-Id reply header: only
    # printable ASCII (U+0020-U+007E), so CR/LF cannot inject header lines
    # and the reply can always be encoded.
    if not (request_id.isascii() and request_id.isprintable()):
        return "malformed-request-id"
    if not isinstance(tool, str) or not tool:
        return "missing-tool"
    if not encodable(tool):  # no trace or audit record could hold it
        return "malformed-tool"
    if not isinstance(params, dict):
        return "malformed-params"
    return request_id, tool, params


def serve(config: GatewayConfig) -> None:
    """Run until SIGINT/SIGTERM; drains in-flight work before exiting."""
    import signal

    gateway = Gateway(config).start()
    done = threading.Event()

    def _stop(signum, frame):
        done.set()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    try:
        done.wait()
    finally:
        gateway.stop()
