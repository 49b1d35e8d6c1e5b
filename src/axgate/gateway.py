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

import http.client
import json
import logging
import math
import os
import socket
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping
from urllib.parse import urlsplit

from .audit import AuditEvent, AuditPump
from .canonical import ZERO_DIGEST, encodable
from .compiler import PolicyEnvironment, compile_file
from .diagnostics import Diagnostic
from .kernel import REFUTED, ActionRequest, SystemState, verify
from .notices import notice_to_plain, render_notice
from .values import WireValueError, value_from_wire

logger = logging.getLogger("axgate.gateway")

MODES = ("shadow", "enforce")

# Seconds a client socket may sit idle in one read or write (request line,
# headers, body, reply) before the gateway gives up on it. Without it, a
# client that declares a Content-Length and stalls holds a thread forever.
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


class _Handler(BaseHTTPRequestHandler):
    server_version = "axgate"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on each accepted socket. The headers and the body go out
    # as two writes; with Nagle on, the body of every keep-alive reply waits
    # for the client's delayed ACK of the headers (about 40 ms on Linux).
    disable_nagle_algorithm = True

    def setup(self) -> None:
        self.timeout = _CLIENT_TIMEOUT_SECS
        super().setup()

    @property
    def gateway(self) -> "Gateway":
        return self.server.gateway  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # route through logging, not stderr
        logger.debug("%s " + fmt, self.client_address[0], *args)

    def _send_json(self, status: int, doc: dict) -> None:
        self._send_raw(status, json.dumps(doc).encode("utf-8"),
                       "application/json", {})

    def _send_raw(self, status: int, body: bytes, content_type: str,
                  headers: dict[str, str]) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type",
                             content_type or "application/octet-stream")
            self.send_header("Content-Length", str(len(body)))
            for key, value in headers.items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            # The client reset or closed the connection. The request was
            # already decided and audited; a lost reply is not a new decision.
            self.close_connection = True
            logger.info("client %s went away before the %d response",
                        self.client_address[0], status)

    def _close_after_unread_body(self) -> None:
        # The body of a request that nothing reads stays on the connection;
        # it must not be parsed as the next request.
        if "Content-Length" in self.headers \
                or "Transfer-Encoding" in self.headers:
            self.close_connection = True

    def do_GET(self) -> None:
        self._close_after_unread_body()
        if self.path == "/v1/healthz":
            doc = self.gateway.health_doc()
            self._send_json(200 if doc["status"] == "ok" else 503, doc)
        elif self.path == "/v1/policy":
            self._send_json(200, self.gateway.policy_doc())
        else:
            self._send_json(404, {"error": "not-found"})

    def do_POST(self) -> None:
        if self.path == "/v1/execute":
            self.gateway.handle_tool_call(self, forward=True)
        elif self.path == "/v1/verify":
            self.gateway.handle_tool_call(self, forward=False)
        elif self.path == "/v1/policy/reload":
            self._handle_reload()
        else:
            self._close_after_unread_body()
            self._send_json(404, {"error": "not-found"})

    def _handle_reload(self) -> None:
        """Reload the configured policy file; the body must be empty. The
        published snapshot changes only on a 200."""
        try:
            raw = _read_body(self, self.gateway.config.max_body_bytes)
        except _UnreadableBody as exc:
            self._send_json(exc.status, {"error": exc.error})
            return
        if raw:
            self._send_json(400, {"error": "malformed-body"})
            return
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
                422, {"diagnostics": [d.render() for d in outcome]}
            )


class _UnreadableBody(Exception):
    """There is no body to act on: it is too large, it cannot be read, or
    where it ends cannot be trusted. The reply is `status` with `error`."""

    def __init__(self, status: int, error: str) -> None:
        super().__init__(error)
        self.status = status
        self.error = error


def _content_length(headers) -> int:
    """The declared body length, 0 when none is declared.

    One framing rule (RFC 9112 §6.3): every Content-Length value must be
    ASCII digits and all of them equal, and any Transfer-Encoding is
    refused, since it would decide the framing and no coding is read here.
    """
    codings = headers.get_all("Transfer-Encoding")
    if codings:
        if any("chunked" in coding.lower() for coding in codings):
            raise _UnreadableBody(501, "unsupported-transfer-encoding")
        raise _UnreadableBody(400, "bad-framing")
    values = {value.strip(" \t")
              for field in headers.get_all("Content-Length") or ()
              for value in field.split(",")}
    if not values:
        return 0
    if not all(value.isascii() and value.isdigit() for value in values):
        raise _UnreadableBody(400, "bad-framing")
    try:
        lengths = {int(value) for value in values}
    except ValueError:  # more digits than int() reads
        raise _UnreadableBody(400, "bad-framing") from None
    if len(lengths) != 1:
        raise _UnreadableBody(400, "bad-framing")
    return lengths.pop()


def _read_body(handler: _Handler, limit: int) -> bytes:
    """The request body; otherwise raises _UnreadableBody. A body over the
    limit is read and dropped, so the connection can carry the 413. After bad framing or
    a stalled body the connection is marked to close: the bytes still on it
    must never be parsed as a request."""
    try:
        n = _content_length(handler.headers)
        if n <= limit:
            return handler.rfile.read(n) if n else b""
        while n > 0:
            chunk = handler.rfile.read(min(65536, n))
            if not chunk:
                break
            n -= len(chunk)
    except _UnreadableBody:
        handler.close_connection = True
        raise
    except TimeoutError:
        handler.close_connection = True
        raise _UnreadableBody(408, "read-timeout") from None
    raise _UnreadableBody(413, "oversize-body")


class _Server(ThreadingHTTPServer):
    daemon_threads = False  # shutdown drains in-flight handler threads
    block_on_close = True
    request_queue_size = 128  # default backlog of 5 drops bursts of connects

    def __init__(self, address, gateway: "Gateway"):
        super().__init__(address, _Handler)
        self.gateway = gateway

    def handle_error(self, request, client_address) -> None:
        # Called with the exception that escaped the handler, typically from
        # reading the request line or headers. A client that resets, hangs
        # up or stalls there is routine; anything else is a fault.
        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionResetError, BrokenPipeError,
                            TimeoutError)):
            logger.info("client %s dropped: %r", client_address[0], exc)
        else:
            logger.exception("error serving client %s", client_address[0])


# The gateway -------------------------------------------------------------------


class Gateway:
    """Owns the published snapshot, the audit pump, and the HTTP server."""

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
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

        try:
            raw = _read_body(handler, self.config.max_body_bytes)
        except _UnreadableBody as exc:
            refuse(exc.status, exc.error, exc.error)
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
            upstream = self._forward(raw, handler.headers.get("Content-Type")) \
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

    def _forward(self, body: bytes, content_type: str | None):
        parts = urlsplit(self.config.upstream_url)
        if parts.scheme != "http" or not parts.netloc:
            return None
        path = parts.path or "/"
        if parts.query:
            path += "?" + parts.query
        conn = self._idle_upstream() or http.client.HTTPConnection(
            parts.hostname, parts.port or 80,
            timeout=self.config.upstream_timeout_secs,
        )
        try:
            if conn.sock is None:
                conn.connect()
            # Quick ACK lapses after a few segments, so re-arm it for each
            # exchange. A Nagle-on upstream holds its reply body until the
            # headers are ACKed; a delayed ACK would cost about 40 ms.
            _quickack(conn.sock)
            conn.request("POST", path, body=body, headers={
                "Content-Type": content_type or "application/json",
                "Content-Length": str(len(body)),
            })
            _quickack(conn.sock)
            resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException):
            # Unreachable, reset, or an answer that is not HTTP (BadStatusLine,
            # IncompleteRead): there is no upstream reply to relay. The body
            # may have gone out and /v1/execute is not idempotent, so it is
            # never sent again.
            conn.close()
            return None
        if _QUICKACK is None or resp.will_close:
            conn.close()
        else:
            with self._upstream_lock:
                self._upstream_idle.append(conn)
        return resp.status, data, resp.headers.get("Content-Type", "")

    def _idle_upstream(self) -> http.client.HTTPConnection | None:
        """The most recently used idle upstream connection that the peer
        has not closed, or None."""
        while True:
            with self._upstream_lock:
                if not self._upstream_idle:
                    return None
                conn = self._upstream_idle.pop()
            if _still_idle(conn.sock):
                return conn
            conn.close()


def _quickack(sock: socket.socket) -> None:
    if _QUICKACK is not None:
        sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)


def _still_idle(sock: socket.socket) -> bool:
    """True when nothing is waiting to be read: no FIN, no reset and no
    unsolicited bytes from the peer."""
    timeout = sock.gettimeout()
    sock.settimeout(0)  # with a timeout set, recv would wait for data first
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return True
    except OSError:
        return False
    finally:
        sock.settimeout(timeout)
    return False


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
