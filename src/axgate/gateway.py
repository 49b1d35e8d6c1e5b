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
import re
import socket
import sys
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus
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


# http.client's limits, which BaseHTTPRequestHandler applies to request
# heads too: bytes per line, and lines per head with the empty one ending it.
_MAX_LINE = 65536
_MAX_HEAD_LINES = 100

# A field name as http.client's parser reads one: printable ASCII but the
# space (a colon ends the name).
_FIELD_NAME = re.compile(r"[!-~]+")


class _Fields:
    """The field lines of one HTTP head: each lower-cased name with its
    values in order, spaces and tabs trimmed. A line that is not `name:
    value` is dropped and sets `malformed`: one without a colon, with
    whitespace in or before the name (an obs-fold line starts with SP or
    HTAB), or with a bare CR. Such a head cannot be trusted to frame a
    body (RFC 9112 §2.2, §5.1, §5.2)."""

    __slots__ = ("_values", "malformed")

    def __init__(self) -> None:
        self._values: dict[str, list[str]] = {}
        self.malformed = False

    def get(self, name: str, default: str | None = None) -> str | None:
        values = self._values.get(name.lower())
        return values[0] if values else default

    def get_all(self, name: str) -> list[str] | None:
        return self._values.get(name.lower())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._values


def _read_fields(rfile) -> _Fields:
    """The field lines of a head, read through the empty line that ends it
    (or the end of the stream, as http.client reads it). Past http.client's
    limits, raises its LineTooLong or HTTPException."""
    fields = _Fields()
    values = fields._values
    for _ in range(_MAX_HEAD_LINES):
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise http.client.LineTooLong("header line")
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, colon, value = line.decode("latin-1").partition(":")
        value = value.strip(" \t\r\n")
        if colon and _FIELD_NAME.fullmatch(name) and "\r" not in value:
            values.setdefault(name.lower(), []).append(value)
        else:
            fields.malformed = True
    raise http.client.HTTPException(
        f"got more than {_MAX_HEAD_LINES} headers")


class _Handler(BaseHTTPRequestHandler):
    server_version = "axgate"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on each accepted socket. A reply goes out in one write,
    # but a 100 Continue or a send_error reply takes more than one; with
    # Nagle on, a write after an unacknowledged one waits for the client's
    # delayed ACK (about 40 ms on Linux).
    disable_nagle_algorithm = True

    def setup(self) -> None:
        self.timeout = _CLIENT_TIMEOUT_SECS
        super().setup()

    @property
    def gateway(self) -> "Gateway":
        return self.server.gateway  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # route through logging, not stderr
        logger.debug("%s " + fmt, self.client_address[0], *args)

    def parse_request(self) -> bool:
        """BaseHTTPRequestHandler.parse_request: the same request-line,
        keep-alive and Expect rules and error replies, but the fields are
        read by _read_fields, not by http.client.parse_headers, which
        builds an email.message.Message for every request."""
        self.command = None
        self.request_version = version = self.default_request_version
        self.close_connection = True
        self.requestline = requestline = \
            str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError
                numbers = version[5:].split(".")
                if len(numbers) != 2 or not all(
                        n.isdigit() and len(n) <= 10 for n in numbers):
                    raise ValueError
                number = int(numbers[0]), int(numbers[1])
            except ValueError:
                self.send_error(HTTPStatus.BAD_REQUEST,
                                "Bad request version (%r)" % version)
                return False
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                                "Invalid HTTP version (%s)" % version[5:])
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST,
                            "Bad request syntax (%r)" % requestline)
            return False
        self.command, self.path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if self.command != "GET":
                self.send_error(HTTPStatus.BAD_REQUEST,
                                "Bad HTTP/0.9 request type (%r)"
                                % self.command)
                return False
        if self.path.startswith("//"):  # not an absolute URI (gh-87389)
            self.path = "/" + self.path.lstrip("/")
        try:
            self.headers = _read_fields(self.rfile)
        except http.client.LineTooLong as err:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                            "Line too long", str(err))
            return False
        except http.client.HTTPException as err:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                            "Too many headers", str(err))
            return False
        connection = self.headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if self.headers.get("Expect", "").lower() == "100-continue" \
                and self.request_version >= "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def _send_json(self, status: int, doc: dict) -> None:
        self._send_raw(status, json.dumps(doc).encode("utf-8"),
                       "application/json", {})

    def _send_raw(self, status: int, body: bytes, content_type: str,
                  headers: dict[str, str]) -> None:
        """The reply in one write: the bytes send_response, send_header
        and end_headers would write, then the body."""
        self.log_request(status)
        if self.request_version != "HTTP/0.9":
            reason = self.responses[status][0] \
                if status in self.responses else ""
            lines = ["%s %d %s\r\nServer: %s\r\nDate: %s\r\n"
                     "Content-Type: %s\r\nContent-Length: %d\r\n"
                     % (self.protocol_version, status, reason,
                        self.version_string(), self.date_time_string(),
                        content_type or "application/octet-stream",
                        len(body))]
            lines.extend("%s: %s\r\n" % item for item in headers.items())
            lines.append("\r\n")
            body = "".join(lines).encode("latin-1") + body
        try:
            self.wfile.write(body)
        except OSError:
            # The client reset or closed the connection. The request was
            # already decided and audited; a lost reply is not a new decision.
            self.close_connection = True
            logger.info("client %s went away before the %d response",
                        self.client_address[0], status)

    def _skip_body(self) -> bool:
        """For a request whose body nothing reads. A head that cannot frame
        a body is answered 400 here, and True returned. Otherwise a
        declared body stays on the connection, which is marked to close:
        it must not be parsed as the next request."""
        if self.headers.malformed:
            self.close_connection = True
            self._send_json(400, {"error": "bad-framing"})
            return True
        if "Content-Length" in self.headers \
                or "Transfer-Encoding" in self.headers:
            self.close_connection = True
        return False

    def do_GET(self) -> None:
        if self._skip_body():
            return
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
        elif not self._skip_body():
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


def _content_length(headers: _Fields) -> int:
    """The declared body length, 0 when none is declared.

    One framing rule (RFC 9112 §6.3): the head must be well formed, every
    Content-Length value must be ASCII digits and all of them equal, and
    any Transfer-Encoding is refused, since it would decide the framing and
    no coding is read here.
    """
    if headers.malformed:
        raise _UnreadableBody(400, "bad-framing")
    codings = headers.get_all("Transfer-Encoding")
    if codings:
        if any("chunked" in coding.lower() for coding in codings):
            raise _UnreadableBody(501, "unsupported-transfer-encoding")
        raise _UnreadableBody(400, "bad-framing")
    try:
        return max(_declared_length(headers), 0)
    except ValueError:
        raise _UnreadableBody(400, "bad-framing") from None


def _declared_length(fields: _Fields) -> int:
    """The Content-Length of a head, -1 when it declares none. Raises
    ValueError unless every value is ASCII digits and all are equal."""
    values = {value.strip(" \t")
              for field in fields.get_all("Content-Length") or ()
              for value in field.split(",")}
    if not values:
        return -1
    if not all(value.isascii() and value.isdigit() for value in values):
        raise ValueError("Content-Length is not a number")
    lengths = {int(value) for value in values}  # ValueError past int's limit
    if len(lengths) != 1:
        raise ValueError("Content-Length values differ")
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
        self._upstream_idle: list[_UpstreamConnection] = []
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
        """(status, body, content type) of the upstream's reply to `body`,
        or None when there is no reply to relay."""
        if self._upstream is None:
            return None
        host, port, head = self._upstream
        conn = self._idle_upstream() or _UpstreamConnection(
            host, port, timeout=self.config.upstream_timeout_secs)
        try:
            if conn.sock is None:
                conn.connect()
            # Quick ACK lapses after a few segments, so re-arm it for each
            # exchange. A Nagle-on upstream holds its reply body until the
            # headers are ACKed; a delayed ACK would cost about 40 ms.
            _quickack(conn.sock)
            conn.sock.sendall(b"%s%s\r\nContent-Length: %d\r\n\r\n%s" % (
                head, (content_type or "application/json").encode("latin-1"),
                len(body), body))
            _quickack(conn.sock)
            status, data, reply_type, keep = _read_reply(conn.reader)
        except (OSError, ValueError, http.client.HTTPException):
            # Unreachable, reset, or an answer that is not HTTP or not
            # framed: there is no upstream reply to relay. The body may have
            # gone out and /v1/execute is not idempotent, so it is never
            # sent again.
            conn.close()
            return None
        if _QUICKACK is None or not keep:
            conn.close()
        else:
            with self._upstream_lock:
                self._upstream_idle.append(conn)
        return status, data, reply_type

    def _idle_upstream(self) -> _UpstreamConnection | None:
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


def _upstream_target(url: str) -> tuple[str, int, bytes] | None:
    """(host, port, the request head up to the Content-Type value) of an
    http:// upstream URL, the head as http.client writes it; None when the
    URL names no upstream http.client could send to: every forward is then
    a 502."""
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
        target = path.encode("ascii")
        try:
            host_bytes = host.encode("ascii")
        except UnicodeEncodeError:
            host_bytes = host.encode("idna")
    except ValueError:  # no port number, or a name that does not encode
        return None
    if b":" in host_bytes:  # an IPv6 address
        host_bytes = b"[%s]" % host_bytes
    if port != 80:
        host_bytes += b":%d" % port
    return host, port, (b"POST %s HTTP/1.1\r\nHost: %s\r\n"
                        b"Accept-Encoding: identity\r\nContent-Type: "
                        % (target, host_bytes))


class _UpstreamConnection(http.client.HTTPConnection):
    """A keep-alive connection to the upstream. http.client opens it; each
    request goes out in one sendall, and the replies are read through
    `reader`, which lives and closes with the socket."""

    reader = None

    def connect(self) -> None:
        super().connect()
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        reader, self.reader = self.reader, None
        if reader is not None:
            reader.close()
        super().close()


def _read_reply(reader) -> tuple[int, bytes, str, bool]:
    """One upstream reply: (status, body, content type, whether the
    connection can carry another request). Interim 1xx replies are
    skipped; 204 and 304 have no body; otherwise the body is read by its
    Content-Length, de-chunked, or read to the close. Raises
    http.client.HTTPException or ValueError for a reply that cannot be
    relayed."""
    while True:
        line = reader.readline(_MAX_LINE + 1)
        words = line.split(None, 2)
        try:
            version, status = words[0], int(words[1])
        except (IndexError, ValueError):
            raise http.client.BadStatusLine(repr(line)) from None
        if len(line) > _MAX_LINE or not version.startswith(b"HTTP/") \
                or not 100 <= status <= 999 or status == 101:
            raise http.client.BadStatusLine(repr(line))
        fields = _read_fields(reader)
        if fields.malformed:  # a 502, as RFC 9112 §5.2 allows for obs-fold
            raise http.client.HTTPException("malformed reply head")
        if status >= 200:
            break
    connection = fields.get("Connection", "").lower()
    if version in (b"HTTP/1.0", b"HTTP/0.9"):
        keep = "keep-alive" in connection or "Keep-Alive" in fields
    elif version.startswith(b"HTTP/1."):
        keep = "close" not in connection
    else:
        raise http.client.UnknownProtocol(repr(version))
    codings = fields.get_all("Transfer-Encoding")
    if status in (204, 304):
        body = b""
    elif codings:
        if len(codings) != 1 or codings[0].lower() != "chunked":
            raise http.client.HTTPException(f"transfer coding {codings}")
        body = _read_chunked(reader)
    else:
        length = _declared_length(fields)
        if length < 0:
            body, keep = reader.read(), False
        else:
            body = reader.read(length)
            if len(body) < length:
                raise http.client.IncompleteRead(body, length - len(body))
    return status, body, fields.get("Content-Type", ""), keep


def _read_chunked(reader) -> bytes:
    """A chunked body without its framing; the trailer fields are read and
    dropped."""
    chunks = []
    while True:
        line = reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise http.client.LineTooLong("chunk size")
        size = int(line.split(b";", 1)[0], 16)
        if size < 0:
            raise ValueError(f"chunk size {size}")
        if size == 0:
            _read_fields(reader)
            return b"".join(chunks)
        chunk = reader.read(size + 2)
        if len(chunk) < size + 2 or chunk[-2:] != b"\r\n":
            raise http.client.IncompleteRead(chunk, size + 2 - len(chunk))
        chunks.append(chunk[:-2])


def _quickack(sock: socket.socket) -> None:
    if _QUICKACK is not None:
        sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)


def _still_idle(conn: _UpstreamConnection) -> bool:
    """True when nothing is waiting to be read: no FIN, no reset and no
    unsolicited bytes from the peer, on the socket or in the reader."""
    sock = conn.sock
    timeout = sock.gettimeout()
    sock.settimeout(0)  # with a timeout set, recv would wait for data first
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        # The socket is empty, so the peek returns only buffered bytes.
        return not conn.reader.peek(1)
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
