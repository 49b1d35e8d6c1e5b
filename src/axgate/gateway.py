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
owns the log file; producers block when the queue is full.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping
from urllib.parse import urlsplit

from .audit import AuditStorageError, AuditWriter
from .canonical import ZERO_DIGEST
from .compiler import PolicyEnvironment, compile_file
from .diagnostics import Diagnostic
from .kernel import REFUTED, ActionRequest, SystemState, verify
from .notices import notice_to_plain, render_notice
from .values import WireValueError, value_from_wire

logger = logging.getLogger("axgate.gateway")

MODES = ("shadow", "enforce")


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
    trace_archive_path: str = ""  # defaults to audit_log_path + ".traces"
    max_in_flight: int = 64
    max_body_bytes: int = 1 << 20
    allow_state_override: bool = False
    audit_fsync: bool = True
    upstream_timeout_secs: float = 5.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise GatewayStartupError(f"mode must be one of {MODES}: {self.mode!r}")
        if self.max_in_flight < 1:
            raise GatewayStartupError("max_in_flight must be >= 1")
        if not self.trace_archive_path:
            self.trace_archive_path = self.audit_log_path + ".traces"


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
    """Read the fact source; any failure yields the unreadable marker."""
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read().decode("utf-8"))
    except (OSError, ValueError, UnicodeDecodeError):
        return SystemState(None)
    if isinstance(doc, dict) and isinstance(doc.get("facts"), dict):
        raw = doc["facts"]
    elif isinstance(doc, dict):
        raw = doc
    else:
        return SystemState(None)
    return SystemState(coerce_facts(raw, env, "state"), as_of=time.time_ns())


# Audit pump -------------------------------------------------------------------


_SENTINEL = object()
_QUEUE_SIZE = 1024
_DUPLICATE_WINDOW = 4096  # request ids remembered for duplicate_of
_ARCHIVE_WINDOW = 65536  # trace digests remembered as already archived


@dataclass
class AuditEvent:
    request_id: str
    tool: str
    env_version: str
    decision: str
    trace_digest: str
    refusal_causes: tuple
    enforced: bool
    note: str | None = None
    trace_bytes: bytes | None = field(default=None, repr=False)


class AuditPump:
    """Bounded multi-producer, single-consumer funnel to the audit log.

    Producers block when the queue is full (backpressure, never loss). The
    consumer owns the log file and the trace archive; a storage failure
    flips the pump into degraded mode instead of blocking decisions.
    """

    def __init__(self, path: str, trace_archive_path: str | None, *,
                 fsync: bool = True) -> None:
        self._queue: queue.Queue = queue.Queue(maxsize=_QUEUE_SIZE)
        self._writer = AuditWriter(path, fsync=fsync)
        self._trace_fh = open(trace_archive_path, "ab") \
            if trace_archive_path else None
        self._archived: OrderedDict[str, None] = OrderedDict()
        self._seen: OrderedDict[str, int] = OrderedDict()
        self.degraded = False
        self.records_written = 0
        self._thread = threading.Thread(
            target=self._run, name="axgate-audit", daemon=True
        )
        self._thread.start()

    def submit(self, event: AuditEvent) -> None:
        self._queue.put(event)  # blocks when full: bounded backpressure

    def drain(self) -> None:
        self._queue.join()

    def close(self) -> None:
        self._queue.put(_SENTINEL)
        self._thread.join()
        self._writer.close()
        if self._trace_fh is not None:
            self._trace_fh.close()

    def _run(self) -> None:
        while True:
            event = self._queue.get()
            try:
                if event is _SENTINEL:
                    return
                self._consume(event)
            finally:
                self._queue.task_done()

    def _consume(self, event: AuditEvent) -> None:
        duplicate_of = None
        if event.request_id:
            duplicate_of = self._seen.get(event.request_id)
            if duplicate_of is None:
                self._seen[event.request_id] = self._writer.next_seq
                if len(self._seen) > _DUPLICATE_WINDOW:
                    self._seen.popitem(last=False)
        try:
            self._writer.append(
                ts_ns=time.time_ns(),
                request_id=event.request_id,
                tool=event.tool,
                env_version=event.env_version,
                decision=event.decision,
                trace_digest=event.trace_digest,
                refusal_causes=event.refusal_causes,
                enforced=event.enforced,
                duplicate_of=duplicate_of,
                note=event.note,
            )
            self.records_written += 1
            self._archive_trace(event)
        except AuditStorageError:
            logger.error("audit append failed; running degraded")
            self.degraded = True

    def _archive_trace(self, event: AuditEvent) -> None:
        if self._trace_fh is None or event.trace_bytes is None:
            return
        if event.trace_digest in self._archived:
            return
        self._archived[event.trace_digest] = None
        if len(self._archived) > _ARCHIVE_WINDOW:
            self._archived.popitem(last=False)
        # The kernel's canonical trace bytes, spliced in as they are: sorted
        # keys put "trace" before "trace_digest", so this line equals
        # canonical_bytes({"trace_digest": d, "trace": trace.to_plain()}).
        self._trace_fh.write(b'{"trace":%s,"trace_digest":"%s"}\n' % (
            event.trace_bytes, event.trace_digest.encode("ascii")))
        self._trace_fh.flush()


def load_archived_trace(path: str, trace_digest: str) -> dict | None:
    try:
        with open(path, "rb") as fh:
            for line in fh:
                if not line.strip():
                    continue
                doc = json.loads(line)
                if doc.get("trace_digest") == trace_digest:
                    return doc.get("trace")
    except (OSError, ValueError):
        return None
    return None


# HTTP plumbing ------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    server_version = "axgate"
    protocol_version = "HTTP/1.1"

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

    def do_GET(self) -> None:
        if self.path == "/v1/healthz":
            self._send_json(200, self.gateway.health_doc())
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
            self._send_json(404, {"error": "not-found"})

    def _handle_reload(self) -> None:
        raw = _read_body(self, self.gateway.config.max_body_bytes)
        path = None
        if raw not in (None, b""):
            try:
                doc = json.loads(raw)
                path = doc.get("path") if isinstance(doc, dict) else None
            except ValueError:
                self._send_json(400, {"error": "malformed-body"})
                return
        outcome = self.gateway.reload_policy(path)
        if isinstance(outcome, str):
            self._send_json(200, {"env_version": outcome})
        else:
            self._send_json(
                422, {"diagnostics": [d.render() for d in outcome]}
            )


def _read_body(handler: _Handler, limit: int) -> bytes | None:
    """Returns None when the declared or actual size exceeds the limit."""
    length = handler.headers.get("Content-Length")
    try:
        n = int(length) if length is not None else 0
    except ValueError:
        return b""
    if n < 0:
        return b""
    if n > limit:
        # Consume and discard so the connection can still carry the error.
        remaining = n
        while remaining > 0:
            chunk = handler.rfile.read(min(65536, remaining))
            if not chunk:
                break
            remaining -= len(chunk)
        return None
    return handler.rfile.read(n) if n else b""


class _Server(ThreadingHTTPServer):
    daemon_threads = False  # shutdown drains in-flight handler threads
    block_on_close = True
    request_queue_size = 128  # default backlog of 5 drops bursts of connects

    def __init__(self, address, gateway: "Gateway"):
        super().__init__(address, _Handler)
        self.gateway = gateway


# The gateway -------------------------------------------------------------------


class Gateway:
    """Owns the published snapshot, the audit pump, and the HTTP server."""

    def __init__(self, config: GatewayConfig,
                 environment: PolicyEnvironment | None = None) -> None:
        self.config = config
        if environment is None:
            result = compile_file(config.policy_path)
            if result.environment is None:
                raise GatewayStartupError(
                    "policy failed to compile", result.diagnostics
                )
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
        self.pump = AuditPump(
            config.audit_log_path,
            config.trace_archive_path,
            fsync=config.audit_fsync,
        )
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
            target=self._server.serve_forever, name="axgate-serve", daemon=True
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
        """Graceful: stop accepting, drain in-flight, flush the audit queue."""
        self._poll_stop.set()
        self._server.shutdown()
        self._server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join()
        if self._poll_thread is not None:
            self._poll_thread.join()
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
        """Re-read the fact source and publish a fresh snapshot now."""
        with self._snapshot_lock:
            env = self._snapshot.env
            self._snapshot = Snapshot(env, self._load_state(env))

    def _poll_state(self) -> None:
        while not self._poll_stop.wait(self.config.state_refresh_secs):
            self.refresh_state()

    def reload_policy(self, path: str | None = None) -> str | list[Diagnostic]:
        """Compile off the hot path; publish atomically only on success."""
        result = compile_file(path or self.config.policy_path)
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
        return {
            "status": "ok",
            "mode": self.config.mode,
            "env_version": self.snapshot.env.version_digest,
            "audit_degraded": self.pump.degraded,
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

        raw = _read_body(handler, self.config.max_body_bytes)
        if raw is None:
            refuse(413, "oversize-body", "oversize-body")
            return

        parsed = _parse_tool_call(raw)
        if isinstance(parsed, str):
            refuse(400, parsed, parsed)
            return
        request_id, tool, raw_params, state_override = parsed

        if not self._inflight.acquire(blocking=False):
            refuse(429, "too-many-requests", "backpressure", request_id, tool)
            return
        # Only deciding and recording is guarded: once the record is
        # submitted, a failure cannot lead to a second one.
        try:
            state = snapshot.state
            if state_override is not None and self.config.allow_state_override:
                merged = dict(state.facts or {})
                merged.update(coerce_facts(state_override, env, "state"))
                state = SystemState(merged, as_of=state.as_of)
            request = ActionRequest(request_id, tool,
                                    coerce_facts(raw_params, env, "request"),
                                    received_at=time.time_ns())
            t0 = time.perf_counter_ns()
            result = verify(request, state, env)
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
        conn = http.client.HTTPConnection(
            parts.hostname, parts.port or 80,
            timeout=self.config.upstream_timeout_secs,
        )
        try:
            conn.request("POST", path, body=body, headers={
                "Content-Type": content_type or "application/json",
                "Content-Length": str(len(body)),
            })
            resp = conn.getresponse()
            data = resp.read()
            return resp.status, data, resp.headers.get("Content-Type", "")
        except (OSError, http.client.HTTPException):
            # Unreachable, or an answer that is not HTTP (BadStatusLine,
            # IncompleteRead): either way there is no upstream reply to relay.
            return None
        finally:
            conn.close()


def _parse_tool_call(raw: bytes):
    """Returns (request_id, tool, params, state_override) or an error slug."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return "malformed-body"
    if not isinstance(doc, dict):
        return "malformed-body"
    request_id = doc.get("request_id")
    tool = doc.get("tool")
    params = doc.get("params", {})
    override = doc.get("state_override")
    if not isinstance(request_id, str) or not request_id:
        return "missing-request-id"
    if not isinstance(tool, str) or not tool:
        return "missing-tool"
    if not isinstance(params, dict):
        return "malformed-params"
    if override is not None and not isinstance(override, dict):
        return "malformed-state-override"
    return request_id, tool, params, override


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
