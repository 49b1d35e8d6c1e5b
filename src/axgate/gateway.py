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
from .canonical import ZERO_DIGEST, canonical_bytes
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
    duplicate_window: int = 4096

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise GatewayStartupError(f"mode must be one of {MODES}: {self.mode!r}")
        if self.max_in_flight < 1:
            raise GatewayStartupError("max_in_flight must be >= 1")
        if not self.trace_archive_path:
            self.trace_archive_path = self.audit_log_path + ".traces"


_BOOL_KEYS = {"allow_state_override", "audit_fsync"}
_INT_KEYS = {"max_in_flight", "max_body_bytes", "duplicate_window"}
_FLOAT_KEYS = {"state_refresh_secs", "upstream_timeout_secs"}


def load_config(path: str, env: Mapping[str, str] | None = None) -> GatewayConfig:
    """Flat `key = value` config file; AXGATE_<KEY> env vars override."""
    values: dict[str, object] = {}
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
        if key not in GatewayConfig.__dataclass_fields__:
            raise GatewayStartupError(f"unknown config key: {key!r}")
        if key in _BOOL_KEYS:
            kwargs[key] = str(raw).strip().lower() in ("1", "true", "yes", "on")
        elif key in _INT_KEYS:
            kwargs[key] = int(str(raw))
        elif key in _FLOAT_KEYS:
            kwargs[key] = float(str(raw))
        else:
            kwargs[key] = str(raw)
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
    trace_plain: dict | None = field(default=None, repr=False)


class AuditPump:
    """Bounded multi-producer, single-consumer funnel to the audit log.

    Producers block when the queue is full (backpressure, never loss). The
    consumer owns the log file and the trace archive; a storage failure
    flips the pump into degraded mode instead of blocking decisions.
    """

    def __init__(self, path: str, trace_archive_path: str | None, *,
                 fsync: bool = True, maxsize: int = 1024,
                 duplicate_window: int = 4096) -> None:
        self._queue: queue.Queue = queue.Queue(maxsize=maxsize)
        self._writer = AuditWriter(path, fsync=fsync)
        self._trace_fh = open(trace_archive_path, "ab") \
            if trace_archive_path else None
        self._archived: OrderedDict[str, None] = OrderedDict()
        self._seen: OrderedDict[str, int] = OrderedDict()
        self._duplicate_window = duplicate_window
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
                if len(self._seen) > self._duplicate_window:
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
        if self._trace_fh is None or event.trace_plain is None:
            return
        if event.trace_digest in self._archived:
            return
        self._archived[event.trace_digest] = None
        if len(self._archived) > 65536:
            self._archived.popitem(last=False)
        line = canonical_bytes(
            {"trace_digest": event.trace_digest, "trace": event.trace_plain}
        )
        self._trace_fh.write(line + b"\n")
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


# Response document -------------------------------------------------------------


@dataclass(frozen=True)
class GatewayResponse:
    request_id: str
    decision: str
    enforced: bool
    env_version: str
    latency_ns: int
    upstream_status: int | None = None
    notice: dict | None = None
    audit_degraded: bool = False

    def to_plain(self) -> dict:
        doc = {
            "request_id": self.request_id,
            "decision": self.decision,
            "enforced": self.enforced,
            "env_version": self.env_version,
            "latency_ns": self.latency_ns,
        }
        if self.upstream_status is not None:
            doc["upstream_status"] = self.upstream_status
        if self.notice is not None:
            doc["notice"] = self.notice
        if self.audit_degraded:
            doc["audit_degraded"] = True
        return doc


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
            duplicate_window=config.duplicate_window,
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

    def _audit(self, *, request_id: str, tool: str, env_version: str,
               decision: str, trace_digest: str, causes: tuple,
               enforced: bool, note: str | None = None,
               trace_plain: dict | None = None) -> None:
        self.pump.submit(AuditEvent(
            request_id=request_id, tool=tool, env_version=env_version,
            decision=decision, trace_digest=trace_digest,
            refusal_causes=causes, enforced=enforced, note=note,
            trace_plain=trace_plain,
        ))

    def handle_tool_call(self, handler: _Handler, *, forward: bool) -> None:
        with self._count_lock:
            self.requests_received += 1
        snapshot = self.snapshot
        env_version = snapshot.env.version_digest
        enforced = self.config.mode == "enforce" and forward

        def refuse(status: int, error: str, note: str, request_id: str = "",
                   tool: str = "", reason: str = "binding-failure") -> None:
            self._audit(request_id=request_id, tool=tool,
                        env_version=env_version, decision=REFUTED,
                        trace_digest=ZERO_DIGEST, causes=((reason, None, None),),
                        enforced=enforced, note=note)
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
        try:
            self._process_tool_call(
                handler, snapshot, raw, request_id, tool, raw_params,
                state_override, forward=forward,
            )
        except Exception:
            logger.exception("internal error handling %s", request_id)
            refuse(500, "internal-error", "internal-error", request_id, tool,
                   "evaluation-failure")
        finally:
            self._inflight.release()

    def _process_tool_call(self, handler, snapshot: Snapshot, raw: bytes,
                           request_id: str, tool: str, raw_params: dict,
                           state_override: dict | None, *, forward: bool) -> None:
        env = snapshot.env
        enforce = self.config.mode == "enforce"

        state = snapshot.state
        if state_override is not None and self.config.allow_state_override:
            merged = dict(state.facts or {})
            merged.update(coerce_facts(state_override, env, "state"))
            state = SystemState(merged, as_of=state.as_of)

        params = coerce_facts(raw_params, env, "request")
        request = ActionRequest(request_id, tool, params,
                                received_at=time.time_ns())

        t0 = time.perf_counter_ns()
        result = verify(request, state, env)
        latency_ns = time.perf_counter_ns() - t0

        notice_doc = None
        if result.decision == REFUTED:
            notice_doc = notice_to_plain(
                render_notice(result, env, request_id)
            )

        causes = tuple(
            (c.reason, c.axiom_id, c.symbol) for c in result.refusal_causes
        )
        audited_enforced = enforce and forward and result.decision == REFUTED

        if not forward:
            # /v1/verify: decision only, never forwards, never enforces.
            self._audit(request_id=request_id, tool=tool,
                        env_version=env.version_digest,
                        decision=result.decision,
                        trace_digest=result.trace_digest, causes=causes,
                        enforced=False, trace_plain=result.trace.to_plain())
            response = GatewayResponse(
                request_id=request_id, decision=result.decision,
                enforced=False, env_version=env.version_digest,
                latency_ns=latency_ns, notice=notice_doc,
                audit_degraded=self.pump.degraded,
            )
            handler._send_json(200, response.to_plain())
            return

        if enforce and result.decision == REFUTED:
            # State B: definitively blocked; the upstream is never contacted.
            self._audit(request_id=request_id, tool=tool,
                        env_version=env.version_digest, decision=REFUTED,
                        trace_digest=result.trace_digest, causes=causes,
                        enforced=True, trace_plain=result.trace.to_plain())
            response = GatewayResponse(
                request_id=request_id, decision=REFUTED, enforced=True,
                env_version=env.version_digest, latency_ns=latency_ns,
                notice=notice_doc, audit_degraded=self.pump.degraded,
            )
            handler._send_json(403, response.to_plain())
            return

        # Proven in enforce mode, or any decision in shadow mode: forward the
        # original body bytes untouched.
        upstream = self._forward(raw, handler.headers.get("Content-Type"))
        self._audit(request_id=request_id, tool=tool,
                    env_version=env.version_digest, decision=result.decision,
                    trace_digest=result.trace_digest, causes=causes,
                    enforced=audited_enforced,
                    note=None if upstream is not None else "upstream-unreachable",
                    trace_plain=result.trace.to_plain())
        if upstream is None:
            response = GatewayResponse(
                request_id=request_id, decision=result.decision,
                enforced=audited_enforced, env_version=env.version_digest,
                latency_ns=latency_ns, notice=notice_doc,
                audit_degraded=self.pump.degraded,
            )
            handler._send_json(502, {"error": "upstream-unreachable",
                                     **response.to_plain()})
            return
        status, body, content_type = upstream
        headers = {
            "X-Axgate-Request-Id": request_id,
            "X-Axgate-Decision": result.decision,
            "X-Axgate-Enforced": "true" if audited_enforced else "false",
            "X-Axgate-Env-Version": env.version_digest,
            "X-Axgate-Latency-Ns": str(latency_ns),
        }
        if self.pump.degraded:
            headers["X-Axgate-Audit-Degraded"] = "true"
        handler._send_raw(status, body, content_type, headers)

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
        except OSError:
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
