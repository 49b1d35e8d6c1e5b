"""The gateway workload: a real `axgate serve` process driven over loopback.

The gateway runs in enforce mode on the shipped `sec15c3_5.pol`, with a
seeded state file, an audit log on disk with fsync on that already holds
`PREBUILT_RECORDS` records, and the stub upstream in a process of its own.
This process is the load generator: `CLIENTS` keep-alive connections, one
thread each, in a closed loop on POST /v1/execute.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import random
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import reference
from common import (
    BENCH_DIR,
    POLICY,
    ROOT,
    BenchError,
    child_env,
    free_port,
    median,
    percentile,
    proc_cpu_seconds,
    proc_peak_rss_mb,
)

CLIENTS = 2
PREBUILT_RECORDS = 5000
SETUP_PROBES = 6           # launches timed before the load, and again after
CHAIN_PASSES = 9
REQUEST_TIMEOUT_S = 10.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

PATH = "/v1/execute"

# (request kind, weight in percent). Every kind but "proven" is refuted.
MIX = (("proven", 70), ("oversize", 22), ("nonpositive", 3), ("missing", 2),
       ("nonnumeric", 2), ("other_tool", 1))


# Inputs ---------------------------------------------------------------------


def make_state(seed: int) -> dict:
    """Facts for sec15c3_5.pol. The capital threshold sits above the maximum
    order size, so every order within the maximum is Proven."""
    rng = random.Random(f"state-{seed}")
    max_order = rng.randint(2000, 5000)
    price_minor = rng.randint(5_000, 20_000)
    capital_minor = int(max_order * price_minor * 10 * rng.uniform(1.2, 2.0))
    return {"facts": {
        "share_price": {"minor": price_minor, "ccy": "USD"},
        "daily_capital": {"minor": capital_minor, "ccy": "USD"},
        "max_order_size": max_order,
    }}


def make_body(seed: int, index: int, max_order: int) -> bytes:
    rng = random.Random(f"execute_closed-{seed}-{index}")
    kinds, weights = zip(*MIX)
    kind = rng.choices(kinds, weights)[0]
    tool = "execute_trade"
    params: dict[str, object] = {}
    if kind in ("proven", "other_tool"):
        volume = rng.randint(1, max_order)
        params["volume"] = volume if rng.random() < 0.8 else f"{volume - 0.5}"
        if kind == "other_tool":
            tool = "cancel_order"
    elif kind == "oversize":
        params["volume"] = rng.randint(max_order + 1, 3 * max_order)
    elif kind == "nonpositive":
        params["volume"] = rng.choice((0, -rng.randint(1, max_order)))
    elif kind == "nonnumeric":
        params["volume"] = rng.choice(("lots", "", None, True, {"n": 5}))
    if rng.random() < 0.3:
        params["client_ref"] = rng.randint(1, 10**9)  # unregistered: stripped
    doc = {"request_id": f"execute_closed-{seed}-{index}", "tool": tool,
           "params": params}
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


class DecisionChecker:
    """Decides each generated body in-process, the way the gateway should:
    the kernel on the gateway's sanitised inputs, cross-checked against the
    independent oracle."""

    def __init__(self, state_path: Path) -> None:
        from axgate.compiler import compile_file
        from axgate.gateway import load_state_file

        self.env = compile_file(str(POLICY)).environment
        if self.env is None:
            raise BenchError(f"{POLICY} does not compile")
        self.state = load_state_file(str(state_path), self.env)
        if self.state.facts is None:
            raise BenchError(f"state file {state_path} is unreadable")

    def decide(self, body: bytes) -> str:
        from axgate.gateway import coerce_facts
        from axgate.kernel import ActionRequest, verify
        from axgate.oracle import oracle_verify

        doc = json.loads(body)
        params = coerce_facts(doc["params"], self.env, "request")
        request = ActionRequest(doc["request_id"], doc["tool"], params)
        decision = verify(request, self.state, self.env).decision
        if oracle_verify(request, self.state, self.env) != decision:
            raise BenchError(f"kernel and oracle disagree on {body!r}")
        return decision


def prebuild_audit_log(path: Path, seed: int, env_version: str) -> None:
    """A valid chain of PREBUILT_RECORDS records, the log a restarted
    gateway resumes."""
    from axgate.audit import AuditWriter

    rng = random.Random(f"log-{seed}")
    with AuditWriter(str(path), fsync=False) as writer:
        for i in range(PREBUILT_RECORDS):
            refuted = rng.random() < 0.4
            writer.append(
                ts_ns=1_700_000_000_000_000_000 + i * 1_000_000,
                request_id=f"prebuilt-{seed}-{i}",
                tool="execute_trade",
                env_version=env_version,
                decision="Refuted" if refuted else "Proven",
                trace_digest=hashlib.sha256(f"{seed}-{i}".encode()).hexdigest(),
                refusal_causes=(("forbid-fired", "max_order", None),)
                if refuted else (),
                enforced=refuted,
            )


def chain_pass(path: Path) -> tuple[bool, int, float]:
    """One verify_chain over the log: (ok, records, seconds at the
    reference host speed). Callers report records over the summed seconds
    of all passes."""
    from axgate.audit import verify_chain

    report, seconds = reference.timed(verify_chain, str(path))
    return report.ok, report.records, seconds


# Processes --------------------------------------------------------------------


def stop_process(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _log_tail(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8", errors="replace")[-2000:]
    except OSError:
        return ""


def launch_gateway(workdir: Path, config: dict, tag: str,
                   spans_path: Path | None) -> tuple[subprocess.Popen, int, float]:
    """Start a gateway and wait until /v1/healthz answers.

    Returns the process, its port and the seconds from launch to the first
    healthy answer.
    """
    port = free_port()
    config_path = workdir / f"gateway-{tag}.conf"
    config_path.write_text("".join(
        f"{key} = {value}\n"
        for key, value in {**config, "listen_address": f"127.0.0.1:{port}"}.items()
    ), encoding="utf-8")
    if spans_path is None:
        cmd = [sys.executable, "-m", "axgate.cli", "serve",
               "--config", str(config_path)]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "traced_gateway.py"),
               str(config_path), str(spans_path)]
    log_path = workdir / f"gateway-{tag}.out"
    t0 = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=child_env(),
                                cwd=ROOT)
    try:
        while True:
            if proc.poll() is not None:
                raise BenchError(f"gateway exited with {proc.returncode}:\n"
                                 + _log_tail(log_path))
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
                try:
                    conn.request("GET", "/v1/healthz")
                    status = conn.getresponse().status
                finally:
                    conn.close()
                if status == 200:
                    return proc, port, time.perf_counter() - t0
            except OSError:
                pass
            if time.perf_counter() - t0 > START_TIMEOUT_S:
                raise BenchError("gateway did not become healthy:\n"
                                 + _log_tail(log_path))
            time.sleep(0.002)
    except BaseException:
        stop_process(proc)
        raise


def probe_setup(workdir: Path, config: dict, tag: str) -> float:
    """Launch a gateway that serves nothing but /v1/healthz, then kill it
    (it has written no record); returns its set-up seconds."""
    proc, _, setup = launch_gateway(workdir, config, tag, None)
    proc.kill()
    proc.wait()
    return setup


def start_stub(bodies_path: Path) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "stub_upstream.py"), str(bodies_path)],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=child_env(),
        cwd=ROOT,
    )
    url = proc.stdout.readline().decode("ascii").strip()
    if not url.startswith("http://"):
        stop_process(proc)
        raise BenchError("stub upstream did not start")
    return proc, url


def read_stub_bodies(path: Path) -> list[bytes]:
    data = path.read_bytes()
    bodies, pos = [], 0
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        bodies.append(data[pos + 4:pos + 4 + length])
        pos += 4 + length
    return bodies


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 16), b""))


def wait_for_records(path: Path, expected: int) -> None:
    deadline = time.perf_counter() + STOP_TIMEOUT_S
    while count_lines(path) < expected and time.perf_counter() < deadline:
        time.sleep(0.01)


# Load generation --------------------------------------------------------------


@dataclass
class Outcome:
    body: bytes
    send_ns: int = 0
    done_ns: int = 0
    status: int | None = None
    decision: str | None = None
    error: str | None = None


class _Client:
    """One keep-alive connection, reopened after a transport error."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def send(self, outcome: Outcome) -> None:
        outcome.send_ns = time.perf_counter_ns()
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
            self.conn.request("POST", PATH, body=outcome.body,
                              headers={"Content-Type": "application/json"})
            resp = self.conn.getresponse()
            data = resp.read()
            outcome.done_ns = time.perf_counter_ns()
        except TimeoutError:
            outcome.error = "timeout"
        except (OSError, http.client.HTTPException) as exc:
            outcome.error = type(exc).__name__
        if outcome.error is not None:
            outcome.done_ns = time.perf_counter_ns()
            self.close()
            return
        outcome.status = resp.status
        outcome.decision = resp.getheader("X-Axgate-Decision")
        if outcome.decision is None:
            try:
                outcome.decision = json.loads(data).get("decision")
            except (ValueError, AttributeError):
                outcome.decision = None

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def run_closed(port: int, make, seconds: float):
    """CLIENTS threads, one keep-alive connection each; each client sends its
    next request when the previous one answered."""
    indices = itertools.count()
    start_ns = time.perf_counter_ns()
    stop_ns = start_ns + int(seconds * 1e9)
    results: list[list[Outcome]] = [[] for _ in range(CLIENTS)]

    def client(out: list[Outcome]) -> None:
        conn = _Client(port)
        try:
            while time.perf_counter_ns() < stop_ns:
                outcome = Outcome(make(next(indices)))
                conn.send(outcome)
                out.append(outcome)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(out,), daemon=True)
               for out in results]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start_ns, [o for out in results for o in out]


# One run ------------------------------------------------------------------------


@dataclass
class GatewayRun:
    attempted: int
    ok: int
    failures: Counter
    violations: list[str]
    setup_s: list[float]
    elapsed_s: float
    latency_us: list[float]          # client_us values, sorted
    client_us: dict[str, float]      # request id -> send to answer, if ok
    cpu_s: float
    rss_mb: float
    chain_ok: bool
    chain_rps: float
    spans: dict | None = field(default=None, repr=False)
    archive_ratio: float = 0.0


def run_gateway(seed: int, seconds: float, workdir: Path, *,
                traced: bool = False) -> GatewayRun:
    workdir.mkdir(parents=True, exist_ok=True)
    state = make_state(seed)
    state_path = workdir / "state.json"
    state_path.write_text(json.dumps(state), encoding="utf-8")
    checker = DecisionChecker(state_path)
    log_path = workdir / "audit.log"
    prebuild_audit_log(log_path, seed, checker.env.version_digest)
    max_order = state["facts"]["max_order_size"]

    def make(index: int) -> bytes:
        return make_body(seed, index, max_order)

    config = {
        "mode": "enforce",
        "policy_path": str(POLICY),
        "state_path": str(state_path),
        "state_refresh_secs": 2.0,
        "audit_log_path": str(log_path),
        "audit_fsync": "true",
    }
    bodies_path = workdir / "upstream.bodies"
    spans_path = workdir / "spans.json" if traced else None
    # Set-up probes run on a copy of the prebuilt log, some before and some
    # after the load, so that their median spans the whole run.
    setup_log = workdir / "setup.log"
    shutil.copyfile(log_path, setup_log)
    probes = 0 if traced else SETUP_PROBES
    gateway = stub = None
    try:
        stub, config["upstream_url"] = start_stub(bodies_path)
        setup_config = {**config, "audit_log_path": str(setup_log)}
        setups = [probe_setup(workdir, setup_config, f"before-{i}")
                  for i in range(probes)]
        gateway, port, setup = launch_gateway(workdir, config, "measured",
                                              spans_path)
        setups.append(setup)
        cpu0 = proc_cpu_seconds(gateway.pid)
        start_ns, outcomes = run_closed(port, make, seconds)
        answered = sum(1 for o in outcomes if o.status is not None)
        wait_for_records(log_path, PREBUILT_RECORDS + answered)
        cpu_s = proc_cpu_seconds(gateway.pid) - cpu0
        rss_mb = proc_peak_rss_mb(gateway.pid)
    except BaseException:
        # An interrupted run does not drain: its clients may still hold
        # keep-alive connections that a graceful stop would wait for.
        for proc in (gateway, stub):
            if proc is not None:
                proc.kill()
        raise
    finally:
        for proc in (gateway, stub):
            if proc is not None:
                stop_process(proc)
    chain_ok, chain_s = True, 0.0
    for i in range(CHAIN_PASSES):
        ok, chain_records, seconds = chain_pass(log_path)
        chain_ok, chain_s = chain_ok and ok, chain_s + seconds
        if i < probes:
            setups.append(probe_setup(workdir, setup_config, f"after-{i}"))

    # Everything below is outside the timed region.
    expected = {o.body: checker.decide(o.body) for o in outcomes}
    failures: Counter = Counter()
    violations: list[str] = []
    ok_outcomes = []
    for o in outcomes:
        want = expected[o.body]
        want_status = 403 if want == "Refuted" else 200
        if o.error is not None:
            failures[o.error] += 1
        elif o.decision is not None and o.decision != want:
            failures["wrong-decision"] += 1
            violations.append(f"{json.loads(o.body)['request_id']}: "
                              f"decision {o.decision}, expected {want}")
        elif o.status != want_status:
            failures[f"status-{o.status}"] += 1  # 429, 5xx: no decision made
        else:
            ok_outcomes.append(o)

    violations += check_audit_log(log_path, outcomes, expected)
    if not chain_ok:
        violations.append("verify_chain is not ok on the run's audit log")
    violations += check_forwarding(read_stub_bodies(bodies_path), outcomes,
                                   expected)

    client_us = {json.loads(o.body)["request_id"]:
                 (o.done_ns - o.send_ns) / 1000.0 for o in ok_outcomes}
    run = GatewayRun(
        attempted=len(outcomes),
        ok=len(ok_outcomes),
        failures=failures,
        violations=violations,
        setup_s=setups,
        elapsed_s=(max((o.done_ns for o in ok_outcomes), default=start_ns)
                   - start_ns) / 1e9,
        latency_us=sorted(client_us.values()),
        client_us=client_us,
        cpu_s=cpu_s,
        rss_mb=rss_mb,
        chain_ok=chain_ok,
        chain_rps=CHAIN_PASSES * chain_records / chain_s,
    )
    if traced:
        run.spans = json.loads(spans_path.read_text(encoding="utf-8"))
        archived = count_lines(Path(str(log_path) + ".traces"))
        run.archive_ratio = archived / max(1, chain_records - PREBUILT_RECORDS)
    return run


def check_audit_log(log_path: Path, outcomes: list[Outcome],
                    expected: dict[bytes, str]) -> list[str]:
    """One record per request the gateway answered, none for anything
    else, each with the expected decision, after the prebuilt prefix."""
    from axgate.audit import iter_records

    records = list(iter_records(str(log_path)))
    prefix = records[:PREBUILT_RECORDS]
    violations = []
    if len(prefix) != PREBUILT_RECORDS or any(
            not r.request_id.startswith("prebuilt-") for r in prefix):
        violations.append("prebuilt audit prefix was altered")
    want = {json.loads(o.body)["request_id"]: expected[o.body] for o in outcomes}
    answered = {json.loads(o.body)["request_id"]
                for o in outcomes if o.status is not None}
    seen = Counter(r.request_id for r in records[PREBUILT_RECORDS:])
    for rid, n in seen.items():
        if n > 1:
            violations.append(f"{rid}: {n} audit records")
        if rid not in want:
            violations.append(f"audit record for unknown request {rid!r}")
    for rid in answered:
        if rid not in seen:
            violations.append(f"{rid}: answered but not audited")
    for r in records[PREBUILT_RECORDS:]:
        if r.request_id in want and r.decision != want[r.request_id]:
            violations.append(f"{r.request_id}: audited {r.decision}, "
                              f"expected {want[r.request_id]}")
    return violations


def check_forwarding(received: list[bytes], outcomes: list[Outcome],
                     expected: dict[bytes, str]) -> list[str]:
    """Enforce mode: the upstream sees exactly the Proven bodies, byte for
    byte. A request lost in transport may or may not have been forwarded."""
    got = Counter(received)
    sent = Counter(o.body for o in outcomes
                   if o.send_ns and expected[o.body] == "Proven")
    answered = Counter(o.body for o in outcomes
                       if o.status is not None and expected[o.body] == "Proven")
    violations = [f"upstream received a body that is not a sent Proven body: "
                  f"{body[:80]!r}" for body in got - sent]
    violations += [f"Proven body never reached the upstream: {body[:80]!r}"
                   for body in answered - got]
    return violations


def summary_metrics(run: GatewayRun) -> dict[str, float]:
    return {
        "setup_s": median(run.setup_s),
        "ops_per_s": run.ok / run.elapsed_s if run.elapsed_s > 0 else 0.0,
        "latency_p50_us": percentile(run.latency_us, 50),
        "latency_p95_us": percentile(run.latency_us, 95),
        "cpu_us_per_op": run.cpu_s * 1e6 / max(1, run.ok),
        "rss_mb": run.rss_mb,
        "ok_frac": run.ok / max(1, run.attempted),
        "chain_verify_rps": run.chain_rps,
    }
