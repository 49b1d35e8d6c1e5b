"""Kernel workload: in-process verify() over a seeded randgen pool.

The pool holds POOL_SIZE instances over POOL_SIZE / ENV_REUSE distinct
environments, with randgen's default share of derived chains, missing
facts, wrong-kind probes and out-of-scope tools. The timed loop cycles
through the pool, so memory does not grow with speed. An untimed first pass
over the pool fills each environment's binding-plan cache and writes one
audit record per decision, the log `chain_verify_rps` is measured on.
Every timing is reported at the reference host speed of reference.py.
"""

from __future__ import annotations

import gc
import itertools
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import reference
from common import median, proc_peak_rss_mb
from gateway_load import chain_pass

POOL_SIZE = 6000
ENV_REUSE = 6
# The timed loop runs in SEGMENTS parts with a set-up probe (compile every
# policy) and CHAIN_PASSES chain passes before the first and after each, so
# those figures sample the same stretch of machine time as the loop.
SEGMENTS = 6
CHAIN_PASSES = 2
# verify() runs in slices of this length with a reference measurement
# between each two, and each slice is scaled by the rates on either side.
SLICE_S = 0.2
BUCKET_NS = 100


@dataclass
class Decisions:
    """Timed verify() calls over the pool, resuming where the last call to
    `run` stopped. Times are at the reference host speed (see
    reference.py), except `raw_elapsed_s`."""

    pool: list
    expected: list
    ops: int = 0
    mismatches: int = 0
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    raw_elapsed_s: float = 0.0
    ref_rates: list = field(default_factory=list)
    latency_hist: Counter = field(default_factory=Counter)  # ns // BUCKET_NS

    def __post_init__(self) -> None:
        self._next = itertools.cycle(zip(self.pool, self.expected)).__next__

    def run(self, seconds: float = 1e9, max_ops: int | None = None) -> None:
        deadline = time.perf_counter() + seconds
        before = reference.rate()
        self.ref_rates.append(before)
        start_ops = self.ops
        while True:
            left = None if max_ops is None else max_ops - (self.ops - start_ops)
            ops, elapsed, cpu, hist = self._slice(
                min(SLICE_S, deadline - time.perf_counter()), left)
            after = reference.rate()
            self.ref_rates.append(after)
            scale = reference.factor(before, after)
            self.ops += ops
            self.elapsed_s += elapsed * scale
            self.cpu_s += cpu * scale
            self.raw_elapsed_s += elapsed
            for bucket, n in hist.items():
                self.latency_hist[int((bucket + 0.5) * scale)] += n
            before = after
            if ops == left or time.perf_counter() >= deadline:
                return

    def _slice(self, seconds: float, max_ops: int | None):
        """(ops, wall seconds, CPU seconds, latency histogram) of verify()
        calls for about `seconds`, at least one call."""
        from axgate import kernel

        hist: Counter = Counter()
        take, clock = self._next, time.perf_counter_ns
        ops = mismatches = 0
        cpu0 = time.process_time()
        start = clock()
        stop = start + int(seconds * 1e9)
        while True:
            inst, want = take()
            t0 = clock()
            result = kernel.verify(inst.request, inst.state, inst.env)
            t1 = clock()
            hist[(t1 - t0) // BUCKET_NS] += 1
            ops += 1
            if result.decision != want:
                mismatches += 1
            if t1 >= stop or ops == max_ops:
                break
        elapsed = (clock() - start) / 1e9
        self.mismatches += mismatches
        return ops, elapsed, time.process_time() - cpu0, hist

    def latency_us(self, q: float) -> float:
        rank = max(1, -(-self.ops * q // 100))
        seen = 0
        for bucket in sorted(self.latency_hist):
            seen += self.latency_hist[bucket]
            if seen >= rank:
                return (bucket + 0.5) * BUCKET_NS / 1000.0
        return 0.0


@dataclass
class KernelRun:
    decisions: Decisions
    setup_s: list[float]
    policies: int
    rss_mb: float
    chain_ok: bool
    chain_records: int
    chain_rps: float


def build_pool(seed: int):
    from axgate.oracle import oracle_verify
    from axgate.randgen import iter_instances

    pool = list(iter_instances(seed, POOL_SIZE, env_reuse=ENV_REUSE))
    expected = [oracle_verify(i.request, i.state, i.env) for i in pool]
    return pool, expected


def write_decision_log(path: Path, pool, expected) -> int:
    """Decide every instance of the pool once and audit each decision, as
    the gateway's audit pump does. Returns the number of mismatches
    against the oracle."""
    from axgate import kernel
    from axgate.audit import AuditWriter

    mismatches = 0
    with AuditWriter(str(path), fsync=False) as writer:
        for inst, want in zip(pool, expected):
            result = kernel.verify(inst.request, inst.state, inst.env)
            mismatches += result.decision != want
            writer.append(
                ts_ns=time.time_ns(),
                request_id=inst.request.request_id,
                tool=inst.request.tool,
                env_version=inst.env.version_digest,
                decision=result.decision,
                trace_digest=result.trace_digest,
                refusal_causes=tuple((c.reason, c.axiom_id, c.symbol)
                                     for c in result.refusal_causes),
                enforced=False,
            )
    return mismatches


def compile_all(sources: list[str]) -> None:
    """compile_source every distinct policy of the pool once."""
    from axgate.compiler import compile_source

    for source in sources:
        compile_source(source)


def run_kernel(seed: int, seconds: float, workdir: Path,
               tracer=None) -> tuple[KernelRun, Decisions | None]:
    """The timed run, and with a tracer one more pass over the pool with
    spans inside verify()."""
    from axgate import kernel
    from tracing import install_kernel_spans

    pool, expected = build_pool(seed)
    # The pool lives for the whole run; keep the collector from rescanning it
    # on every collection it makes inside the timed regions.
    gc.freeze()
    sources = list(dict.fromkeys(inst.source for inst in pool))
    log_path = workdir / "audit.log"
    setup, chain_oks, chain_records, chain_s = [], [], [], []

    def probe() -> None:
        setup.append(reference.timed(compile_all, sources)[1])
        for _ in range(CHAIN_PASSES):
            ok, records, seconds = chain_pass(log_path)
            chain_oks.append(ok)
            chain_records.append(records)
            chain_s.append(seconds)

    timed = Decisions(pool, expected,
                      mismatches=write_decision_log(log_path, pool, expected))
    probe()
    for _ in range(SEGMENTS):
        timed.run(seconds / SEGMENTS)
        probe()
    run = KernelRun(decisions=timed, setup_s=setup, policies=len(sources),
                    rss_mb=proc_peak_rss_mb(),
                    # one record per instance, chain intact on every pass
                    chain_ok=all(chain_oks) and chain_records[0] == len(pool),
                    chain_records=chain_records[0],
                    chain_rps=sum(chain_records) / sum(chain_s))
    if tracer is None:
        return run, None
    install_kernel_spans(tracer)
    tracer.patch(kernel, "verify", "kernel.verify")
    traced = Decisions(pool, expected)
    traced.run(max_ops=len(pool))
    return run, traced


def summary_metrics(run: KernelRun) -> dict[str, float]:
    decisions = run.decisions
    return {
        "setup_s": median(run.setup_s),
        "ops_per_s": decisions.ops / decisions.elapsed_s,
        "latency_p50_us": decisions.latency_us(50),
        "latency_p95_us": decisions.latency_us(95),
        "cpu_us_per_op": decisions.cpu_s * 1e6 / decisions.ops,
        "rss_mb": run.rss_mb,
        "ok_frac": (decisions.ops - decisions.mismatches) / decisions.ops,
        "chain_verify_rps": run.chain_rps,
    }
