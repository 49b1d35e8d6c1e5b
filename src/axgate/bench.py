"""Latency microbenchmarks for the verification hot path.

Measures verify() wall time only: no request parsing, no network, no audit
I/O anywhere near the timed region. Per-call timings are collected with
perf_counter_ns, warmup iterations are discarded, and percentiles are read
off the sorted samples.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass
from typing import Sequence

from .compiler import PolicyEnvironment
from .kernel import ActionRequest, SystemState, verify


class InsufficientSamplesError(ValueError):
    pass


@dataclass(frozen=True)
class LatencyReport:
    samples: int
    p50_ns: int
    p90_ns: int
    p99_ns: int
    max_ns: int
    axiom_count: int
    warmup_discarded: int
    hardware_note: str

    @property
    def reportable(self) -> bool:
        return self.samples >= 10_000

    def render(self) -> str:
        def us(ns: int) -> str:
            return f"{ns / 1000:.2f} us"

        lines = [
            f"samples: {self.samples}"
            f" (warmup discarded: {self.warmup_discarded})",
            f"axioms in environment: {self.axiom_count}",
            f"p50: {us(self.p50_ns)}   p90: {us(self.p90_ns)}   "
            f"p99: {us(self.p99_ns)}   max: {us(self.max_ns)}",
            f"hardware: {self.hardware_note}",
        ]
        if not self.reportable:
            lines.append("note: fewer than 10000 samples; not a reportable run")
        return "\n".join(lines)


def percentile(sorted_ns: Sequence[int], q: float) -> int:
    if not sorted_ns:
        raise InsufficientSamplesError("no samples")
    index = int(q * (len(sorted_ns) - 1))
    return sorted_ns[index]


def _hardware_note() -> str:
    uname = platform.uname()
    return f"{uname.machine} {uname.system}, python {platform.python_version()}"


def bench(env: PolicyEnvironment, request: ActionRequest, state: SystemState,
          samples: int) -> LatencyReport:
    """Time `samples` verifications of one call against one environment."""
    if samples < 1:
        raise InsufficientSamplesError(f"samples must be >= 1, got {samples}")
    warmup = min(1000, max(16, samples // 10))

    for _ in range(warmup):
        verify(request, state, env)

    timings = []
    clock = time.perf_counter_ns
    for _ in range(samples):
        t0 = clock()
        verify(request, state, env)
        timings.append(clock() - t0)

    timings.sort()
    return LatencyReport(
        samples=len(timings),
        p50_ns=percentile(timings, 0.50),
        p90_ns=percentile(timings, 0.90),
        p99_ns=percentile(timings, 0.99),
        max_ns=timings[-1],
        axiom_count=len(env.axioms),
        warmup_discarded=warmup,
        hardware_note=_hardware_note(),
    )
