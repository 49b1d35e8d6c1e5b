"""In-memory spans around the public entry points of each axgate layer.

A span is (name, start_ns, end_ns, span_id, parent_id, request_id). The
parent is the innermost span open on the same thread, so a layer's self time
is its duration minus the durations of its direct children. Spans are kept
in memory and written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import http.client
import itertools
import json
import os
import threading
import time
from collections import defaultdict

from common import percentile


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.samples: dict[str, list] = defaultdict(list)
        self._local = threading.local()
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn, *, root: bool = False, request_id_of=None):
        """Return `fn` recording one span per call.

        A root span starts a new request on its thread; the request id of
        the thread (see `set_request_id`) is stamped on every span at exit
        unless `request_id_of(args, kwargs)` supplies one.
        """
        local, spans, ids, clock = self._local, self.spans, self._ids, \
            time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if root:
                local.request_id = ""
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rid = request_id_of(args, kwargs) if request_id_of \
                    else getattr(local, "request_id", "")
                spans.append((name, start, end, span_id, parent, rid))

        return traced

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kwargs))

    def set_request_id(self, request_id: str) -> None:
        self._local.request_id = request_id

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "samples": self.samples}, fh)


def install_kernel_spans(tracer: Tracer) -> None:
    """Spans inside verify(): evaluation, decision and trace digest."""
    from axgate import kernel

    tracer.patch(kernel, "eval_condition", "kernel.eval_condition")
    tracer.patch(kernel, "decide", "kernel.decide")
    tracer.patch(kernel.ProofTrace, "canonical", "ProofTrace.canonical")
    tracer.patch(kernel.ProofTrace, "to_plain", "ProofTrace.to_plain")


def install_gateway_spans(tracer: Tracer) -> None:
    """Spans at every layer boundary the gateway crosses, set up before
    `axgate.gateway.serve` builds the gateway."""
    from axgate import audit, gateway

    install_kernel_spans(tracer)
    tracer.patch(gateway.Gateway, "handle_tool_call", "Gateway.handle_tool_call",
                 root=True)
    parse = gateway._parse_tool_call

    def parse_and_tag(raw):
        parsed = parse(raw)
        if isinstance(parsed, tuple):
            tracer.set_request_id(parsed[0])
        return parsed

    gateway._parse_tool_call = parse_and_tag
    tracer.patch(gateway, "coerce_facts", "gateway.coerce_facts")
    tracer.patch(gateway, "verify", "gateway.verify")
    tracer.patch(gateway, "render_notice", "gateway.render_notice")
    tracer.patch(gateway, "notice_to_plain", "gateway.notice_to_plain")

    submit = tracer.wrap("AuditPump.submit", gateway.AuditPump.submit)
    submitted = itertools.count(1)

    def submit_and_sample(pump, event):
        tracer.samples["audit.queue_depth"].append(
            next(submitted) - pump.records_written)
        return submit(pump, event)

    gateway.AuditPump.submit = submit_and_sample
    tracer.patch(audit.AuditWriter, "append", "AuditWriter.append",
                 request_id_of=lambda args, kwargs: kwargs.get("request_id", ""))
    tracer.patch(os, "fsync", "os.fsync")
    tracer.patch(gateway.Gateway, "_forward", "Gateway._forward")
    tracer.patch(http.client.HTTPConnection, "connect", "HTTPConnection.connect")
    tracer.patch(gateway, "compile_file", "compile_file")
    tracer.patch(gateway, "load_state_file", "load_state_file")
    tracer.patch(audit.AuditWriter, "__init__", "AuditWriter.__init__")


# Analysis -------------------------------------------------------------------


class SpanSet:
    """Spans of one traced run, indexed for self-time and per-parent sums."""

    def __init__(self, spans) -> None:
        self.spans = [tuple(s) for s in spans]
        self.by_id = {s[3]: s for s in self.spans}
        self.child_ns: dict[int, int] = defaultdict(int)
        for name, start, end, _sid, parent, _rid in self.spans:
            if parent:
                self.child_ns[parent] += end - start

    def named(self, *names: str) -> list[tuple]:
        return [s for s in self.spans if s[0] in names]

    def duration_us(self, span) -> float:
        return (span[2] - span[1]) / 1000.0

    def self_us(self, span) -> float:
        return (span[2] - span[1] - self.child_ns[span[3]]) / 1000.0

    def parent_name(self, span) -> str:
        parent = self.by_id.get(span[4])
        return parent[0] if parent else ""

    def sum_by_parent_us(self, names: tuple[str, ...],
                         parent_names: tuple[str, ...]) -> list[float]:
        """Per parent span, the summed duration of its `names` children;
        parents with no such child are left out."""
        totals: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[0] in names and self.parent_name(span) in parent_names:
                totals[span[4]] += span[2] - span[1]
        return [ns / 1000.0 for ns in totals.values()]

    def table(self) -> list[str]:
        """One line per span name: calls, total self time, p50 self time."""
        by_name: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            by_name[span[0]].append(self.self_us(span))
        lines = [f"  {'span':<28} {'calls':>8} {'self_total_ms':>14} "
                 f"{'self_p50_us':>12}"]
        for name, selfs in sorted(by_name.items(),
                                  key=lambda kv: -sum(kv[1])):
            selfs.sort()
            lines.append(f"  {name:<28} {len(selfs):>8} "
                         f"{sum(selfs) / 1000.0:>14.3f} "
                         f"{percentile(selfs, 50):>12.2f}")
        return lines


VERIFY_SPANS = ("gateway.verify", "kernel.verify")


def kernel_layer_metrics(spans: SpanSet) -> dict[str, float]:
    verify = spans.named(*VERIFY_SPANS)
    durations = sorted(spans.duration_us(s) for s in verify)
    return {
        "kernel.verify_us.p50": percentile(durations, 50),
        "kernel.verify_us.p99": percentile(durations, 99),
        "kernel.bind_self_us.p50": percentile(
            sorted(spans.self_us(s) for s in verify), 50),
        "kernel.eval_us.p50": percentile(sorted(spans.sum_by_parent_us(
            ("kernel.eval_condition",), VERIFY_SPANS)), 50),
        "kernel.digest_us.p50": percentile(sorted(spans.sum_by_parent_us(
            ("ProofTrace.canonical",), VERIFY_SPANS)), 50),
    }


def gateway_layer_metrics(spans: SpanSet, samples: dict,
                          client_us: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of a traced gateway run.

    `client_us` maps request id to the client-side send-to-response time,
    which is joined with the server's handle span to give the time spent
    outside the handler (socket, HTTP framing, delayed ACKs).
    """
    def p(values, q):
        return percentile(sorted(values), q)

    handle = spans.named("Gateway.handle_tool_call")
    handle_us = {s[5]: spans.duration_us(s) for s in handle if s[5]}
    outside = [client_us[rid] - us for rid, us in handle_us.items()
               if rid in client_us]
    forwards = spans.named("Gateway._forward")
    connects = [s for s in spans.named("HTTPConnection.connect")
                if spans.parent_name(s) == "Gateway._forward"]
    fsyncs = [spans.duration_us(s) for s in spans.named("os.fsync")
              if spans.parent_name(s) == "AuditWriter.append"]
    handle_name = ("Gateway.handle_tool_call",)
    metrics = kernel_layer_metrics(spans)
    metrics.update({
        "edge.outside_handler_us.p50": p(outside, 50),
        "edge.outside_handler_us.p99": p(outside, 99),
        "gateway.handle_self_us.p50": p([spans.self_us(s) for s in handle], 50),
        "upstream.forward_us.p50": p([spans.duration_us(s) for s in forwards], 50),
        "upstream.connects_per_forward":
            len(connects) / len(forwards) if forwards else 0.0,
        "kernel.trace_plain_us.p50": p(
            [spans.duration_us(s) for s in spans.named("ProofTrace.to_plain")
             if spans.parent_name(s) in handle_name], 50),
        "notices.render_us.p50": p(spans.sum_by_parent_us(
            ("gateway.render_notice", "gateway.notice_to_plain"), handle_name),
            50),
        "values.coerce_us.p50": p(
            [spans.duration_us(s) for s in spans.named("gateway.coerce_facts")
             if spans.parent_name(s) in handle_name], 50),
        "audit.submit_wait_us.p99": p(
            [spans.duration_us(s) for s in spans.named("AuditPump.submit")], 99),
        "audit.queue_depth.max": float(max(samples.get("audit.queue_depth")
                                           or [0])),
        "audit.append_us.p50": p(
            [spans.duration_us(s) for s in spans.named("AuditWriter.append")],
            50),
        "audit.fsync_us.p50": p(fsyncs, 50),
        "audit.fsync_us.p99": p(fsyncs, 99),
        "compiler.compile_ms": p(
            [spans.duration_us(s) for s in spans.named("compile_file")],
            50) / 1000.0,
        # The first load is the startup one; the later ones are the
        # background refresh every state_refresh_secs.
        "gateway.load_state_ms": spans.duration_us(min(
            spans.named("load_state_file"), key=lambda s: s[1])) / 1000.0,
        "audit.recover_tail_ms": p(
            [spans.duration_us(s) for s in spans.named("AuditWriter.__init__")],
            50) / 1000.0,
    })
    return metrics
