"""What the benchmark measures, read from `BENCHMARK.json`, and the layer map.

`BENCHMARK.json` at the checkout root is the one source of the workloads,
metric names, units and bounds. The layer map (which end-to-end metric each
per-layer metric should move, and on which workload) cannot sit there,
because its keys are fixed, so it lives here; every traced run prints it
beside the values.
"""

from __future__ import annotations

import json

from common import ROOT, BenchError

GATEWAY_WORKLOADS = ("execute_closed",)

_ALL = "execute_closed, kernel_randgen"
_KERNEL = "kernel_randgen; cpu_us_per_op on execute_closed"
_KERNEL_MOVES = "ops_per_s, latency_p50_us, latency_p95_us"

# per-layer name -> (end-to-end metrics it should move, workloads)
LAYER_MAP = {
    "edge.outside_handler_us.p50": ("latency_p50_us, ops_per_s",
                                    "execute_closed"),
    "edge.outside_handler_us.p99": ("latency_p50_us, ops_per_s",
                                    "execute_closed"),
    "gateway.handle_self_us.p50": ("cpu_us_per_op", "execute_closed"),
    "upstream.forward_us.p50": ("latency_p50_us, ops_per_s", "execute_closed"),
    "upstream.connects_per_forward": ("latency_p50_us, ops_per_s",
                                      "execute_closed"),
    "kernel.verify_us.p50": (_KERNEL_MOVES, _KERNEL),
    "kernel.verify_us.p99": (_KERNEL_MOVES, _KERNEL),
    "kernel.bind_self_us.p50": (_KERNEL_MOVES, _KERNEL),
    "kernel.eval_us.p50": (_KERNEL_MOVES, _KERNEL),
    "kernel.digest_us.p50": (_KERNEL_MOVES, _KERNEL),
    "kernel.trace_plain_us.p50": ("cpu_us_per_op", "execute_closed"),
    "notices.render_us.p50": ("latency_p50_us",
                              "execute_closed (a small share there)"),
    "values.coerce_us.p50": ("cpu_us_per_op", "execute_closed"),
    "audit.submit_wait_us.p99": ("latency_p95_us", "execute_closed"),
    "audit.queue_depth.max": ("latency_p95_us", "execute_closed"),
    "audit.append_us.p50": ("latency_p95_us", "execute_closed"),
    "audit.fsync_us.p50": ("latency_p95_us", "execute_closed"),
    "audit.fsync_us.p99": ("latency_p95_us", "execute_closed"),
    "audit.archive_ratio": ("latency_p95_us", "execute_closed"),
    "compiler.compile_ms": ("setup_s", _ALL),
    "gateway.load_state_ms": ("setup_s", "execute_closed"),
    "audit.recover_tail_ms": ("setup_s", "execute_closed"),
    "trace.overhead_cpu_us_per_op": (
        "none: traced minus untraced cpu_us_per_op", _ALL),
    "trace.overhead_latency_p50_us": (
        "none: traced minus untraced latency_p50_us", _ALL),
}


class Spec:
    """The parts of `BENCHMARK.json` a run needs."""

    def __init__(self, doc: dict) -> None:
        self.run_seconds = doc["run_seconds"]
        self.workloads = {w["name"]: w["why"] for w in doc["workloads"]}
        self.end_to_end = {m["name"]: m["unit"] for m in doc["end_to_end"]}
        self.per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
        if set(self.per_layer) != set(LAYER_MAP):
            raise BenchError("per-layer metrics of BENCHMARK.json and the "
                             "layer map in spec.py differ: "
                             f"{sorted(set(self.per_layer) ^ set(LAYER_MAP))}")


def load_spec() -> Spec:
    path = ROOT / "BENCHMARK.json"
    try:
        return Spec(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
