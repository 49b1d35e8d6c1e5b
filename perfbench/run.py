"""axgate end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads, metric names and units are read
from `BENCHMARK.json` there. With `--trace 0` the last line of standard
output is a JSON object holding every end-to-end metric; with `--trace 1`
the run is made twice, untraced and then with spans around each layer, and
the JSON holds every per-layer metric plus the tracing overhead. Every run
checks its outputs (decisions, audit log, forwarding) and reports `correct`;
the exit status is 1 when they are wrong. The lines before the JSON are a
human-readable report. Working files go to `.perfbench_run/` in the checkout
and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import traceback

from common import (
    WORK_ROOT,
    BenchError,
    import_axgate,
    machine_note,
    make_workdir,
    median,
    percentile,
)
from reference import REF_RATE
from spec import GATEWAY_WORKLOADS, LAYER_MAP, load_spec


def _result(correct: bool, attempted: int, failed: int, values: dict,
            units: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def _print_metrics(values: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"  {name:<32} {values[name]:>14.4f} {unit}")


def _print_layer_map(values: dict, units: dict, exercised: set) -> None:
    print("per-layer metrics (value; should move -> on):")
    for name, unit in units.items():
        moves, on = LAYER_MAP[name]
        mark = "" if name in exercised else "  [not exercised: 0]"
        print(f"  {name:<32} {values[name]:>12.3f} {unit:<5} "
              f"-> {moves} | {on}{mark}")


def gateway_workload(spec, seed: int, seconds: float, workdir,
                     trace: bool) -> dict:
    from gateway_load import run_gateway, summary_metrics
    from tracing import SpanSet, gateway_layer_metrics

    run = run_gateway(seed, seconds, workdir / "untraced")
    _report_gateway("untraced", run)
    e2e = summary_metrics(run)
    correct = not run.violations and run.chain_ok
    attempted, failed = run.attempted, run.attempted - run.ok
    if not trace:
        _print_metrics(e2e, spec.end_to_end)
        return _result(correct, attempted, failed, e2e, spec.end_to_end)

    traced = run_gateway(seed, seconds, workdir / "traced", traced=True)
    _report_gateway("traced", traced)
    spans = SpanSet(traced.spans["spans"])
    layers = gateway_layer_metrics(spans, traced.spans["samples"],
                                   traced.client_us)
    layers["audit.archive_ratio"] = traced.archive_ratio
    traced_e2e = summary_metrics(traced)
    layers["trace.overhead_cpu_us_per_op"] = \
        traced_e2e["cpu_us_per_op"] - e2e["cpu_us_per_op"]
    layers["trace.overhead_latency_p50_us"] = \
        traced_e2e["latency_p50_us"] - e2e["latency_p50_us"]
    print(f"spans ({len(spans.spans)}), self time = span minus child spans:")
    print("\n".join(spans.table()))
    _print_layer_map(layers, spec.per_layer, set(layers))
    correct = correct and not traced.violations and traced.chain_ok
    return _result(correct, attempted + traced.attempted,
                   failed + traced.attempted - traced.ok, layers,
                   spec.per_layer)


def _report_gateway(phase: str, run) -> None:
    from gateway_load import PREBUILT_RECORDS

    failures = ", ".join(f"{k} {v}" for k, v in sorted(run.failures.items()))
    print(f"execute_closed ({phase}): attempted {run.attempted}, ok {run.ok}, "
          f"failed {run.attempted - run.ok}"
          + (f" ({failures})" if failures else ""))
    print(f"  latency samples {len(run.latency_us)}, p99 "
          f"{percentile(run.latency_us, 99):.0f} us")
    print(f"  setup launches {len(run.setup_s)} on a {PREBUILT_RECORDS}-record "
          f"audit log, median {median(run.setup_s):.3f} s; chain ok "
          f"{run.chain_ok}")
    for violation in run.violations[:20]:
        print(f"  VIOLATION {violation}")
    if len(run.violations) > 20:
        print(f"  ... {len(run.violations) - 20} more violations")


def kernel_workload(spec, seed: int, seconds: float, workdir,
                    trace: bool) -> dict:
    from kernel_load import run_kernel, summary_metrics
    from tracing import SpanSet, Tracer, kernel_layer_metrics

    tracer = Tracer() if trace else None
    run, traced = run_kernel(seed, seconds, workdir, tracer)
    timed = run.decisions
    print(f"kernel_randgen: {timed.ops} decisions over {run.policies} "
          f"policies (latency p99 {timed.latency_us(99):.1f} us), mismatches "
          f"against the oracle {timed.mismatches}, chain ok {run.chain_ok} "
          f"over {run.chain_records} audit records; {len(run.setup_s)} "
          f"set-up probes")
    print(f"  host speed: reference median {median(timed.ref_rates):.0f} "
          f"rounds/s, range {min(timed.ref_rates):.0f}-"
          f"{max(timed.ref_rates):.0f} (nominal {REF_RATE:.0f}); unscaled "
          f"{timed.ops / timed.raw_elapsed_s:.1f} decisions/s")
    e2e = summary_metrics(run)
    correct = timed.mismatches == 0 and run.chain_ok
    if traced is None:
        _print_metrics(e2e, spec.end_to_end)
        return _result(correct, timed.ops, timed.mismatches, e2e,
                       spec.end_to_end)

    spans = SpanSet(tracer.spans)
    layers = dict.fromkeys(spec.per_layer, 0.0)
    layers.update(kernel_layer_metrics(spans))
    layers["compiler.compile_ms"] = e2e["setup_s"] * 1000.0 / run.policies
    layers["trace.overhead_cpu_us_per_op"] = \
        traced.cpu_s * 1e6 / traced.ops - e2e["cpu_us_per_op"]
    layers["trace.overhead_latency_p50_us"] = \
        traced.latency_us(50) - e2e["latency_p50_us"]
    print(f"spans ({len(spans.spans)}) over {traced.ops} traced decisions, "
          f"self time = span minus child spans:")
    print("\n".join(spans.table()))
    _print_layer_map(layers, spec.per_layer,
                     {n for n in layers if n.startswith("kernel.")
                      and n != "kernel.trace_plain_us.p50"}
                     | {"compiler.compile_ms", "trace.overhead_cpu_us_per_op",
                        "trace.overhead_latency_p50_us"})
    correct = correct and traced.mismatches == 0
    return _result(correct, timed.ops + traced.ops,
                   timed.mismatches + traced.mismatches, layers,
                   spec.per_layer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an error, so the `finally` blocks stop every
    # child process this run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        spec = load_spec()
        if args.workload not in spec.workloads:
            raise BenchError(f"unknown workload {args.workload!r}; choose "
                             f"from {', '.join(spec.workloads)}")
        seconds = spec.run_seconds if args.seconds is None else args.seconds
        if seconds <= 0:
            raise BenchError("--seconds must be positive")
        import_axgate()
        workdir = make_workdir(args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(machine_note(workdir))
        print(f"workload {args.workload}: {spec.workloads[args.workload]}")
        print(f"seed {args.seed}, {seconds:g} s measured, trace {args.trace}")
        run = (gateway_workload if args.workload in GATEWAY_WORKLOADS
               else kernel_workload)
        result = run(spec, args.seed, seconds, workdir, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
