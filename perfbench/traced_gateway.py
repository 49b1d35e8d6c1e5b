"""Run `axgate.gateway.serve` with a span around each layer's entry point.

    python3 perfbench/traced_gateway.py CONFIG SPANS_OUT

Same as `axgate serve --config CONFIG`, except that the callables listed in
`tracing.install_gateway_spans` record spans, which are written to SPANS_OUT
as JSON when the gateway has shut down (SIGTERM or SIGINT).
"""

from __future__ import annotations

import sys

from tracing import Tracer, install_gateway_spans


def main(config_path: str, spans_path: str) -> None:
    from axgate import gateway

    tracer = Tracer()
    install_gateway_spans(tracer)
    config = gateway.load_config(config_path)
    try:
        gateway.serve(config)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
