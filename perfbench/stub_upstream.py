"""Run axgate's stub upstream in a process of its own.

    python3 perfbench/stub_upstream.py BODIES_OUT

Prints the upstream URL on one line, serves until SIGTERM, then writes every
body it received to BODIES_OUT, each prefixed by its 4-byte big-endian
length, and exits.
"""

from __future__ import annotations

import signal
import struct
import sys
import threading

from axgate.scenario import StubUpstream


def main(out_path: str) -> None:
    done = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: done.set())
    with StubUpstream() as stub:
        print(stub.url, flush=True)
        done.wait()
    with open(out_path, "wb") as fh:
        for body in stub.bodies:
            fh.write(struct.pack(">I", len(body)) + body)


if __name__ == "__main__":
    main(sys.argv[1])
