"""Host-speed reference: CPU-bound timings reported at a fixed host speed.

The shared host this benchmark runs on changes speed by 1.5-1.9x over
seconds to minutes, with negligible steal time, so a CPU-bound figure timed
on the wall clock measures the host as much as the program. Every such
figure is therefore timed between two short runs of a fixed reference
workload and converted to the seconds it would have taken on a host that
runs `REF_RATE` reference rounds per second:

    scaled_s = raw_s * (mean reference rate around it) / REF_RATE

The reference uses only the standard library (JSON, SHA-256, exact
fractions, frozen dataclasses: the kinds of work the kernel and the audit
chain do), never axgate, so no change to the program can move it. Only work
done in the benchmark's own thread is scaled: the whole kernel workload and
`verify_chain`. The gateway process's figures stay on the wall and CPU
clocks, because a reference timed beside it would compete with it for the
cores. The kernel report prints the reference rates and the unscaled rate.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from fractions import Fraction

REF_RATE = 5000.0   # reference rounds per second of the nominal host
SLICE_S = 0.05      # length of one reference measurement

_DOC = {f"k{i}": [i, str(i) * 3, {"a": i, "b": [1, 2, 3]}] for i in range(20)}


@dataclass(frozen=True, slots=True)
class _Node:
    op: str
    left: object
    right: object


def _tree(depth: int, i: int):
    if depth == 0:
        return Fraction(i % 7 + 1, i % 5 + 2)
    return _Node("+-*"[(depth + i) % 3], _tree(depth - 1, 2 * i),
                 _tree(depth - 1, 2 * i + 1))


_TREE = _tree(5, 1)


def _evaluate(node, out: list):
    if isinstance(node, Fraction):
        return node
    a, b = _evaluate(node.left, out), _evaluate(node.right, out)
    value = a + b if node.op == "+" else a - b if node.op == "-" else a * b
    out.append((node.op, str(value)))
    return value


def _round() -> None:
    text = json.dumps(_DOC, sort_keys=True)
    json.loads(text)
    hashlib.sha256(text.encode()).hexdigest()
    steps: list = []
    _evaluate(_TREE, steps)
    hashlib.sha256(json.dumps(steps, separators=(",", ":")).encode()).digest()


def rate(seconds: float = SLICE_S) -> float:
    """Reference rounds per wall-clock second, over about `seconds`."""
    clock = time.perf_counter
    rounds = 0
    start = clock()
    stop = start + seconds
    while True:
        _round()
        rounds += 1
        now = clock()
        if now >= stop:
            return rounds / (now - start)


def factor(rate_before: float, rate_after: float) -> float:
    """Multiplier from raw seconds to seconds at `REF_RATE`."""
    return (rate_before + rate_after) / 2.0 / REF_RATE


def timed(fn, *args):
    """(fn(*args), its seconds at REF_RATE)."""
    before = rate()
    t0 = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - t0
    return result, seconds * factor(before, rate())

