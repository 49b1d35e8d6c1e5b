"""Deterministic back-translation of refusals into adverse-action notices.

A notice is a pure function of the verification result and the policy
environment: explain templates interpolate the display names and the exact
bound values recorded in the proof trace, never anything invented. Rounded
decimals carry an explicit approximation marker.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .canonical import to_plain
from .compiler import PolicyEnvironment
from .kernel import (
    REASON_BINDING,
    REASON_EVALUATION,
    REASON_FORBID,
    REASON_NO_PERMIT,
    RefusalCause,
    VerificationResult,
)
from .registry import template_slots
from .values import Money, render_value


@dataclass(frozen=True, slots=True)
class CitedValue:
    symbol: str
    display: str
    value: object  # exact typed value from the trace
    rendered: str


@dataclass(frozen=True, slots=True)
class CitedAxiom:
    axiom_id: str
    concepts: tuple[CitedValue, ...]
    thresholds: tuple[str, ...]  # rendered literal constants of the condition


@dataclass(frozen=True, slots=True)
class AdverseActionNotice:
    request_id: str
    lines: tuple[str, ...]
    cited_axioms: tuple[CitedAxiom, ...]

    def render(self) -> str:
        return "\n".join(self.lines)


def _walk(node):
    """Every node of a valuation tree, in pre-order."""
    yield node
    for kid in node.kids:
        yield from _walk(kid)


def _display(env: PolicyEnvironment, symbol: str) -> str:
    decl = env.registry.get(symbol)
    return decl.display if decl is not None else symbol


def _interpolate(template: str, bindings, env: PolicyEnvironment) -> str:
    out = template
    for slot in template_slots(template):
        if slot in bindings:
            out = out.replace("{%s}" % slot, render_value(bindings[slot]))
        else:
            out = out.replace(
                "{%s}" % slot, f"<{_display(env, slot)}: unavailable>"
            )
    return out


def render_notice(
    result: VerificationResult,
    env: PolicyEnvironment,
    request_id: str = "",
) -> AdverseActionNotice:
    """Build the plain-language notice for a refuted result.

    Total over anything the kernel can produce: unknown axiom ids and
    unevaluated entries degrade to fixed sentences, never to an exception.
    """
    return render_notice_from_parts(
        result.refusal_causes, result.trace, env, request_id
    )


def render_notice_from_parts(
    causes: tuple[RefusalCause, ...],
    trace,
    env: PolicyEnvironment,
    request_id: str = "",
) -> AdverseActionNotice:
    axioms_by_id = {a.id: a for a in env.axioms}
    entries_by_id = {e.axiom_id: e for e in trace.entries} if trace is not None else {}
    bindings = dict(trace.bindings) if trace is not None else {}

    lines: list[str] = []
    cited: list[CitedAxiom] = []
    seen_binding_symbols: set[str] = set()

    for cause in causes:
        if cause.reason == REASON_FORBID:
            axiom = axioms_by_id.get(cause.axiom_id)
            if axiom is not None and axiom.explain:
                lines.append(_interpolate(axiom.explain, bindings, env))
            else:
                lines.append(f"Action blocked by policy rule '{cause.axiom_id}'.")
            if axiom is None:
                continue
            entry = entries_by_id.get(axiom.id)
            concepts = []
            thresholds: tuple[str, ...] = ()
            if entry is not None and entry.tree is not None:
                symbols = sorted(
                    {n.ref for n in _walk(entry.tree) if n.op == "sym"}
                )
                concepts = [
                    CitedValue(s, _display(env, s), bindings.get(s),
                               render_value(bindings[s]) if s in bindings else "?")
                    for s in symbols
                ]
                thresholds = tuple(
                    render_value(n.value) for n in _walk(entry.tree)
                    if n.op == "lit"
                )
            cited.append(CitedAxiom(axiom.id, tuple(concepts), thresholds))
        elif cause.reason == REASON_BINDING:
            if cause.symbol in seen_binding_symbols:
                continue
            seen_binding_symbols.add(cause.symbol or "")
            display = _display(env, cause.symbol or "?")
            lines.append(
                f"Decision refused: required information '{display}' "
                f"was not available."
            )
        elif cause.reason == REASON_EVALUATION:
            lines.append(
                "Decision refused: the policy check could not be completed."
            )
        elif cause.reason == REASON_NO_PERMIT:
            lines.append("No policy permits this action.")
        else:
            lines.append("Action refused by policy.")

    if not lines:
        lines.append("Action refused by policy.")
    return AdverseActionNotice(
        request_id=request_id, lines=tuple(lines), cited_axioms=tuple(cited)
    )


def notice_to_plain(notice: AdverseActionNotice) -> dict:
    return {
        "request_id": notice.request_id,
        "lines": list(notice.lines),
        "cited_axioms": [
            {
                "axiom": c.axiom_id,
                "concepts": [
                    {
                        "symbol": v.symbol,
                        "display": v.display,
                        "value": to_plain(v.value),
                        "rendered": v.rendered,
                    }
                    for v in c.concepts
                ],
                "thresholds": list(c.thresholds),
            }
            for c in notice.cited_axioms
        ],
    }


def trace_values(trace) -> list:
    """All exact values recorded in a trace (bindings plus valuation trees)."""
    out = list(trace.bindings.values())
    for entry in trace.entries:
        if entry.tree is not None:
            out.extend(n.value for n in _walk(entry.tree))
    return out


def rendered_trace_values(trace) -> set[str]:
    """Rendered forms of every numeric value in the trace.

    Used by the faithfulness check: every numeral a notice shows must be the
    rendering of some value the trace actually recorded.
    """
    out: set[str] = set()
    for value in trace_values(trace):
        if isinstance(value, (Fraction, Money)):
            out.add(render_value(value))
    return out


__all__ = [
    "AdverseActionNotice",
    "CitedAxiom",
    "CitedValue",
    "notice_to_plain",
    "render_notice",
    "render_notice_from_parts",
    "rendered_trace_values",
    "trace_values",
]
