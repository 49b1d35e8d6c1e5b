"""The verification kernel: exact, deterministic decisions over one action.

Every intercepted tool call is closed over the policy environment (all
needed symbols bound from their declared origins), evaluated with exact
rational arithmetic while recording the value of every sub-expression, and
decided with permit-required / deny-overrides semantics: any satisfied
forbid refutes, any inability to evaluate refutes, and absence of a
satisfied permit refutes. There is no rounding and no fallback path.

verify() is a pure function of (request.params, request.tool, state.facts,
environment); request ids and timestamps never influence the decision or
the trace digest. It holds no locks and may run concurrently against a
shared environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .canonical import canonical_bytes_plain, plain_value, sha256_hex
from .compiler import PolicyEnvironment
from .syntax import (
    Atom,
    Binary,
    BoolLit,
    BoolOp,
    Compare,
    Expr,
    Lit,
    StrLit,
    Sym,
    Unary,
)
from .values import Money

PROVEN = "Proven"
REFUTED = "Refuted"

REASON_FORBID = "forbid-fired"
REASON_NO_PERMIT = "no-permit-satisfied"
REASON_BINDING = "binding-failure"
REASON_EVALUATION = "evaluation-failure"

DETAIL_MISSING = "missing"
DETAIL_KIND = "kind-mismatch"
DETAIL_EVAL = "evaluation-failure"


@dataclass(frozen=True, slots=True)
class ActionRequest:
    """An intercepted tool call; params carry already-typed values."""

    request_id: str
    tool: str
    params: Mapping[str, object]
    received_at: int = 0  # ns since epoch, informational only


@dataclass(frozen=True, slots=True)
class SystemState:
    """Snapshot of systemic facts; facts=None marks an unreadable source."""

    facts: Mapping[str, object] | None
    as_of: int = 0


@dataclass(frozen=True, slots=True)
class ValNode:
    """One node of a valuation tree: operator, recorded value, children."""

    op: str
    value: object
    kids: tuple["ValNode", ...] = ()
    ref: str | None = None  # symbol or atom name for leaf references

    def to_plain(self) -> dict:
        """Canonical plain form: rationals as "p/q", money as {ccy, minor}."""
        doc: dict = {"op": self.op, "value": plain_value(self.value)}
        if self.ref is not None:
            doc["ref"] = self.ref
        if self.kids:
            doc["kids"] = [k.to_plain() for k in self.kids]
        return doc


@dataclass(frozen=True, slots=True)
class TraceEntry:
    axiom_id: str
    effect: str
    value: bool | None  # None when the axiom could not be evaluated
    tree: ValNode | None
    missing: tuple[tuple[str, str], ...] = ()

    def to_plain(self) -> dict:
        return {
            "axiom": self.axiom_id,
            "effect": self.effect,
            "value": self.value,
            "tree": self.tree.to_plain() if self.tree is not None else None,
            "missing": [list(m) for m in self.missing],
        }


@dataclass(frozen=True, slots=True)
class ProofTrace:
    env_version: str
    tool: str
    entries: tuple[TraceEntry, ...]
    bindings: Mapping[str, object]
    provenance: Mapping[str, str]  # bound symbol -> request | state | derived

    def to_plain(self) -> dict:
        return {
            "env": self.env_version,
            "tool": self.tool,
            "entries": [e.to_plain() for e in self.entries],
            "bindings": {k: plain_value(v) for k, v in self.bindings.items()},
            "provenance": dict(self.provenance),
        }

    def canonical(self) -> bytes:
        return canonical_bytes_plain(self.to_plain())


@dataclass(frozen=True, slots=True)
class RefusalCause:
    reason: str
    axiom_id: str | None = None
    symbol: str | None = None

    def to_plain(self) -> dict:
        return {"reason": self.reason, "axiom": self.axiom_id, "symbol": self.symbol}


@dataclass(frozen=True, slots=True)
class VerificationResult:
    decision: str
    trace: ProofTrace
    trace_digest: str
    refusal_causes: tuple[RefusalCause, ...]
    trace_bytes: bytes  # the trace.canonical() bytes that trace_digest hashes

    @property
    def proven(self) -> bool:
        return self.decision == PROVEN


class _EvalFault(Exception):
    """Internal evaluation fault; collapses to a fail-closed refusal."""


# Binding ---------------------------------------------------------------------


def _kind_matches(value: object, decl) -> bool:
    if decl.kind == "quantity":
        return type(value) is Fraction
    if decl.kind == "money":
        return type(value) is Money and value.ccy == decl.ccy
    if decl.kind == "flag":
        return type(value) is bool
    if decl.kind == "enum":
        return type(value) is str and value in decl.atoms
    if decl.kind == "text":
        return type(value) is str
    return False


def _bind(request: ActionRequest, state: SystemState, env: PolicyEnvironment, plan):
    """Resolve every needed symbol from its declared origin only.

    Unregistered request params and state facts are never consulted: the
    plan's symbol lists come from the registry, so injected context simply
    does not exist as far as the kernel is concerned.
    """
    bindings: dict[str, object] = {}
    provenance: dict[str, str] = {}
    failures: list[tuple[str, str]] = []

    params = request.params
    for symbol in plan.request_symbols:
        if symbol not in params:
            failures.append((symbol, DETAIL_MISSING))
            continue
        value = params[symbol]
        if not _kind_matches(value, env.registry.get(symbol)):
            failures.append((symbol, DETAIL_KIND))
            continue
        bindings[symbol] = value
        provenance[symbol] = "request"

    facts = state.facts
    for symbol in plan.state_symbols:
        if facts is None or symbol not in facts:
            failures.append((symbol, DETAIL_MISSING))
            continue
        value = facts[symbol]
        if not _kind_matches(value, env.registry.get(symbol)):
            failures.append((symbol, DETAIL_KIND))
            continue
        bindings[symbol] = value
        provenance[symbol] = "state"

    for symbol in plan.derived_symbols:  # dependency order
        try:
            bindings[symbol] = _eval_tree(env.registry.get(symbol).derived,
                                          bindings).value
            provenance[symbol] = "derived"
        except KeyError:
            continue  # an input did not bind; its failure is already recorded
        except _EvalFault:
            failures.append((symbol, DETAIL_EVAL))

    return bindings, provenance, tuple(failures)


# Evaluation ------------------------------------------------------------------


def _arith(op: str, left, right):
    try:
        if isinstance(left, Money):
            if isinstance(right, Money):
                if op == "+":
                    return Money(left.minor + right.minor, left.ccy)
                if op == "-":
                    return Money(left.minor - right.minor, left.ccy)
                raise _EvalFault(f"money {op} money")
            if op == "*":
                return Money(left.minor * right, left.ccy)
            if op == "/":
                return Money(left.minor / right, left.ccy)
            raise _EvalFault(f"money {op} rational")
        if isinstance(right, Money):
            if op == "*":
                return Money(left * right.minor, right.ccy)
            raise _EvalFault(f"rational {op} money")
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        return left / right
    except (TypeError, ZeroDivisionError) as exc:
        raise _EvalFault(str(exc)) from exc


def _cmp(op: str, left, right) -> bool:
    if isinstance(left, Money) and isinstance(right, Money):
        left, right = left.minor, right.minor
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "==":
            return left == right
        return left != right
    except TypeError as exc:
        raise _EvalFault(str(exc)) from exc


_BINARY_OP_NAMES = {"+": "add", "-": "sub", "*": "mul", "/": "div"}
_COMPARE_OP_NAMES = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge",
                     "==": "eq", "!=": "ne"}


def _eval_tree(expr: Expr, bindings: Mapping[str, object]) -> ValNode:
    """Exact evaluation that records every sub-expression's value.

    Boolean connectives do not short-circuit: the trace must carry the value
    of both sides, and totality is guaranteed by the compile-time rules.
    """
    if isinstance(expr, Lit):
        return ValNode("lit", expr.value)
    if isinstance(expr, Sym):
        return ValNode("sym", bindings[expr.symbol], ref=expr.symbol)
    if isinstance(expr, Compare):
        left = _eval_tree(expr.left, bindings)
        right = _eval_tree(expr.right, bindings)
        return ValNode(_COMPARE_OP_NAMES[expr.op],
                       _cmp(expr.op, left.value, right.value), (left, right))
    if isinstance(expr, Binary):
        left = _eval_tree(expr.left, bindings)
        right = _eval_tree(expr.right, bindings)
        return ValNode(_BINARY_OP_NAMES[expr.op],
                       _arith(expr.op, left.value, right.value), (left, right))
    if isinstance(expr, BoolOp):
        left = _eval_tree(expr.left, bindings)
        right = _eval_tree(expr.right, bindings)
        value = (left.value and right.value) if expr.op == "and" \
            else (left.value or right.value)
        return ValNode(expr.op, value, (left, right))
    if isinstance(expr, Unary):
        kid = _eval_tree(expr.operand, bindings)
        if expr.op == "not":
            return ValNode("not", not kid.value, (kid,))
        value = Money(-kid.value.minor, kid.value.ccy) \
            if isinstance(kid.value, Money) else -kid.value
        return ValNode("neg", value, (kid,))
    if isinstance(expr, BoolLit):
        return ValNode("bool", expr.value)
    if isinstance(expr, StrLit):
        return ValNode("str", expr.value)
    if isinstance(expr, Atom):
        return ValNode("atom", expr.atom, ref=expr.atom)
    raise _EvalFault(f"unevaluable node {expr!r}")


def eval_condition(
    condition: Expr, bindings: Mapping[str, object]
) -> tuple[bool, ValNode]:
    """Evaluate a typechecked condition under closed bindings."""
    node = _eval_tree(condition, bindings)
    return bool(node.value), node


# Decision --------------------------------------------------------------------


def decide(trace: ProofTrace) -> tuple[str, tuple[RefusalCause, ...]]:
    """Deny-overrides, permit-required combination of a complete trace.

    Order of axioms never matters: any satisfied forbid refutes, any
    unevaluated axiom refutes, and otherwise at least one satisfied permit
    is required. An empty trace is therefore refuted.
    """
    causes: list[RefusalCause] = []
    permit_satisfied = False
    any_unevaluated = False

    for entry in trace.entries:
        if entry.value is None:
            any_unevaluated = True
            for symbol, detail in entry.missing:
                if detail == DETAIL_EVAL:
                    causes.append(RefusalCause(REASON_EVALUATION, entry.axiom_id,
                                               symbol or None))
                else:
                    causes.append(RefusalCause(REASON_BINDING, entry.axiom_id, symbol))
            continue
        if entry.effect == "forbid" and entry.value:
            causes.append(RefusalCause(REASON_FORBID, entry.axiom_id))
        elif entry.effect == "permit" and entry.value:
            permit_satisfied = True

    fired = [c for c in causes if c.reason == REASON_FORBID]
    if fired:
        return REFUTED, tuple(causes)
    if any_unevaluated:
        return REFUTED, tuple(causes)
    if permit_satisfied:
        return PROVEN, ()
    return REFUTED, (RefusalCause(REASON_NO_PERMIT),)


# Verification ----------------------------------------------------------------


def verify(
    request: ActionRequest, state: SystemState, env: PolicyEnvironment
) -> VerificationResult:
    """Formulate, evaluate, and decide one action. Never raises: every
    failure mode collapses to a Refuted result with explicit causes."""
    plan = env.plan_for(request.tool)
    bindings, provenance, failures = _bind(request, state, env, plan)
    failed = {symbol for symbol, _ in failures}
    failure_detail = dict(failures)

    entries: list[TraceEntry] = []
    for axiom in plan.axioms:
        # axiom_symbols covers base symbols and derived names, so this also
        # catches derived-evaluation faults recorded under the derived symbol.
        blocked = plan.axiom_symbols[axiom.id] & failed
        if blocked:
            missing = tuple(sorted((s, failure_detail[s]) for s in blocked))
            entries.append(TraceEntry(axiom.id, axiom.effect, None, None, missing))
            continue
        try:
            value, tree = eval_condition(axiom.condition, bindings)
        except _EvalFault:
            entries.append(TraceEntry(axiom.id, axiom.effect, None, None,
                                      (("", DETAIL_EVAL),)))
            continue
        entries.append(TraceEntry(axiom.id, axiom.effect, value, tree))

    trace = ProofTrace(
        env_version=env.version_digest,
        tool=request.tool,
        entries=tuple(entries),
        bindings=bindings,
        provenance=provenance,
    )
    decision, causes = decide(trace)
    trace_bytes = trace.canonical()
    return VerificationResult(
        decision=decision,
        trace=trace,
        trace_digest=sha256_hex(trace_bytes),
        refusal_causes=causes,
        trace_bytes=trace_bytes,
    )
