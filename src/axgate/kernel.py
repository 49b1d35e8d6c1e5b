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

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .canonical import (
    canonical_bytes,
    json_string,
    plain_value,
    sha256_hex,
    value_json,
)
from .compiler import PolicyEnvironment
from .syntax import (
    LEAF_NAMES,
    OPERATOR_NAMES,
    Atom,
    Binary,
    BoolLit,
    BoolOp,
    Compare,
    Expr,
    Lit,
    Name,
    StrLit,
    Sym,
    Unary,
    children,
    op_name,
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
        return canonical_bytes(self.to_plain())


@dataclass(frozen=True, slots=True)
class RefusalCause:
    reason: str
    axiom_id: str | None = None
    symbol: str | None = None

    def to_plain(self) -> dict:
        return {"reason": self.reason, "axiom": self.axiom_id, "symbol": self.symbol}


class VerificationResult:
    """The decision on one action, its causes, and its canonical trace.

    `trace` is given as a ProofTrace, or by verify() as the walk it made;
    then the ProofTrace, valuation trees included, is built on first read
    from the condition ASTs and the values the walk recorded.
    """

    __slots__ = ("decision", "_trace", "trace_digest", "refusal_causes",
                 "trace_bytes")

    def __init__(self, decision: str, trace, trace_digest: str,
                 refusal_causes: tuple[RefusalCause, ...],
                 trace_bytes: bytes) -> None:
        self.decision = decision
        self._trace = trace
        self.trace_digest = trace_digest
        self.refusal_causes = refusal_causes
        # the trace.canonical() bytes that trace_digest hashes
        self.trace_bytes = trace_bytes

    @property
    def trace(self) -> ProofTrace:
        trace = self._trace
        if type(trace) is _Walk:
            trace = self._trace = trace.materialise()
        return trace

    @property
    def bindings(self) -> Mapping[str, object]:
        """The closed bindings, without materialising the trace."""
        return self._trace.bindings

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


def _sym_leaf(symbol: str, value_text: str) -> str:
    return _SYM_TEXT % (json_string(symbol), value_text)


def _bind(request: ActionRequest, state: SystemState, env: PolicyEnvironment,
          plan):
    """Resolve every needed symbol from its declared origin only.

    Unregistered request params and state facts are never consulted: the
    plan's symbol lists come from the registry, so injected context simply
    does not exist as far as the kernel is concerned.

    Each bound value is encoded once: `encoded` maps a symbol to its
    canonical JSON value, `leaves` to its whole `sym` trace node.
    """
    bindings: dict[str, object] = {}
    provenance: dict[str, str] = {}
    encoded: dict[str, str] = {}
    leaves: dict[str, str] = {}
    failures: list[tuple[str, str]] = []
    registry = env.registry

    def bind(symbol: str, value: object, origin: str) -> None:
        bindings[symbol] = value
        provenance[symbol] = origin
        text = encoded[symbol] = value_json(value)
        leaves[symbol] = _sym_leaf(symbol, text)

    params = request.params
    for symbol in plan.request_symbols:
        if symbol not in params:
            failures.append((symbol, DETAIL_MISSING))
        elif not _kind_matches(params[symbol], registry.get(symbol)):
            failures.append((symbol, DETAIL_KIND))
        else:
            bind(symbol, params[symbol], "request")

    facts = state.facts
    for symbol in plan.state_symbols:
        if facts is None or symbol not in facts:
            failures.append((symbol, DETAIL_MISSING))
        elif not _kind_matches(facts[symbol], registry.get(symbol)):
            failures.append((symbol, DETAIL_KIND))
        else:
            bind(symbol, facts[symbol], "state")

    for symbol in plan.derived_symbols:  # dependency order
        try:
            # only the value: the node values and texts are dropped
            value = _walk(registry.get(symbol).derived, bindings, leaves,
                          [])[0]
        except KeyError:
            continue  # an input did not bind; its failure is already recorded
        except _EvalFault:
            failures.append((symbol, DETAIL_EVAL))
            continue
        bind(symbol, value, "derived")

    return bindings, provenance, encoded, leaves, tuple(failures)


# Evaluation ------------------------------------------------------------------
#
# One walk per condition gives each node's exact value together with the
# node's canonical JSON text, so the trace bytes are joined from the texts
# and no valuation tree is built on the decision path. The walk appends
# every node's value to `values` in post-order; `_tree` rebuilds the
# ValNode tree from the AST and those values when a trace is read.
#
# Node texts have their keys in canonical (sorted) order: kids, op, ref,
# value. Boolean connectives do not short-circuit: the trace carries the
# value of both sides, and totality is guaranteed by the compile-time rules.


def _arith(op: str, left, right):
    try:
        if type(left) is Money:
            if type(right) is Money:
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
        if type(right) is Money:
            if op == "*":
                return Money(left * right.minor, right.ccy)
            raise _EvalFault(f"rational {op} money")
        return _ARITH[op](left, right)
    except (TypeError, ZeroDivisionError) as exc:
        raise _EvalFault(str(exc)) from exc


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}
_COMPARE_FNS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                ">=": operator.ge, "==": operator.eq, "!=": operator.ne}


# Node text formats, with op names from the syntax vocabulary. A leaf takes
# its ref text (sym, atom) and its value text; an operator node takes each
# kid's text, then its value text.
_LIT_TEXT = '{"op":"%s","value":%%s}' % LEAF_NAMES[Lit]
_BOOL_TEXT = '{"op":"%s","value":%%s}' % LEAF_NAMES[BoolLit]
_STR_TEXT = '{"op":"%s","value":%%s}' % LEAF_NAMES[StrLit]
_SYM_TEXT = '{"op":"%s","ref":%%s,"value":%%s}' % LEAF_NAMES[Sym]
_ATOM_TEXT = '{"op":"%s","ref":%%s,"value":%%s}' % LEAF_NAMES[Atom]
_UNARY_TEXT = {op: '{"kids":[%%s],"op":"%s","value":%%s}' % name
               for op, name in OPERATOR_NAMES[Unary].items()}


def _pair_text(name: str) -> str:
    """Format of a two-kid node: left text, right text, value text."""
    return '{"kids":[%%s,%%s],"op":"%s","value":%%s}' % name


_BINARY_TEXT = {op: _pair_text(name)
                for op, name in OPERATOR_NAMES[Binary].items()}
_COMPARE = {op: (fn, _pair_text(OPERATOR_NAMES[Compare][op]))
            for op, fn in _COMPARE_FNS.items()}
_BOOLOP_TEXT = {op: _pair_text(name)
                for op, name in OPERATOR_NAMES[BoolOp].items()}


def _walk(expr: Expr, bindings, leaves, values) -> tuple[object, str]:
    """(value, canonical JSON text) of one expression node."""
    return _WALK[type(expr)](expr, bindings, leaves, values)


def _walk_lit(expr: Lit, bindings, leaves, values):
    value = expr.value
    values.append(value)
    return value, _LIT_TEXT % value_json(value)


def _walk_sym(expr: Sym, bindings, leaves, values):
    value = bindings[expr.symbol]  # KeyError: the symbol did not bind
    values.append(value)
    return value, leaves[expr.symbol]


def _walk_compare(expr: Compare, bindings, leaves, values):
    left, right = expr.left, expr.right
    left_value, left_text = _WALK[type(left)](left, bindings, leaves, values)
    right_value, right_text = _WALK[type(right)](right, bindings, leaves,
                                                 values)
    compare, text = _COMPARE[expr.op]
    try:
        if type(left_value) is Money and type(right_value) is Money:
            value = compare(left_value.minor, right_value.minor)
        else:
            value = compare(left_value, right_value)
    except TypeError as exc:
        raise _EvalFault(str(exc)) from exc
    values.append(value)
    return value, text % (left_text, right_text,
                          "true" if value else "false")


def _walk_binary(expr: Binary, bindings, leaves, values):
    left, right = expr.left, expr.right
    left_value, left_text = _WALK[type(left)](left, bindings, leaves, values)
    right_value, right_text = _WALK[type(right)](right, bindings, leaves,
                                                 values)
    value = _arith(expr.op, left_value, right_value)
    values.append(value)
    return value, _BINARY_TEXT[expr.op] % (left_text, right_text,
                                           value_json(value))


def _walk_boolop(expr: BoolOp, bindings, leaves, values):
    left, right = expr.left, expr.right
    left_value, left_text = _WALK[type(left)](left, bindings, leaves, values)
    right_value, right_text = _WALK[type(right)](right, bindings, leaves,
                                                 values)
    value = (left_value and right_value) if expr.op == "and" \
        else (left_value or right_value)
    values.append(value)
    return value, _BOOLOP_TEXT[expr.op] % (left_text, right_text,
                                           value_json(value))


def _walk_unary(expr: Unary, bindings, leaves, values):
    kid = expr.operand
    kid_value, kid_text = _WALK[type(kid)](kid, bindings, leaves, values)
    if expr.op == "not":
        value = not kid_value
        value_text = "true" if value else "false"
    else:
        value = Money(-kid_value.minor, kid_value.ccy) \
            if type(kid_value) is Money else -kid_value
        value_text = value_json(value)
    values.append(value)
    return value, _UNARY_TEXT[expr.op] % (kid_text, value_text)


def _walk_boollit(expr: BoolLit, bindings, leaves, values):
    values.append(expr.value)
    return expr.value, _BOOL_TEXT % ("true" if expr.value else "false")


def _walk_strlit(expr: StrLit, bindings, leaves, values):
    values.append(expr.value)
    return expr.value, _STR_TEXT % json_string(expr.value)


def _walk_atom(expr: Atom, bindings, leaves, values):
    text = json_string(expr.atom)
    values.append(expr.atom)
    return expr.atom, _ATOM_TEXT % (text, text)


def _walk_unresolved(expr: Expr, bindings, leaves, values):
    raise _EvalFault(f"unevaluable node {expr!r}")


_WALK = {
    Lit: _walk_lit,
    Sym: _walk_sym,
    Compare: _walk_compare,
    Binary: _walk_binary,
    BoolOp: _walk_boolop,
    Unary: _walk_unary,
    BoolLit: _walk_boollit,
    StrLit: _walk_strlit,
    Atom: _walk_atom,
    Name: _walk_unresolved,
}


def _tree(expr: Expr, values: Iterator) -> ValNode:
    """The valuation tree of `expr`, from its walk's post-order values."""
    kids = tuple(_tree(kid, values) for kid in children(expr))
    ref = None
    if type(expr) is Sym:
        ref = expr.symbol
    elif type(expr) is Atom:
        ref = expr.atom
    return ValNode(op_name(expr), next(values), kids, ref)


def eval_condition(
    condition: Expr, bindings: Mapping[str, object]
) -> tuple[bool, ValNode]:
    """Evaluate a typechecked condition under closed bindings: its truth
    value and its valuation tree, by the walk verify() makes."""
    leaves = {s: _sym_leaf(s, value_json(v)) for s, v in bindings.items()}
    values: list = []
    value = _walk(condition, bindings, leaves, values)[0]
    return bool(value), _tree(condition, iter(values))


# Decision --------------------------------------------------------------------


def decide(trace) -> tuple[str, tuple[RefusalCause, ...]]:
    """Deny-overrides, permit-required combination of a complete trace.

    `trace` is a ProofTrace, or anything whose entries carry axiom_id,
    effect, value and missing. Order of axioms never matters: any satisfied
    forbid refutes, any unevaluated axiom refutes, and otherwise at least
    one satisfied permit is required. An empty trace is therefore refuted.
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


class _Outcome:
    """One axiom's result, as decide() reads a trace entry."""

    __slots__ = ("axiom_id", "effect", "value", "missing")

    def __init__(self, axiom_id: str, effect: str, value: bool | None,
                 missing: tuple[tuple[str, str], ...]) -> None:
        self.axiom_id = axiom_id
        self.effect = effect
        self.value = value
        self.missing = missing


_EVAL_MISSING = (("", DETAIL_EVAL),)
_EVAL_MISSING_TEXT = '[["",%s]]' % json_string(DETAIL_EVAL)


class _Walk:
    """What verify() recorded: enough to decide, and to build the ProofTrace
    (valuation trees included) only when someone reads it."""

    __slots__ = ("env_version", "tool", "entries", "bindings", "provenance",
                 "axioms", "values")

    def __init__(self, env_version, tool, entries, bindings, provenance,
                 axioms, values) -> None:
        self.env_version = env_version
        self.tool = tool
        self.entries = entries
        self.bindings = bindings
        self.provenance = provenance
        self.axioms = axioms  # the plan's axioms, one per entry
        self.values = values  # post-order node values of evaluated entries

    def materialise(self) -> ProofTrace:
        values = iter(self.values)
        entries = tuple(
            TraceEntry(o.axiom_id, o.effect, o.value,
                       None if o.value is None
                       else _tree(axiom.condition, values),
                       o.missing)
            for axiom, o in zip(self.axioms, self.entries))
        return ProofTrace(self.env_version, self.tool, entries,
                          self.bindings, self.provenance)


def verify(
    request: ActionRequest, state: SystemState, env: PolicyEnvironment
) -> VerificationResult:
    """Formulate, evaluate, and decide one action. Never raises: every
    failure mode collapses to a Refuted result with explicit causes.

    The trace bytes are written while the conditions are evaluated; they
    equal `result.trace.canonical()`."""
    plan = env.plan_for(request.tool)
    bindings, provenance, encoded, leaves, failures = \
        _bind(request, state, env, plan)
    failure_detail = dict(failures)

    outcomes: list[_Outcome] = []
    texts: list[str] = []
    values: list = []
    for axiom in plan.axioms:
        head = '{"axiom":%s,"effect":%s,"missing":' % (
            json_string(axiom.id), json_string(axiom.effect))
        # axiom_symbols covers base symbols and derived names, so this also
        # catches derived-evaluation faults recorded under the derived symbol.
        blocked = failures and plan.axiom_symbols[axiom.id] & \
            failure_detail.keys()
        if blocked:
            missing = tuple(sorted((s, failure_detail[s]) for s in blocked))
            outcomes.append(_Outcome(axiom.id, axiom.effect, None, missing))
            texts.append('%s[%s],"tree":null,"value":null}' % (head, ",".join(
                "[%s,%s]" % (json_string(s), json_string(d))
                for s, d in missing)))
            continue
        mark = len(values)
        condition = axiom.condition
        try:
            value, tree_text = _WALK[type(condition)](condition, bindings,
                                                      leaves, values)
        except _EvalFault:
            del values[mark:]
            outcomes.append(_Outcome(axiom.id, axiom.effect, None,
                                     _EVAL_MISSING))
            texts.append('%s%s,"tree":null,"value":null}' % (
                head, _EVAL_MISSING_TEXT))
            continue
        value = bool(value)
        outcomes.append(_Outcome(axiom.id, axiom.effect, value, ()))
        texts.append('%s[],"tree":%s,"value":%s}' % (
            head, tree_text, "true" if value else "false"))

    walk = _Walk(env.version_digest, request.tool, outcomes, bindings,
                 provenance, plan.axioms, values)
    decision, causes = decide(walk)
    symbols = sorted(bindings)
    names = [json_string(s) for s in symbols]
    trace_bytes = (
        '{"bindings":{%s},"entries":[%s],"env":%s,"provenance":{%s},'
        '"tool":%s}' % (
            ",".join([n + ":" + encoded[s] for n, s in zip(names, symbols)]),
            ",".join(texts),
            json_string(env.version_digest),
            ",".join([n + ':"' + provenance[s] + '"'
                      for n, s in zip(names, symbols)]),
            json_string(request.tool),
        )).encode("utf-8")
    return VerificationResult(decision, walk, sha256_hex(trace_bytes), causes,
                              trace_bytes)
