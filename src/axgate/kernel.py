"""The verification kernel: exact, deterministic decisions over one action.

Every intercepted tool call is closed over the policy environment (all
needed symbols bound from their declared origins), evaluated with exact
rational arithmetic while recording the value of every sub-expression, and
decided with permit-required / deny-overrides semantics: any satisfied
forbid refutes, any inability to evaluate refutes, and absence of a
satisfied permit refutes. There is no rounding and no fallback path: the
walk evaluates exactly the operand shapes the typechecker admits. Any
other shape, which only a hand-built environment can hold, is an
evaluation failure, so the axiom refuses.

verify() is a pure function of (request.params, request.tool, state.facts,
environment); request ids and timestamps never influence the decision or
the trace digest. It may run concurrently against a shared environment:
the one lock it can take is held while an environment's plans are built,
once, on the first call against that environment.
"""

from __future__ import annotations

import operator
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .canonical import (
    canonical_bytes,
    encodable,
    json_string,
    pair_json,
    plain_value,
    sha256_hex,
)
from .compiler import PolicyEnvironment
from .syntax import (
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
    walk_names,
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

    @property
    def causes(self) -> tuple[RefusalCause, ...]:
        return _entry_causes(self.axiom_id, self.effect, self.value,
                             self.missing)

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
    by walking the condition ASTs again under the same bound values.
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


# Walk values -----------------------------------------------------------------
#
# Inside the walk a quantity is a reduced pair of ints (n, d) with d > 0 and
# money is (n, d, ccy), n/d minor units: the arithmetic and the compares run
# on ints. Flags and strings are themselves. Everything that leaves the
# kernel (bindings, the materialised trace) is a Fraction or Money again.


def _pair(value):
    """The walk's form of a value: Fraction -> (n, d), Money -> (n, d, ccy),
    flags and strings as they are, and None, which has no kind, for any
    other value (a Money whose minor is not a Fraction among them)."""
    t = type(value)
    if t is Fraction:
        return value.as_integer_ratio()
    if t is Money:
        minor = value.minor
        if type(minor) is Fraction:
            return (minor.numerator, minor.denominator, value.ccy)
        return None
    return value if t is bool or t is str else None


def _obj(value):
    """Inverse of _pair."""
    if type(value) is tuple:
        if len(value) == 2:
            return Fraction(*value)
        return Money(Fraction(value[0], value[1]), value[2])
    return value


def _text(value) -> str:
    """Canonical JSON text of a walk value. _EvalFault for one that cannot
    be written: a number past Python's int-to-string digit limit, or a
    string that is not valid Unicode."""
    if type(value) is tuple:
        try:
            return pair_json(value)
        except ValueError:
            raise _EvalFault("too many digits to write") from None
    if type(value) is bool:
        return "true" if value else "false"
    if not encodable(value):
        raise _EvalFault("not valid Unicode")
    return json_string(value)


# Binding ---------------------------------------------------------------------


def _is_quantity(value) -> bool:
    return type(value) is tuple and len(value) == 2


def _is_flag(value) -> bool:
    return type(value) is bool


def _is_text(value) -> bool:
    return type(value) is str


def _is_nothing(value) -> bool:
    """The check for a kind no compiled policy declares: nothing has it."""
    return False


def _kind_check(decl):
    """The check that a walk value has the concept's declared kind: one
    function per kind, closed over the currency or the atoms it needs."""
    kind = decl.kind
    if kind == "money":
        ccy = decl.ccy
        return lambda value: (type(value) is tuple and len(value) == 3
                              and value[2] == ccy)
    if kind == "enum":
        atoms = decl.atoms
        return lambda value: type(value) is str and value in atoms
    return _KIND_CHECKS.get(kind, _is_nothing)


_KIND_CHECKS = {"quantity": _is_quantity, "flag": _is_flag, "text": _is_text}


class _Concept:
    """A concept as the plans that need it hold it, built once per
    environment: its declaration, its kind check on the walk form, the JSON
    text of its name, its `"name":"origin"` provenance text, and for a
    derived one the definition as _bind walks it, folded."""

    __slots__ = ("symbol", "decl", "check", "name", "provenance", "derived")

    def __init__(self, decl) -> None:
        self.symbol = decl.symbol
        self.decl = decl
        self.check = _kind_check(decl)
        self.name = json_string(decl.symbol)
        self.provenance = self.name + ":" + json_string(decl.origin)
        self.derived = decl.derived
        if decl.origin == "derived":
            try:
                self.derived = _fold(decl.derived)[0]
            except (KeyError, _EvalFault):
                pass  # walked as written: it faults or binds nothing


_ABSENT = object()
_NO_SOURCE: Mapping[str, object] = {}


def _bind(request: ActionRequest, state: SystemState, plan: Plan):
    """Resolve every needed symbol from its declared origin only.

    Unregistered request params and state facts are never consulted: the
    plan's concepts come from the registry, so injected context simply does
    not exist as far as the kernel is concerned. A source that is not a
    mapping binds nothing, as an unreadable state does.

    Each value is converted to its walk form, kind-checked and encoded
    once: `bound` maps a bound symbol to its walk value and that value's
    canonical JSON text, in binding order, and `failures` maps a symbol that
    did not bind to its name text and its detail.
    """
    bound: dict[str, tuple] = {}
    failures: dict[str, tuple[str, str]] = {}

    for concepts, source in ((plan.request, request.params),
                             (plan.state, state.facts)):
        if type(source) is not dict and not isinstance(source, Mapping):
            source = _NO_SOURCE
        for concept in concepts:
            value = source.get(concept.symbol, _ABSENT)
            if value is _ABSENT:
                detail = DETAIL_MISSING
            else:
                value = _pair(value)
                if concept.check(value):
                    try:
                        bound[concept.symbol] = (value, _text(value))
                        continue
                    except _EvalFault:  # of its kind, but it cannot be written
                        pass
                detail = DETAIL_KIND
            failures[concept.symbol] = (concept.name, detail)

    for concept in plan.derived:  # dependency order
        try:
            # only the value: the hole texts are dropped
            value = _walk(concept.derived, bound, [])
            if not concept.check(value):  # only a hand-built definition
                detail = DETAIL_KIND
            else:
                bound[concept.symbol] = (value, _text(value))
                continue
        except KeyError:
            continue  # an input did not bind; its failure is already recorded
        except _EvalFault:
            detail = DETAIL_EVAL
        failures[concept.symbol] = (concept.name, detail)

    return bound, failures


# Evaluation ------------------------------------------------------------------
#
# One walk per condition gives each node's exact value. The text of a
# valuation tree is fixed by its condition except for the values of its
# `sym` nodes and of the operator nodes the policy alone does not fix, so
# each axiom has a template with one %s hole per such node, in post-order
# (_Step, _fold). The walk appends each hole's value text to `holes`, and
# the tree text is the template filled with them.
#
# Node texts have their keys in canonical (sorted) order: kids, op, ref,
# value. Boolean connectives do not short-circuit: the trace carries the
# value of both sides, and totality is guaranteed by the compile-time rules.


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne}


def _walk(expr: Expr, bound, holes):
    """The walk value of one expression node; appends its hole texts."""
    return _WALK[type(expr)](expr, bound, holes)


def _walk_lit(expr: Lit, bound, holes):
    return expr.value.as_integer_ratio()


def _walk_sym(expr: Sym, bound, holes):
    value, text = bound[expr.symbol]  # KeyError: the symbol did not bind
    holes.append(text)
    return value


def _walk_compare(expr: Compare, bound, holes):
    left, right = expr.left, expr.right
    left_value = _WALK[type(left)](left, bound, holes)
    right_value = _WALK[type(right)](right, bound, holes)
    compare = _COMPARE[expr.op]
    if type(left_value) is tuple:
        # two rationals, or two amounts in one currency
        if type(right_value) is not tuple or left_value[2:] != right_value[2:]:
            raise _EvalFault(f"no {expr.op} for these operands")
        # rationals, or money by its minor units: d > 0 keeps the order
        value = compare(left_value[0] * right_value[1],
                        right_value[0] * left_value[1])
    elif type(left_value) is type(right_value) and expr.op in ("==", "!="):
        value = compare(left_value, right_value)  # flags, atoms, text
    else:
        raise _EvalFault(f"no {expr.op} for these operands")
    holes.append("true" if value else "false")
    return value


def _walk_binary(expr: Binary, bound, holes):
    """`left op right` on ints: rational op rational, money + or - money in
    one currency, money * or / rational, and rational * money, reduced with
    a positive denominator. The typechecker admits no other operands, so
    any other mix faults."""
    left, right = expr.left, expr.right
    left_value = _WALK[type(left)](left, bound, holes)
    right_value = _WALK[type(right)](right, bound, holes)
    op = expr.op
    if type(left_value) is not tuple or type(right_value) is not tuple:
        raise _EvalFault(f"no {op} for these operands")
    ccy = left_value[2:]  # () for a rational, (code,) for money
    if len(right_value) == 2:
        if ccy and op != "*" and op != "/":
            raise _EvalFault(f"no {op} for these operands")
    elif ccy:
        if (op != "+" and op != "-") or ccy != right_value[2:]:
            raise _EvalFault(f"no {op} for these operands")
    elif op == "*":
        ccy = right_value[2:]
    else:
        raise _EvalFault(f"no {op} for these operands")
    n, d = left_value[0], left_value[1]
    m, e = right_value[0], right_value[1]
    if op == "+":
        n, d = n * e + m * d, d * e
    elif op == "-":
        n, d = n * e - m * d, d * e
    elif op == "*":
        n, d = n * m, d * e
    elif m == 0:
        raise _EvalFault("division by zero")
    else:
        n, d = (n * e, d * m) if m > 0 else (-n * e, -d * m)
    g = gcd(n, d)
    value = (n // g, d // g) + ccy
    holes.append(_text(value))
    return value


def _walk_boolop(expr: BoolOp, bound, holes):
    left, right = expr.left, expr.right
    left_value = _WALK[type(left)](left, bound, holes)
    right_value = _WALK[type(right)](right, bound, holes)
    if type(left_value) is not bool or type(right_value) is not bool:
        raise _EvalFault(f"{expr.op} needs flags")
    value = (left_value and right_value) if expr.op == "and" \
        else (left_value or right_value)
    holes.append("true" if value else "false")
    return value


def _walk_unary(expr: Unary, bound, holes):
    kid = expr.operand
    kid_value = _WALK[type(kid)](kid, bound, holes)
    if expr.op == "not":
        if type(kid_value) is not bool:
            raise _EvalFault("not needs a flag")
        value = not kid_value
        holes.append("true" if value else "false")
        return value
    if type(kid_value) is not tuple:
        raise _EvalFault("- needs a number")
    value = (-kid_value[0],) + kid_value[1:]
    holes.append(_text(value))
    return value


def _walk_literal(expr: BoolLit | StrLit, bound, holes):
    return expr.value


def _walk_atom(expr: Atom, bound, holes):
    return expr.atom


def _walk_unresolved(expr: Expr, bound, holes):
    raise _EvalFault(f"unevaluable node {expr!r}")


def _walk_held(value, bound, holes):
    """A walk value the plan holds in place of a node (see _fold)."""
    return value


_WALK = {
    Lit: _walk_lit,
    Sym: _walk_sym,
    Compare: _walk_compare,
    Binary: _walk_binary,
    BoolOp: _walk_boolop,
    Unary: _walk_unary,
    BoolLit: _walk_literal,
    StrLit: _walk_literal,
    Atom: _walk_atom,
    Name: _walk_unresolved,
    tuple: _walk_held,
    bool: _walk_held,
    str: _walk_held,
}

# Folding ---------------------------------------------------------------------
#
# What the policy alone fixes is evaluated once, when the plans are built
# (_fold): each literal and atom is held as its walk value, and so is each
# operator node whose operands are all held, walked once. The walk returns a
# held value as it is and appends no hole for it: its text, value included,
# is already in the template. A constant node whose walk faults (a zero
# divisor in a hand-built environment, a value too large to write) stays a
# node, so its axiom is an evaluation failure on every call, as unfolded.
# The materialised trace walks the condition as written, so the trace tests
# check the folded walk against an unfolded one.

_HELD = (tuple, bool, str)


def _literal(text: str) -> str:
    """`text` as a literal part of a %-template."""
    return text.replace("%", "%%")


def _fold(expr: Expr):
    """`expr` with what the policy alone fixes held as walk values, and the
    canonical text of its valuation tree as a template: a %s hole for the
    value text of each `sym` node and each operator node left to the walk,
    in post-order. One pass, bottom-up; a node none of whose kids changed is
    `expr` itself. KeyError for an unresolved name or an unknown node; the
    _EvalFault of a literal that cannot be written."""
    name = op_name(expr)  # KeyError: a Name, or no node of the DSL
    t = type(expr)
    if t is Sym:
        return expr, '{"op":"sym","ref":%s,"value":%%s}' % _literal(
            json_string(expr.symbol))
    if t is Atom:
        text = _literal(json_string(expr.atom))
        return expr.atom, '{"op":"atom","ref":%s,"value":%s}' % (text, text)
    kids = children(expr)
    if not kids:  # lit, bool or str
        value = _pair(expr.value)
        text = '{"op":"%s","value":%s}' % (name, _literal(_text(value)))
        if t is Lit and type(expr.value) is not Fraction:
            return expr, text  # hand-built: walked as it is
        return value, text
    folded, texts = zip(*[_fold(kid) for kid in kids])
    head = '{"kids":[%s],"op":"%s","value":' % (",".join(texts), name)
    # one kid or two: the first and the last
    if type(folded[0]) in _HELD and type(folded[-1]) in _HELD:
        node = t(expr.op, *folded)
        holes: list[str] = []
        try:
            value = _WALK[t](node, None, holes)
        except _EvalFault:
            return node, head + "%s}"
        return value, head + _literal(holes[0]) + "}"
    if folded[0] is not kids[0] or folded[-1] is not kids[-1]:
        expr = t(expr.op, *folded)
    return expr, head + "%s}"


def _tree(expr: Expr, bound) -> ValNode:
    """The valuation tree of `expr`: each node's value by the walk verify()
    makes, as a Fraction or Money."""
    kids = tuple(_tree(kid, bound) for kid in children(expr))
    ref = None
    if type(expr) is Sym:
        ref = expr.symbol
    elif type(expr) is Atom:
        ref = expr.atom
    return ValNode(op_name(expr), _obj(_walk(expr, bound, [])), kids, ref)


def eval_condition(
    condition: Expr, bindings: Mapping[str, object]
) -> tuple[bool, ValNode]:
    """Evaluate a typechecked condition under closed bindings: its truth
    value and its valuation tree, by the walk verify() makes."""
    bound = {s: (_pair(v), None) for s, v in bindings.items()}
    value = _walk(condition, bound, [])
    if type(value) is not bool:
        raise _EvalFault("the condition is not a flag")
    return value, _tree(condition, bound)


# Decision --------------------------------------------------------------------


def _entry_causes(axiom_id: str, effect: str, value: bool | None,
                 missing: tuple[tuple[str, str], ...]
                 ) -> tuple[RefusalCause, ...]:
    """The causes one trace entry gives: for an unevaluated axiom, one per
    symbol that did not bind and one for an evaluation failure; one for a
    forbid that fired; none otherwise."""
    if value is None:
        return tuple([
            RefusalCause(REASON_EVALUATION, axiom_id, symbol or None)
            if detail == DETAIL_EVAL
            else RefusalCause(REASON_BINDING, axiom_id, symbol)
            for symbol, detail in missing])
    if value and effect == "forbid":
        return (RefusalCause(REASON_FORBID, axiom_id),)
    return ()


def decide(trace) -> tuple[str, tuple[RefusalCause, ...]]:
    """Deny-overrides, permit-required combination of a complete trace.

    `trace` is a ProofTrace, or anything whose entries carry effect, value
    and causes (`_entry_causes` of the entry). Order of axioms never matters:
    any satisfied forbid refutes, any unevaluated axiom refutes, and
    otherwise at least one satisfied permit is required. An empty trace is
    therefore refuted.
    """
    causes: list[RefusalCause] = []
    permit_satisfied = False
    any_unevaluated = False

    for entry in trace.entries:
        causes += entry.causes  # a fired forbid's, an unevaluated axiom's
        if entry.value is None:
            any_unevaluated = True
        elif entry.effect == "permit" and entry.value:
            permit_satisfied = True

    if causes or any_unevaluated:
        return REFUTED, tuple(causes)
    if permit_satisfied:
        return PROVEN, ()
    return REFUTED, _NO_PERMIT


_NO_PERMIT = (RefusalCause(REASON_NO_PERMIT),)
_EVAL_MISSING = (("", DETAIL_EVAL),)
_EVAL_MISSING_TEXT = '[["",%s]]' % json_string(DETAIL_EVAL)


# Plans -----------------------------------------------------------------------
#
# The first verify() against an environment builds one plan for each tool some
# axiom names and one, under "*", that every other tool shares, and keeps them
# on the environment: no tool name a caller sends adds a plan.


class _Step:
    """One axiom, as every plan it is in holds it: the symbols its condition
    needs (derived ones and all their inputs), its condition folded (see
    _fold), its entry's head and its template: the text of the evaluated
    entry with the tree's holes, then one for the entry's value; and what
    it gives decide(): its causes when it holds (a forbid's one) and its
    cause when its walk faults. A condition with an unresolved name, or
    that is no tree of the DSL, is held as a name, whose walk always
    faults, and its template is empty."""

    __slots__ = ("axiom", "symbols", "condition", "head", "template",
                 "fired", "faulted")

    def __init__(self, axiom, registry) -> None:
        symbols: set[str] = set()
        stack = [axiom.condition]
        while stack:
            for ref in walk_names(stack.pop()):
                # an unresolved name binds nothing: its walk faults
                if type(ref) is Sym and ref.symbol not in symbols:
                    symbols.add(ref.symbol)
                    decl = registry.get(ref.symbol)
                    if decl is not None and decl.origin == "derived" \
                            and decl.derived is not None:
                        stack.append(decl.derived)
        self.axiom = axiom
        self.symbols = frozenset(symbols)
        self.head = '{"axiom":%s,"effect":%s,"missing":' % (
            json_string(axiom.id), json_string(axiom.effect))
        try:
            self.condition, tree = _fold(axiom.condition)
            self.template = '%s[],"tree":%s,"value":%%s}' % (
                _literal(self.head), tree)
        except KeyError:
            self.condition, self.template = _UNRESOLVED, ""
        self.fired = _entry_causes(axiom.id, axiom.effect, True, ())
        (self.faulted,) = _entry_causes(axiom.id, axiom.effect, None,
                                        _EVAL_MISSING)


_UNRESOLVED = Name("")  # the condition of a step with no template


class Plan:
    """A tool's steps, in environment order, and the concepts they need:
    request and state ones in declaration order, derived ones in dependency
    order, and all of them sorted by symbol, the order of the trace's
    bindings and provenance."""

    __slots__ = ("steps", "request", "state", "derived", "trailer")

    def __init__(self, steps: tuple[_Step, ...], env: PolicyEnvironment,
                 concepts: Mapping[str, _Concept]) -> None:
        needed = frozenset().union(*(step.symbols for step in steps))
        self.steps = steps
        self.request, self.state = (
            tuple(concepts[decl.symbol] for decl in env.registry
                  if decl.symbol in needed and decl.origin == origin)
            for origin in ("request", "state"))
        self.derived = tuple(concepts[symbol] for symbol in env.derivation_order
                             if symbol in needed)
        self.trailer = tuple(sorted(self.request + self.state + self.derived,
                                    key=lambda c: c.symbol))


_PLANS_LOCK = threading.Lock()


def plans(env: PolicyEnvironment) -> Mapping[str, Plan]:
    """The environment's plans by tool, "*" for the shared one. The first
    call builds them all, and the concept entries they hold, under a lock
    so that they are built once."""
    built = getattr(env, "_kernel_plans", None)
    if built is None:
        with _PLANS_LOCK:
            built = getattr(env, "_kernel_plans", None)
            if built is None:
                registry = env.registry
                steps = [_Step(axiom, registry) for axiom in env.axioms]
                # one entry per registered symbol some step needs, shared
                concepts = {
                    symbol: _Concept(registry.get(symbol))
                    for symbol in frozenset().union(
                        *(step.symbols for step in steps))
                    if symbol in registry}
                built = env._kernel_plans = {
                    tool: Plan(tuple(step for step in steps
                                     if step.axiom.matches_tool(tool)),
                               env, concepts)
                    for tool in {"*", *(axiom.tool for axiom in env.axioms)}}
    return built


def plan_for(env: PolicyEnvironment, tool: str) -> Plan:
    """The plan verify() follows for `tool`."""
    built = plans(env)
    return built.get(tool) or built["*"]


# Verification ----------------------------------------------------------------


class _Outcome:
    """One axiom's result, as decide() reads a trace entry."""

    __slots__ = ("axiom_id", "effect", "value", "missing", "causes")

    def __init__(self, axiom_id: str, effect: str, value: bool | None,
                 missing: tuple[tuple[str, str], ...],
                 causes: tuple[RefusalCause, ...]) -> None:
        self.axiom_id = axiom_id
        self.effect = effect
        self.value = value
        self.missing = missing
        self.causes = causes


class _Walk:
    """What verify() recorded: enough to decide, and to build the ProofTrace
    (valuation trees included) only when someone reads it."""

    __slots__ = ("env_version", "tool", "entries", "plan", "bound",
                 "_bindings")

    def __init__(self, env_version, tool, entries, plan, bound) -> None:
        self.env_version = env_version
        self.tool = tool
        self.entries = entries
        self.plan = plan  # its steps give one entry each
        self.bound = bound  # the walk values the conditions were walked under
        self._bindings = None

    @property
    def bindings(self) -> dict[str, object]:
        """The bound values as Fractions and Money, built on first read."""
        bindings = self._bindings
        if bindings is None:
            bindings = self._bindings = {
                symbol: _obj(value) for symbol, (value, _) in self.bound.items()}
        return bindings

    @property
    def provenance(self) -> dict[str, str]:
        """Each bound symbol's origin, built when read."""
        bound = self.bound
        return {c.symbol: c.decl.origin for c in self.plan.trailer
                if c.symbol in bound}

    def materialise(self) -> ProofTrace:
        entries = tuple(
            TraceEntry(o.axiom_id, o.effect, o.value,
                       None if o.value is None
                       else _tree(step.axiom.condition, self.bound),
                       o.missing)
            for step, o in zip(self.plan.steps, self.entries))
        return ProofTrace(self.env_version, self.tool, entries,
                          self.bindings, self.provenance)


def verify(
    request: ActionRequest, state: SystemState, env: PolicyEnvironment
) -> VerificationResult:
    """Formulate, evaluate, and decide one action. Never raises: every
    failure mode collapses to a Refuted result with explicit causes.

    The trace bytes are written while the conditions are evaluated; they
    equal `result.trace.canonical()`."""
    if type(request.tool) is not str or not encodable(request.tool):
        return _unnamed_tool(env)
    plan = plan_for(env, request.tool)
    bound, failures = _bind(request, state, plan)

    outcomes: list[_Outcome] = []
    texts: list[str] = []
    for step in plan.steps:
        axiom = step.axiom
        # step.symbols covers base symbols and derived names, so this also
        # catches derived-evaluation faults recorded under the derived symbol.
        blocked = failures and step.symbols & failures.keys()
        if blocked:
            blocked = sorted(blocked)
            missing = tuple([(s, failures[s][1]) for s in blocked])
            outcomes.append(_Outcome(
                axiom.id, axiom.effect, None, missing,
                _entry_causes(axiom.id, axiom.effect, None, missing)))
            texts.append('%s[%s],"tree":null,"value":null}' % (
                step.head,
                ",".join(['[%s,"%s"]' % failures[s] for s in blocked])))
            continue
        condition = step.condition
        holes: list[str] = []
        try:
            value = _WALK[type(condition)](condition, bound, holes)
            if type(value) is not bool:
                raise _EvalFault("the condition is not a flag")
        except (_EvalFault, KeyError):  # KeyError: a symbol with no binding
            outcomes.append(_Outcome(axiom.id, axiom.effect, None,
                                     _EVAL_MISSING, (step.faulted,)))
            texts.append(step.head + _EVAL_MISSING_TEXT
                         + ',"tree":null,"value":null}')
            continue
        outcomes.append(_Outcome(axiom.id, axiom.effect, value, (),
                                 step.fired if value else ()))
        holes.append("true" if value else "false")
        texts.append(step.template % tuple(holes))

    walk = _Walk(env.version_digest, request.tool, outcomes, plan, bound)
    decision, causes = decide(walk)
    bindings_text = []
    provenance_text = []
    for concept in plan.trailer:  # sorted by symbol; the bound ones
        bound_value = bound.get(concept.symbol)
        if bound_value is not None:
            bindings_text.append(concept.name + ":" + bound_value[1])
            provenance_text.append(concept.provenance)
    trace_bytes = (
        '{"bindings":{%s},"entries":[%s],"env":%s,"provenance":{%s},'
        '"tool":%s}' % (
            ",".join(bindings_text),
            ",".join(texts),
            json_string(env.version_digest),
            ",".join(provenance_text),
            json_string(request.tool),
        )).encode("utf-8")
    return VerificationResult(decision, walk, sha256_hex(trace_bytes), causes,
                              trace_bytes)


def _unnamed_tool(env: PolicyEnvironment) -> VerificationResult:
    """A call whose tool is not a string, or not valid Unicode, names no
    tool that a trace can record, so no axiom can be
    evaluated for it: it is refused with an evaluation failure, under an
    empty trace that records the tool as ""."""
    trace = ProofTrace(env.version_digest, "", (), {}, {})
    trace_bytes = trace.canonical()
    return VerificationResult(REFUTED, trace, sha256_hex(trace_bytes),
                              (RefusalCause(REASON_EVALUATION),), trace_bytes)
