"""Compilation pipeline: source text -> immutable PolicyEnvironment.

The environment is the only authority the verification kernel consults. It
is deeply immutable, safe to share across any number of threads, and
carries two digests: `source_digest` over the exact input bytes and
`version_digest` over the canonical serialization (axioms sorted by id,
concepts sorted by symbol, literals as reduced fractions), so identical
policies compile to byte-identical versions on any machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .canonical import canonical_bytes, digest_of, plain_value, sha256_hex
from .diagnostics import Diagnostic
from .parser import MAX_EXPR_DEPTH, parse
from .registry import ConceptRegistry, build_registry, order_derivations
from .syntax import (
    LEAF_NAMES,
    OPERATOR_NAMES,
    Atom,
    Axiom,
    BoolLit,
    ConceptDecl,
    Expr,
    Lit,
    StrLit,
    Sym,
    children,
    op_name,
    walk_names,
)
from .typecheck import typecheck

ENV_FORMAT = "axgate-env/1"

# vocabulary name -> node type, or (node type, operator) for operator nodes
_LEAF_NODES = {name: node_type for node_type, name in LEAF_NAMES.items()}
_OPERATOR_NODES = {name: (node_type, op)
                   for node_type, names in OPERATOR_NAMES.items()
                   for op, name in names.items()}


def expr_to_plain(expr: Expr) -> list:
    """Encode a resolved expression as canonical nested lists."""
    kids = children(expr)
    if kids:
        return [op_name(expr), *[expr_to_plain(kid) for kid in kids]]
    if isinstance(expr, (Lit, BoolLit, StrLit)):
        return [op_name(expr), plain_value(expr.value)]
    if isinstance(expr, Sym):
        return [op_name(expr), expr.symbol]
    if isinstance(expr, Atom):
        return [op_name(expr), expr.atom]
    raise TypeError(f"cannot serialize unresolved expression: {expr!r}")


def expr_from_plain(plain: object, depth: int = 0) -> Expr:
    """Decode an expression; ValueError for a malformed one or one nested
    deeper than a parsed expression can be."""
    if not isinstance(plain, list) or not plain:
        raise ValueError(f"malformed expression encoding: {plain!r}")
    if depth > MAX_EXPR_DEPTH:
        raise ValueError("expression nesting too deep")
    op = plain[0]
    if op in _OPERATOR_NODES:
        node_type, symbol = _OPERATOR_NODES[op]
        return node_type(symbol, *[expr_from_plain(kid, depth + 1)
                                   for kid in plain[1:]])
    node_type = _LEAF_NODES.get(op)
    if node_type is None:
        raise ValueError(f"unknown expression op: {op!r}")
    if node_type is Lit:
        return Lit(Fraction(plain[1]))
    if node_type is BoolLit:
        return BoolLit(bool(plain[1]))
    return node_type(str(plain[1]))  # StrLit, Sym, Atom


def axiom_to_plain(axiom: Axiom) -> dict:
    return {
        "id": axiom.id,
        "effect": axiom.effect,
        "tool": axiom.tool,
        "when": expr_to_plain(axiom.condition),
        "explain": axiom.explain,
    }


def axiom_from_plain(plain: dict) -> Axiom:
    return Axiom(
        id=str(plain["id"]),
        effect=str(plain["effect"]),
        tool=str(plain["tool"]),
        condition=expr_from_plain(plain["when"]),
        explain=plain.get("explain"),
    )


def concept_to_plain(decl: ConceptDecl) -> dict:
    return {
        "symbol": decl.symbol,
        "kind": decl.kind,
        "display": decl.display,
        "origin": decl.origin,
        "ccy": decl.ccy,
        "atoms": list(decl.atoms),
        "unit": decl.unit,
        "derived": expr_to_plain(decl.derived) if decl.derived is not None else None,
    }


def concept_from_plain(plain: dict) -> ConceptDecl:
    derived = plain.get("derived")
    return ConceptDecl(
        symbol=str(plain["symbol"]),
        kind=str(plain["kind"]),
        display=str(plain["display"]),
        origin=str(plain["origin"]),
        ccy=plain.get("ccy"),
        atoms=tuple(plain.get("atoms") or ()),
        unit=plain.get("unit"),
        derived=expr_from_plain(derived) if derived is not None else None,
    )


def policy_to_plain(registry: ConceptRegistry, axioms: tuple[Axiom, ...]) -> dict:
    return {
        "concepts": sorted(
            (concept_to_plain(d) for d in registry), key=lambda c: c["symbol"]
        ),
        "axioms": sorted(map(axiom_to_plain, axioms), key=lambda a: a["id"]),
    }


@dataclass(frozen=True, slots=True)
class BindingPlan:
    """Per-tool plan precomputed from an immutable environment."""

    axioms: tuple[Axiom, ...]  # in-scope, environment order
    request_symbols: tuple[str, ...]
    state_symbols: tuple[str, ...]
    derived_symbols: tuple[str, ...]  # dependency order
    axiom_symbols: dict  # axiom id -> frozenset of all needed symbols


class PolicyEnvironment:
    """Immutable compiled policy: registry + ordered axioms + digests.

    Safe for unbounded concurrent readers. The per-tool plan cache and the
    kernel's per-axiom trace texts (`trace_texts`, keyed by the axiom's
    id(), filled on first use) are benign-race memos: entries are pure
    functions of immutable state.
    """

    def __init__(
        self,
        registry: ConceptRegistry,
        axioms: tuple[Axiom, ...],
        source_digest: str,
    ) -> None:
        self.registry = registry
        self.axioms = tuple(axioms)
        self.source_digest = source_digest
        self.version_digest = digest_of(policy_to_plain(registry, self.axioms))
        self.derivation_order = order_derivations(registry)[0]
        self._plans: dict[str, BindingPlan] = {}
        self.trace_texts: dict[int, str] = {}

    def _direct_symbols(self, expr: Expr) -> set[str]:
        return {ref.symbol for ref in walk_names(expr)}

    def plan_for(self, tool: str) -> BindingPlan:
        plan = self._plans.get(tool)
        if plan is not None:
            return plan

        in_scope = tuple(a for a in self.axioms if a.matches_tool(tool))
        needed: set[str] = set()
        axiom_syms: dict[str, frozenset[str]] = {}
        for axiom in in_scope:
            full: set[str] = set()
            stack = list(self._direct_symbols(axiom.condition))
            while stack:
                sym = stack.pop()
                if sym in full:
                    continue
                full.add(sym)
                decl = self.registry.get(sym)
                if decl is not None and decl.origin == "derived" \
                        and decl.derived is not None:
                    stack.extend(self._direct_symbols(decl.derived))
            axiom_syms[axiom.id] = frozenset(full)
            needed |= full

        request_syms = []
        state_syms = []
        for symbol in self.registry.symbols():  # declaration order, deterministic
            if symbol not in needed:
                continue
            decl = self.registry.get(symbol)
            if decl.origin == "request":
                request_syms.append(symbol)
            elif decl.origin == "state":
                state_syms.append(symbol)
        derived_syms = [s for s in self.derivation_order if s in needed]

        plan = BindingPlan(
            axioms=in_scope,
            request_symbols=tuple(request_syms),
            state_symbols=tuple(state_syms),
            derived_symbols=tuple(derived_syms),
            axiom_symbols=axiom_syms,
        )
        self._plans[tool] = plan
        return plan

    def with_axiom_order(self, order: tuple[int, ...]) -> "PolicyEnvironment":
        """Same environment with axioms permuted (version digest unchanged)."""
        axioms = tuple(self.axioms[i] for i in order)
        return PolicyEnvironment(self.registry, axioms, self.source_digest)

    def to_plain(self) -> dict:
        # The stored policy keeps declaration/environment order so that a
        # loaded environment replays traces byte-identically; the version
        # digest is computed over the order-insensitive canonical form.
        return {
            "format": ENV_FORMAT,
            "source_digest": self.source_digest,
            "version_digest": self.version_digest,
            "policy": {
                "concepts": [concept_to_plain(d) for d in self.registry],
                "axioms": [axiom_to_plain(a) for a in self.axioms],
            },
        }


@dataclass(frozen=True, slots=True)
class CompileResult:
    environment: PolicyEnvironment | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.environment is not None


def compile_source(source: str | bytes) -> CompileResult:
    """Run the full pipeline: parse -> registry -> typecheck -> environment."""
    raw = source.encode("utf-8") if isinstance(source, str) else source
    source_digest = sha256_hex(raw)

    parsed = parse(source)
    diagnostics = list(parsed.diagnostics)
    if parsed.ast is None:
        return CompileResult(None, diagnostics)

    reg = build_registry(parsed.ast)
    diagnostics.extend(reg.diagnostics)
    if reg.registry is None:
        return CompileResult(None, diagnostics)

    checked = typecheck(parsed.ast, reg.registry)
    diagnostics.extend(checked.diagnostics)
    typed = checked.typed
    if typed is None:
        return CompileResult(None, diagnostics)
    env = PolicyEnvironment(typed.registry, typed.axioms, source_digest)
    return CompileResult(env, diagnostics)


def compile_file(path: str) -> CompileResult:
    with open(path, "rb") as handle:
        return compile_source(handle.read())


def save_environment(env: PolicyEnvironment, path: str) -> None:
    with open(path, "wb") as handle:
        handle.write(canonical_bytes(env.to_plain()))
        handle.write(b"\n")


class EnvironmentFormatError(ValueError):
    """Raised when a stored environment fails validation on load."""


def environment_from_plain(doc: dict) -> PolicyEnvironment:
    """The environment a saved document holds; EnvironmentFormatError for
    any document that does not decode. The conditions are not typechecked
    again: one the typechecker would reject refuses when verified."""
    if not isinstance(doc, dict):
        raise EnvironmentFormatError("not an environment document")
    if doc.get("format") != ENV_FORMAT:
        raise EnvironmentFormatError(f"unsupported format: {doc.get('format')!r}")
    policy = doc.get("policy")
    if not isinstance(policy, dict):
        raise EnvironmentFormatError("missing policy body")
    try:
        concepts = [concept_from_plain(c) for c in policy.get("concepts", [])]
        registry = ConceptRegistry({c.symbol: c for c in concepts})
        axioms = tuple(axiom_from_plain(a) for a in policy.get("axioms", []))
        env = PolicyEnvironment(registry, axioms,
                                str(doc.get("source_digest", "")))
    except (AttributeError, LookupError, TypeError, ValueError,
            ArithmeticError) as exc:
        raise EnvironmentFormatError(
            f"malformed policy body: {exc!r}") from exc
    stored = doc.get("version_digest")
    if stored != env.version_digest:
        raise EnvironmentFormatError(
            f"version digest mismatch: stored {stored}, "
            f"recomputed {env.version_digest}"
        )
    return env


def load_environment(path: str) -> PolicyEnvironment:
    with open(path, "rb") as handle:
        doc = json.loads(handle.read().decode("utf-8"))
    return environment_from_plain(doc)
