"""Compilation pipeline: source text -> immutable PolicyEnvironment.

The environment is the only authority the verification kernel consults. It
is deeply immutable, safe to share across any number of threads, and
carries one digest, `version_digest`, over the canonical serialization
(axioms sorted by id, concepts sorted by symbol, literals as reduced
fractions), so identical policies compile to byte-identical versions on
any machine. The policy source is the one artefact: there is no saved
form of a compiled environment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import digest_of, plain_value
from .diagnostics import Diagnostic
from .parser import parse
from .registry import ConceptRegistry, build_registry, order_derivations
from .syntax import (
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
)
from .typecheck import typecheck


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


def axiom_to_plain(axiom: Axiom) -> dict:
    return {
        "id": axiom.id,
        "effect": axiom.effect,
        "tool": axiom.tool,
        "when": expr_to_plain(axiom.condition),
        "explain": axiom.explain,
    }


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


def policy_to_plain(registry: ConceptRegistry, axioms: tuple[Axiom, ...]) -> dict:
    return {
        "concepts": sorted(
            (concept_to_plain(d) for d in registry), key=lambda c: c["symbol"]
        ),
        "axioms": sorted(map(axiom_to_plain, axioms), key=lambda a: a["id"]),
    }


class PolicyEnvironment:
    """Immutable compiled policy: registry + ordered axioms + digests.
    Safe for unbounded concurrent readers."""

    def __init__(self, registry: ConceptRegistry,
                 axioms: tuple[Axiom, ...]) -> None:
        self.registry = registry
        self.axioms = tuple(axioms)
        self.version_digest = digest_of(policy_to_plain(registry, self.axioms))
        self.derivation_order = order_derivations(registry)[0]

    def with_axiom_order(self, order: tuple[int, ...]) -> "PolicyEnvironment":
        """Same environment with axioms permuted (version digest unchanged)."""
        axioms = tuple(self.axioms[i] for i in order)
        return PolicyEnvironment(self.registry, axioms)


@dataclass(frozen=True, slots=True)
class CompileResult:
    environment: PolicyEnvironment | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.environment is not None


def compile_source(source: str | bytes) -> CompileResult:
    """Run the full pipeline: parse -> registry -> typecheck -> environment."""
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
    env = PolicyEnvironment(typed.registry, typed.axioms)
    return CompileResult(env, diagnostics)


def compile_file(path: str) -> CompileResult:
    with open(path, "rb") as handle:
        return compile_source(handle.read())
