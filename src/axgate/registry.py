"""Concept-symbol registry.

The registry is the compile-time table binding every policy symbol to a
kind, origin, unit, and display name. Axioms may only mention registered
symbols (or members of registered enums), so a drifted or adversarial
symbol can never enter a compiled environment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

from .diagnostics import (
    Diagnostic,
    E_CYCLIC_DERIVATION,
    E_DUPLICATE_AXIOM,
    E_DUPLICATE_SYMBOL,
    E_EMPTY_DISPLAY,
    E_SYNTAX,
    E_UNIT_MISMATCH,
    E_UNREGISTERED_SYMBOL,
    W_UNUSED_CONCEPT,
    error,
    has_errors,
    warning,
)
from .parser import MAX_EXPR_DEPTH
from .syntax import ConceptDecl, Expr, Name, PolicyAst, children, walk_names

TEMPLATE_SLOT = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


class ConceptRegistry:
    """Immutable symbol table; declaration order is preserved."""

    def __init__(self, concepts: Mapping[str, ConceptDecl]) -> None:
        self._concepts = dict(concepts)
        self._atoms = frozenset(
            atom for decl in self._concepts.values() for atom in decl.atoms
        )

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._concepts

    def __iter__(self) -> Iterator[ConceptDecl]:
        return iter(self._concepts.values())

    def __len__(self) -> int:
        return len(self._concepts)

    def get(self, symbol: str) -> ConceptDecl | None:
        return self._concepts.get(symbol)

    def symbols(self) -> tuple[str, ...]:
        return tuple(self._concepts)

    def is_atom(self, name: str) -> bool:
        return name in self._atoms

    def with_resolved(self, resolved: Mapping[str, Expr]) -> "ConceptRegistry":
        """Return a copy whose derived declarations carry resolved expressions."""
        out = {}
        for symbol, decl in self._concepts.items():
            if symbol in resolved:
                out[symbol] = replace(decl, derived=resolved[symbol])
            else:
                out[symbol] = decl
        return ConceptRegistry(out)


@dataclass(frozen=True, slots=True)
class RegistryResult:
    registry: ConceptRegistry | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.registry is not None


def template_slots(template: str) -> list[str]:
    return TEMPLATE_SLOT.findall(template)


def build_registry(ast: PolicyAst) -> RegistryResult:
    """Build the registry and validate every symbol reference in the policy."""
    diagnostics: list[Diagnostic] = []
    concepts: dict[str, ConceptDecl] = {}

    for node in ast.concepts:
        if node.symbol in concepts:
            diagnostics.append(
                error(E_DUPLICATE_SYMBOL, node.span,
                      f"concept '{node.symbol}' is already declared")
            )
            continue
        if not node.display:
            diagnostics.append(
                error(E_EMPTY_DISPLAY, node.span,
                      f"concept '{node.symbol}' needs a non-empty display name")
            )
        if node.unit is not None and node.kind != "quantity":
            diagnostics.append(
                error(E_UNIT_MISMATCH, node.span,
                      f"unit tags only apply to quantity concepts, "
                      f"'{node.symbol}' is {node.kind}")
            )
        seen_atoms = set()
        for atom in node.atoms:
            if atom in seen_atoms:
                diagnostics.append(
                    error(E_DUPLICATE_SYMBOL, node.span,
                          f"enum member '{atom}' is repeated in '{node.symbol}'")
                )
            seen_atoms.add(atom)
        concepts[node.symbol] = node

    registry = ConceptRegistry(concepts)
    used: set[str] = set()

    def check_names(expr: Expr, where: str) -> None:
        for ref in walk_names(expr):
            name = _ref_name(ref)
            if name in registry:
                used.add(name)
            elif not registry.is_atom(name):
                diagnostics.append(
                    error(E_UNREGISTERED_SYMBOL, ref.span,
                          f"'{name}' is not a registered concept ({where})")
                )

    for node in ast.concepts:
        if node.derived is not None:
            check_names(node.derived, f"derived definition of '{node.symbol}'")

    axiom_ids: set[str] = set()
    for node in ast.axioms:
        if node.id in axiom_ids:
            diagnostics.append(
                error(E_DUPLICATE_AXIOM, node.span,
                      f"axiom id '{node.id}' is already used")
            )
        axiom_ids.add(node.id)
        check_names(node.condition, f"axiom '{node.id}'")
        if node.explain is not None:
            for slot in template_slots(node.explain):
                if slot in registry:
                    used.add(slot)
                else:
                    diagnostics.append(
                        error(E_UNREGISTERED_SYMBOL, node.span,
                              f"explain template of '{node.id}' interpolates "
                              f"unregistered symbol '{slot}'")
                    )

    order, cycles = order_derivations(registry)
    for cycle in cycles:
        diagnostics.append(
            error(E_CYCLIC_DERIVATION, concepts[cycle[-2]].span,
                  "derived concepts form a cycle: " + " -> ".join(cycle))
        )
    if not cycles:
        diagnostics.extend(_check_substituted_heights(registry, order, ast))

    for symbol, decl in concepts.items():
        if symbol not in used and decl.origin != "derived":
            diagnostics.append(
                warning(W_UNUSED_CONCEPT, decl.span,
                        f"concept '{symbol}' is never referenced")
            )

    if has_errors(diagnostics):
        return RegistryResult(None, diagnostics)
    return RegistryResult(registry, diagnostics)


def order_derivations(
    registry: ConceptRegistry,
) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    """One depth-first walk over the derived concepts, in declaration order.

    Returns their dependency order (each after the derived concepts its
    definition reads) and each distinct cycle, as the path that closes it
    (`a -> b -> a`). The walk keeps its own stack, so a long chain of
    definitions cannot exhaust the interpreter's.
    """
    deps: dict[str, list[str]] = {}
    for decl in registry:
        if decl.origin == "derived" and decl.derived is not None:
            deps[decl.symbol] = [
                name for name in map(_ref_name, walk_names(decl.derived))
                if name in registry and registry.get(name).origin == "derived"]
    order: list[str] = []
    cycles: dict[frozenset[str], tuple[str, ...]] = {}
    done: set[str] = set()
    for root in deps:
        if root in done:
            continue
        path, pending = [root], [iter(deps[root])]
        while pending:
            for dep in pending[-1]:
                if dep in path:
                    cycle = (*path[path.index(dep):], dep)
                    cycles.setdefault(frozenset(cycle), cycle)
                elif dep in deps and dep not in done:
                    path.append(dep)
                    pending.append(iter(deps[dep]))
                    break
            else:
                pending.pop()
                done.add(path[-1])
                order.append(path.pop())
    return tuple(order), list(cycles.values())


def _check_substituted_heights(registry: ConceptRegistry,
                               order: tuple[str, ...],
                               ast: PolicyAst) -> list[Diagnostic]:
    """Each derived definition and each condition, with every derived
    concept it reads replaced by that concept's definition, must be at most
    MAX_EXPR_DEPTH high. The name of a derived concept counts one level
    above its definition, so a chain of bare aliases is bounded too. The
    parser bounds each tree alone; this bounds any evaluator that recurses
    through the definitions, as the oracle does. A diagnostic marks where
    the bound is first passed, not everything that reads past it."""
    heights: dict[str, int] = {}  # substituted height of each definition
    diagnostics: list[Diagnostic] = []

    def check(expr: Expr, span, where: str) -> int:
        height = _substituted_height(expr, heights)
        if height > MAX_EXPR_DEPTH and all(
                heights.get(ref.ident, 0) <= MAX_EXPR_DEPTH
                for ref in walk_names(expr)):
            diagnostics.append(error(
                E_SYNTAX, span, "expression nesting too deep once derived "
                f"concepts are substituted ({where})"))
        return height

    for symbol in order:
        decl = registry.get(symbol)
        heights[symbol] = check(decl.derived, decl.span,
                                f"derived definition of '{symbol}'")
    for node in ast.axioms:
        check(node.condition, node.span, f"axiom '{node.id}'")
    return diagnostics


def _substituted_height(expr: Expr, heights: dict[str, int]) -> int:
    kids = children(expr)
    if kids:
        return 1 + max(_substituted_height(kid, heights) for kid in kids)
    if isinstance(expr, Name) and expr.ident in heights:
        return 1 + heights[expr.ident]
    return 0


def _ref_name(ref) -> str:
    return ref.ident if isinstance(ref, Name) else ref.symbol
