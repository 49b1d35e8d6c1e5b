"""AST for the policy DSL, plus the pretty-printer.

Nodes are frozen dataclasses; spans never participate in equality, so two
parses of the same text compare equal even when whitespace shifts spans.
`Name` is the unresolved parse-time reference; type checking rewrites it to
`Sym` (registered concept) or `Atom` (enum member). The declaration
records, `ConceptDecl` and `Axiom`, are built by the parser and pass as they
are through the registry and the typechecker into the compiled environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .diagnostics import Span
from .values import exact_decimal

_NOSPAN = Span(0, 0, 0, 0)


def _span_field():
    return field(default=_NOSPAN, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Expr:
    pass


@dataclass(frozen=True, slots=True)
class Lit(Expr):
    value: Fraction
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class BoolLit(Expr):
    value: bool
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class StrLit(Expr):
    value: str
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class Name(Expr):
    ident: str
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class Sym(Expr):
    """A reference resolved to a registered concept symbol."""

    symbol: str
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class Atom(Expr):
    """A reference resolved to an enum member."""

    atom: str
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class Unary(Expr):
    op: str  # "-" | "not"
    operand: Expr
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class Binary(Expr):
    op: str  # "+" | "-" | "*" | "/"
    left: Expr
    right: Expr
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class Compare(Expr):
    op: str  # "<" | "<=" | ">" | ">=" | "==" | "!="
    left: Expr
    right: Expr
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class BoolOp(Expr):
    op: str  # "and" | "or"
    left: Expr
    right: Expr
    span: Span = _span_field()


# Node vocabulary: the name of each resolved node in the canonical policy
# document and in valuation trees. Both digests depend on these names.

LEAF_NAMES = {Lit: "lit", BoolLit: "bool", StrLit: "str", Sym: "sym",
              Atom: "atom"}
OPERATOR_NAMES = {
    Unary: {"-": "neg", "not": "not"},
    Binary: {"+": "add", "-": "sub", "*": "mul", "/": "div"},
    Compare: {"<": "lt", "<=": "le", ">": "gt", ">=": "ge", "==": "eq",
              "!=": "ne"},
    BoolOp: {"and": "and", "or": "or"},
}


def op_name(expr: Expr) -> str:
    """The vocabulary name of a resolved node; KeyError for a Name."""
    names = OPERATOR_NAMES.get(type(expr))
    return LEAF_NAMES[type(expr)] if names is None else names[expr.op]


@dataclass(frozen=True, slots=True)
class ConceptDecl:
    symbol: str
    kind: str
    display: str
    origin: str = "state"  # "request" | "state" | "derived"
    ccy: str | None = None
    atoms: tuple[str, ...] = ()
    unit: str | None = None
    derived: Expr | None = None
    span: Span = _span_field()


@dataclass(frozen=True, slots=True)
class Axiom:
    id: str
    effect: str  # "forbid" | "permit"
    tool: str  # exact tool name or "*"
    condition: Expr  # resolved once typechecked
    explain: str | None = None
    span: Span = _span_field()

    def matches_tool(self, tool: str) -> bool:
        return self.tool == "*" or self.tool == tool


@dataclass(frozen=True, slots=True)
class PolicyAst:
    items: tuple = ()

    @property
    def concepts(self) -> tuple[ConceptDecl, ...]:
        return tuple(i for i in self.items if isinstance(i, ConceptDecl))

    @property
    def axioms(self) -> tuple[Axiom, ...]:
        return tuple(i for i in self.items if isinstance(i, Axiom))


# Pretty printing ------------------------------------------------------------

_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3
_PREC_CMP = 4
_PREC_ADD = 5
_PREC_MUL = 6
_PREC_NEG = 7
_PREC_ATOM = 8


def _print_number(q: Fraction) -> str:
    # Not expressible as a decimal literal: emit the equivalent division.
    return exact_decimal(q) or f"{q.numerator} / {q.denominator}"


def escape_string(s: str) -> str:
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{out}"'


def print_expr(expr: Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, Lit):
        text = _print_number(expr.value)
        prec = _PREC_MUL if "/" in text or text.startswith("-") else _PREC_ATOM
    elif isinstance(expr, BoolLit):
        text, prec = ("true" if expr.value else "false"), _PREC_ATOM
    elif isinstance(expr, StrLit):
        text, prec = escape_string(expr.value), _PREC_ATOM
    elif isinstance(expr, Name):
        text, prec = expr.ident, _PREC_ATOM
    elif isinstance(expr, Sym):
        text, prec = expr.symbol, _PREC_ATOM
    elif isinstance(expr, Atom):
        text, prec = expr.atom, _PREC_ATOM
    elif isinstance(expr, Unary):
        if expr.op == "not":
            text = f"not {print_expr(expr.operand, _PREC_NOT)}"
            prec = _PREC_NOT
        else:
            text = f"-{print_expr(expr.operand, _PREC_NEG)}"
            prec = _PREC_NEG
    elif isinstance(expr, Binary):
        prec = _PREC_ADD if expr.op in "+-" else _PREC_MUL
        # Left-associative: the right child needs one more level of binding.
        text = (
            f"{print_expr(expr.left, prec)} {expr.op} "
            f"{print_expr(expr.right, prec + 1)}"
        )
    elif isinstance(expr, Compare):
        prec = _PREC_CMP
        text = (
            f"{print_expr(expr.left, _PREC_ADD)} {expr.op} "
            f"{print_expr(expr.right, _PREC_ADD)}"
        )
    elif isinstance(expr, BoolOp):
        prec = _PREC_AND if expr.op == "and" else _PREC_OR
        text = (
            f"{print_expr(expr.left, prec)} {expr.op} "
            f"{print_expr(expr.right, prec + 1)}"
        )
    else:
        raise TypeError(f"unknown expression node: {expr!r}")
    if prec < parent_prec:
        return f"({text})"
    return text


def print_concept(node: ConceptDecl) -> str:
    parts = [f"concept {node.symbol} :"]
    if node.kind == "money":
        parts.append(f"money {escape_string(node.ccy or '')}")
    elif node.kind == "enum":
        parts.append("enum { " + ", ".join(node.atoms) + " }")
    else:
        parts.append(node.kind)
    if node.origin == "derived":
        parts.append(f"from derived = {print_expr(node.derived)}")
    else:
        parts.append(f"from {node.origin}")
    if node.unit is not None:
        parts.append(f"unit {escape_string(node.unit)}")
    parts.append(escape_string(node.display))
    return " ".join(parts)


def print_axiom(node: Axiom) -> str:
    text = (
        f"axiom {node.id} {node.effect} {node.tool} "
        f"when {print_expr(node.condition)}"
    )
    if node.explain is not None:
        text += f" explain {escape_string(node.explain)}"
    return text


def print_policy(ast: PolicyAst) -> str:
    lines = []
    for item in ast.items:
        if isinstance(item, ConceptDecl):
            lines.append(print_concept(item))
        else:
            lines.append(print_axiom(item))
    return "\n".join(lines) + ("\n" if lines else "")


def children(expr: Expr) -> tuple[Expr, ...]:
    """The direct sub-expressions of a node, left to right."""
    if isinstance(expr, Unary):
        return (expr.operand,)
    if isinstance(expr, (Binary, Compare, BoolOp)):
        return (expr.left, expr.right)
    return ()


def subexpressions(expr: Expr):
    """Every node of an expression tree, in pre-order, left to right."""
    yield expr
    for kid in children(expr):
        yield from subexpressions(kid)


def walk_names(expr: Expr):
    """Yield every Name/Sym reference in an expression tree."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (Name, Sym)):
            yield node
        else:
            stack.extend(children(node))
