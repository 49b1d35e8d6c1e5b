"""Static typing of policy expressions.

Enforces the condition language: comparisons only between the same kind
(and same unit or currency), equality over atoms, boolean connectives, and
linear arithmetic where multiplication needs a constant rational factor and
division needs a nonzero constant divisor. Derived-concept definitions are
slightly wider: they may multiply a dimensionless quantity into a united
quantity or a money amount, which is how request volumes become trade
values.

Type checking also rewrites every `Name` into a resolved `Sym` (registered
concept) or `Atom` (enum member); downstream evaluation never sees an
unresolved reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .diagnostics import (
    Diagnostic,
    E_CURRENCY_MISMATCH,
    E_DIVISION_BY_ZERO,
    E_TYPE_MISMATCH,
    E_UNIT_MISMATCH,
    E_UNREGISTERED_SYMBOL,
    Span,
    error,
    has_errors,
)
from .registry import ConceptRegistry
from .syntax import (
    Atom,
    Axiom,
    Binary,
    BoolLit,
    BoolOp,
    Compare,
    ConceptDecl,
    Expr,
    Lit,
    Name,
    PolicyAst,
    StrLit,
    Sym,
    Unary,
)

_NUMERIC = ("const", "quantity", "money")


@dataclass(frozen=True, slots=True)
class Ty:
    tag: str  # const | quantity | money | enum | flag | text
    unit: str | None = None
    ccy: str | None = None
    atoms: frozenset[str] = frozenset()

    def describe(self) -> str:
        if self.tag == "quantity" and self.unit:
            return f"quantity[{self.unit}]"
        if self.tag == "money":
            return f"money[{self.ccy}]"
        if self.tag == "const":
            return "rational literal"
        return self.tag


CONST = Ty("const")
FLAG = Ty("flag")
TEXT = Ty("text")


@dataclass(frozen=True, slots=True)
class TypedPolicy:
    registry: ConceptRegistry  # derived declarations carry resolved expressions
    axioms: tuple[Axiom, ...]  # conditions resolved


@dataclass(frozen=True, slots=True)
class TypecheckResult:
    typed: TypedPolicy | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.typed is not None


class _TypeError(Exception):
    def __init__(self, code: str, span: Span, message: str) -> None:
        self.diagnostic = error(code, span, message)


def _concept_type(decl) -> Ty:
    if decl.kind == "quantity":
        return Ty("quantity", unit=decl.unit)
    if decl.kind == "money":
        return Ty("money", ccy=decl.ccy)
    if decl.kind == "enum":
        return Ty("enum", atoms=frozenset(decl.atoms))
    if decl.kind == "flag":
        return FLAG
    return TEXT


class _Checker:
    def __init__(self, registry: ConceptRegistry) -> None:
        self.registry = registry

    # Returns (type, resolved expr, constant value or None).
    def infer(self, expr: Expr, ctx: str) -> tuple[Ty, Expr, Fraction | None]:
        if isinstance(expr, Lit):
            return CONST, expr, expr.value
        if isinstance(expr, BoolLit):
            return FLAG, expr, None
        if isinstance(expr, StrLit):
            return TEXT, expr, None
        if isinstance(expr, Name):
            decl = self.registry.get(expr.ident)
            if decl is not None:
                return _concept_type(decl), Sym(expr.ident, span=expr.span), None
            if self.registry.is_atom(expr.ident):
                raise _TypeError(
                    E_TYPE_MISMATCH, expr.span,
                    f"enum member '{expr.ident}' can only appear beside an "
                    f"enum concept in == or !=")
            raise _TypeError(E_UNREGISTERED_SYMBOL, expr.span,
                             f"'{expr.ident}' is not a registered concept")
        if isinstance(expr, Unary):
            return self._infer_unary(expr, ctx)
        if isinstance(expr, Binary):
            return self._infer_binary(expr, ctx)
        if isinstance(expr, Compare):
            return self._infer_compare(expr, ctx)
        if isinstance(expr, BoolOp):
            lt, le, _ = self.infer(expr.left, ctx)
            rt, re_, _ = self.infer(expr.right, ctx)
            for side, ty in (("left", lt), ("right", rt)):
                if ty.tag != "flag":
                    raise _TypeError(E_TYPE_MISMATCH, expr.span,
                                     f"'{expr.op}' needs boolean operands, "
                                     f"{side} side is {ty.describe()}")
            return FLAG, BoolOp(expr.op, le, re_, span=expr.span), None
        raise _TypeError(E_TYPE_MISMATCH, getattr(expr, "span", Span.point(1, 1)),
                         f"unsupported expression {expr!r}")

    def _infer_unary(self, expr: Unary, ctx: str):
        ty, operand, const = self.infer(expr.operand, ctx)
        out = Unary(expr.op, operand, span=expr.span)
        if expr.op == "not":
            if ty.tag != "flag":
                raise _TypeError(E_TYPE_MISMATCH, expr.span,
                                 f"'not' needs a boolean operand, got {ty.describe()}")
            return FLAG, out, None
        if ty.tag not in _NUMERIC:
            raise _TypeError(E_TYPE_MISMATCH, expr.span,
                             f"unary '-' needs a numeric operand, got {ty.describe()}")
        return ty, out, (-const if const is not None else None)

    def _infer_binary(self, expr: Binary, ctx: str):
        lt, left, lc = self.infer(expr.left, ctx)
        rt, right, rc = self.infer(expr.right, ctx)
        out = Binary(expr.op, left, right, span=expr.span)
        for side, ty in (("left", lt), ("right", rt)):
            if ty.tag not in _NUMERIC:
                raise _TypeError(E_TYPE_MISMATCH, expr.span,
                                 f"'{expr.op}' needs numeric operands, "
                                 f"{side} side is {ty.describe()}")

        if expr.op in ("+", "-"):
            if lc is not None and rc is not None:
                value = lc + rc if expr.op == "+" else lc - rc
                return CONST, out, value
            ty = self._additive_type(lt, rt, expr)
            return ty, out, None

        if expr.op == "*":
            if lc is not None and rc is not None:
                return CONST, out, lc * rc
            if lc is not None:
                return rt, out, None
            if rc is not None:
                return lt, out, None
            if ctx == "condition":
                raise _TypeError(
                    E_TYPE_MISMATCH, expr.span,
                    "multiplication in a condition needs a constant rational "
                    "factor on one side")
            return self._product_type(lt, rt, expr), out, None

        # division: divisor must fold to a nonzero constant
        if rc is None:
            raise _TypeError(E_TYPE_MISMATCH, expr.span,
                             "the divisor must be a constant rational")
        if rc == 0:
            raise _TypeError(E_DIVISION_BY_ZERO, expr.span, "division by zero")
        if lc is not None:
            return CONST, out, lc / rc
        return lt, out, None

    def _additive_type(self, lt: Ty, rt: Ty, expr: Binary) -> Ty:
        if lt.tag == "const":
            lt, rt = rt, lt  # normalize: concrete side first
        if rt.tag == "const":
            if lt.tag == "money":
                raise _TypeError(
                    E_TYPE_MISMATCH, expr.span,
                    f"cannot apply '{expr.op}' to {lt.describe()} and a bare "
                    f"rational; money arithmetic needs money on both sides")
            return lt
        if lt.tag != rt.tag:
            raise _TypeError(
                E_TYPE_MISMATCH, expr.span,
                f"cannot apply '{expr.op}' to {lt.describe()} and {rt.describe()}")
        if lt.tag == "money":
            if lt.ccy != rt.ccy:
                raise _TypeError(E_CURRENCY_MISMATCH, expr.span,
                                 f"cannot mix currencies {lt.ccy} and {rt.ccy}")
            return lt
        if lt.unit != rt.unit:
            raise _TypeError(
                E_UNIT_MISMATCH, expr.span,
                f"cannot mix units {lt.unit or '(none)'} and {rt.unit or '(none)'}")
        return lt

    def _product_type(self, lt: Ty, rt: Ty, expr: Binary) -> Ty:
        """Symbol-by-symbol products, allowed only in derived definitions."""
        def scalar(ty: Ty) -> bool:
            return ty.tag == "quantity" and ty.unit is None
        if scalar(lt):
            return rt
        if scalar(rt):
            return lt
        if lt.tag == "money" and rt.tag == "money":
            raise _TypeError(E_TYPE_MISMATCH, expr.span,
                             "cannot multiply money by money")
        raise _TypeError(E_UNIT_MISMATCH, expr.span,
                         f"multiplying {lt.describe()} by {rt.describe()} needs a "
                         f"dimensionless factor on one side")

    def _infer_compare(self, expr: Compare, ctx: str):
        # Resolve enum members contextually before general inference.
        left_enum = self._enum_side(expr.left)
        right_enum = self._enum_side(expr.right)
        if expr.op in ("==", "!="):
            if left_enum is not None and isinstance(expr.right, Name) \
                    and self.registry.get(expr.right.ident) is None:
                return self._atom_compare(expr, left_enum, expr.right, swap=False)
            if right_enum is not None and isinstance(expr.left, Name) \
                    and self.registry.get(expr.left.ident) is None:
                return self._atom_compare(expr, right_enum, expr.left, swap=True)

        lt, left, lc = self.infer(expr.left, ctx)
        rt, right, rc = self.infer(expr.right, ctx)
        out = Compare(expr.op, left, right, span=expr.span)

        if expr.op in ("<", "<=", ">", ">="):
            self._require_comparable_numeric(lt, rt, expr)
            return FLAG, out, None

        # Equality.
        if lt.tag in _NUMERIC and rt.tag in _NUMERIC:
            self._require_comparable_numeric(lt, rt, expr)
            return FLAG, out, None
        if lt.tag == rt.tag == "enum":
            if lt.atoms != rt.atoms:
                raise _TypeError(E_TYPE_MISMATCH, expr.span,
                                 "cannot compare enums with different member sets")
            return FLAG, out, None
        if lt.tag == rt.tag and lt.tag in ("flag", "text"):
            return FLAG, out, None
        raise _TypeError(E_TYPE_MISMATCH, expr.span,
                         f"cannot compare {lt.describe()} with {rt.describe()}")

    def _enum_side(self, expr: Expr) -> Ty | None:
        if isinstance(expr, Name):
            decl = self.registry.get(expr.ident)
            if decl is not None and decl.kind == "enum":
                return _concept_type(decl)
        return None

    def _atom_compare(self, expr: Compare, enum_ty: Ty, name: Name, swap: bool):
        if name.ident not in enum_ty.atoms:
            if self.registry.is_atom(name.ident):
                raise _TypeError(E_TYPE_MISMATCH, name.span,
                                 f"'{name.ident}' is not a member of the compared enum")
            raise _TypeError(E_UNREGISTERED_SYMBOL, name.span,
                             f"'{name.ident}' is not a registered concept")
        atom = Atom(name.ident, span=name.span)
        if swap:
            _, right, _ = self.infer(expr.right, "condition")
            out = Compare(expr.op, atom, right, span=expr.span)
        else:
            _, left, _ = self.infer(expr.left, "condition")
            out = Compare(expr.op, left, atom, span=expr.span)
        return FLAG, out, None

    def _require_comparable_numeric(self, lt: Ty, rt: Ty, expr: Compare) -> None:
        for ty in (lt, rt):
            if ty.tag not in _NUMERIC:
                raise _TypeError(E_TYPE_MISMATCH, expr.span,
                                 f"cannot compare {lt.describe()} with {rt.describe()}")
        if lt.tag == "const" or rt.tag == "const":
            concrete = rt if lt.tag == "const" else lt
            if concrete.tag == "money":
                raise _TypeError(E_TYPE_MISMATCH, expr.span,
                                 "money compares only with money of the same currency, "
                                 "not with a bare rational")
            return
        if lt.tag != rt.tag:
            raise _TypeError(E_TYPE_MISMATCH, expr.span,
                             f"cannot compare {lt.describe()} with {rt.describe()}")
        if lt.tag == "money":
            if lt.ccy != rt.ccy:
                raise _TypeError(E_CURRENCY_MISMATCH, expr.span,
                                 f"cannot compare {lt.ccy} with {rt.ccy}")
            return
        if lt.unit != rt.unit:
            raise _TypeError(E_UNIT_MISMATCH, expr.span,
                             f"cannot compare units {lt.unit or '(none)'} "
                             f"and {rt.unit or '(none)'}")


def typecheck(ast: PolicyAst, registry: ConceptRegistry) -> TypecheckResult:
    """Check every derived definition and axiom condition; resolve names."""
    diagnostics: list[Diagnostic] = []
    checker = _Checker(registry)
    resolved_derived: dict[str, Expr] = {}

    for decl in registry:
        if decl.derived is None:
            continue
        try:
            ty, resolved, _ = checker.infer(decl.derived, "derived")
            _check_derived_kind(ty, _concept_type(decl), decl)
            resolved_derived[decl.symbol] = resolved
        except _TypeError as exc:
            diagnostics.append(exc.diagnostic)

    typed_axioms: list[Axiom] = []
    for node in ast.axioms:
        try:
            ty, resolved, _ = checker.infer(node.condition, "condition")
            if ty.tag != "flag":
                raise _TypeError(E_TYPE_MISMATCH, node.span,
                                 f"condition of axiom '{node.id}' must be boolean, "
                                 f"got {ty.describe()}")
            typed_axioms.append(replace(node, condition=resolved))
        except _TypeError as exc:
            diagnostics.append(exc.diagnostic)

    if has_errors(diagnostics):
        return TypecheckResult(None, diagnostics)
    return TypecheckResult(
        TypedPolicy(registry.with_resolved(resolved_derived), tuple(typed_axioms)),
        diagnostics,
    )


def _check_derived_kind(ty: Ty, declared: Ty, decl: ConceptDecl) -> None:
    span = decl.span
    if declared.tag in ("enum", "text"):
        raise _TypeError(
            E_TYPE_MISMATCH, span,
            f"derived concept '{decl.symbol}' must be quantity, money or flag")
    if declared.tag == "flag":
        if ty.tag != "flag":
            raise _TypeError(
                E_TYPE_MISMATCH, span,
                f"derived flag '{decl.symbol}' needs a boolean definition, "
                f"got {ty.describe()}")
        return
    if ty.tag == "flag" or ty.tag in ("enum", "text"):
        raise _TypeError(
            E_TYPE_MISMATCH, span,
            f"derived {declared.describe()} '{decl.symbol}' cannot be defined "
            f"by a {ty.describe()} expression")
    if declared.tag == "money":
        if ty.tag == "const":
            raise _TypeError(
                E_TYPE_MISMATCH, span,
                f"a bare rational cannot define money concept '{decl.symbol}'")
        if ty.tag != "money":
            raise _TypeError(
                E_TYPE_MISMATCH, span,
                f"derived money '{decl.symbol}' defined by {ty.describe()}")
        if ty.ccy != declared.ccy:
            raise _TypeError(E_CURRENCY_MISMATCH, span,
                             f"derived '{decl.symbol}' declared {declared.ccy} "
                             f"but defined in {ty.ccy}")
        return
    # declared quantity
    if ty.tag == "money":
        raise _TypeError(E_TYPE_MISMATCH, span,
                         f"derived quantity '{decl.symbol}' defined by {ty.describe()}")
    if ty.tag == "quantity" and ty.unit != declared.unit:
        raise _TypeError(
            E_UNIT_MISMATCH, span,
            f"derived '{decl.symbol}' declared unit "
            f"{declared.unit or '(none)'} but defined with {ty.unit or '(none)'}")
