"""Recursive-descent parser for the policy DSL.

Grammar (informative; `#` starts a line comment):

    policy     := (concept | axiom)*
    concept    := "concept" IDENT ":" kind ["from" origin] ["unit" STRING] STRING
    kind       := "quantity" | "money" STRING
                | "enum" "{" IDENT ("," IDENT)* "}" | "flag" | "text"
    origin     := "request" | "state" | "derived" "=" expr
    axiom      := "axiom" IDENT effect toolpat "when" expr ["explain" STRING]
    effect     := "forbid" | "permit"
    toolpat    := IDENT | "*"
    expr       := or_expr
    or_expr    := and_expr ("or" and_expr)*
    and_expr   := not_expr ("and" not_expr)*
    not_expr   := "not" not_expr | comparison
    comparison := additive [("<"|"<="|">"|">="|"=="|"!=") additive]
    additive   := term (("+"|"-") term)*
    term       := factor (("*"|"/") factor)*
    factor     := "-" factor | NUMBER | STRING | IDENT | "true" | "false"
                | "(" expr ")"

Parsing is total: any input produces either an AST or a non-empty list of
located diagnostics. On error the parser synchronizes at the next
`concept`/`axiom` keyword so one bad declaration does not mask the rest.
An expression deeper than MAX_EXPR_DEPTH, through parentheses, prefix
operators or a long operator chain, is a syntax diagnostic. The lexer
defines NUMBER, IDENT and STRING.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .diagnostics import Diagnostic, E_SYNTAX, Span, error, has_errors
from .lexer import Token, tokenize
from .syntax import (
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
    Unary,
)

# Bounds both the parser's recursion and the height of every expression tree
# (a leaf is 0), so no later pass over a tree can blow the stack.
MAX_EXPR_DEPTH = 200

# A literal's reduced numerator and denominator must each be below this, and
# so must those of each constant the typechecker folds: at most 4,300 digits,
# the most Python converts between int and str.
LITERAL_LIMIT = 10 ** 4300


@dataclass(frozen=True, slots=True)
class ParseResult:
    ast: PolicyAst | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.ast is not None


class _ParseError(Exception):
    def __init__(self, span: Span, message: str) -> None:
        self.diagnostic = error(E_SYNTAX, span, message)


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def check(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, kind: str) -> Token | None:
        if self.check(kind):
            return self.advance()
        return None

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind == kind:
            return self.advance()
        shown = tok.text if tok.kind != "EOF" else "end of input"
        raise _ParseError(tok.span, f"expected {what}, found {shown!r}")

    # Declarations -----------------------------------------------------------

    def policy(self) -> PolicyAst:
        items: list = []
        while not self.check("EOF"):
            tok = self.peek()
            try:
                if tok.kind == "concept":
                    items.append(self.concept())
                elif tok.kind == "axiom":
                    items.append(self.axiom())
                else:
                    shown = tok.text if tok.kind != "EOF" else "end of input"
                    raise _ParseError(tok.span,
                                      f"expected 'concept' or 'axiom', found {shown!r}")
            except _ParseError as exc:
                self.diagnostics.append(exc.diagnostic)
                self.synchronize()
        return PolicyAst(items=tuple(items))

    def synchronize(self) -> None:
        """Skip tokens until the next declaration keyword.

        Never consumes a declaration keyword itself: the outer loop always
        makes progress because concept()/axiom() consume their keyword first.
        """
        while not self.check("EOF") and self.peek().kind not in ("concept", "axiom"):
            self.advance()

    def concept(self) -> ConceptDecl:
        start = self.expect("concept", "'concept'")
        name = self.expect("IDENT", "a concept symbol")
        self.expect("COLON", "':'")
        kind, ccy, atoms = self.kind()
        origin = "state"
        derived: Expr | None = None
        if self.accept("from"):
            if self.accept("request"):
                origin = "request"
            elif self.accept("state"):
                origin = "state"
            elif self.accept("derived"):
                origin = "derived"
                self.expect("EQ", "'=' after 'derived'")
                derived = self.expr()[0]
            else:
                tok = self.peek()
                raise _ParseError(tok.span, "expected 'request', 'state' or "
                                  f"'derived', found {tok.text!r}")
        unit = None
        if self.accept("unit"):
            unit = self.expect("STRING", "a unit string").text
        display = self.expect("STRING", "a display name string")
        span = Span(start.span.line, start.span.col,
                    display.span.end_line, display.span.end_col)
        return ConceptDecl(
            symbol=name.text, kind=kind, display=display.text, origin=origin,
            ccy=ccy, atoms=atoms, unit=unit, derived=derived, span=span,
        )

    def kind(self) -> tuple[str, str | None, tuple[str, ...]]:
        tok = self.peek()
        if self.accept("quantity"):
            return "quantity", None, ()
        if self.accept("flag"):
            return "flag", None, ()
        if self.accept("text"):
            return "text", None, ()
        if self.accept("money"):
            ccy = self.expect("STRING", "a currency code string")
            return "money", ccy.text, ()
        if self.accept("enum"):
            self.expect("LBRACE", "'{'")
            atoms = [self.expect("IDENT", "an enum member").text]
            while self.accept("COMMA"):
                atoms.append(self.expect("IDENT", "an enum member").text)
            self.expect("RBRACE", "'}'")
            return "enum", None, tuple(atoms)
        shown = tok.text if tok.kind != "EOF" else "end of input"
        raise _ParseError(tok.span, f"expected a concept kind, found {shown!r}")

    def axiom(self) -> Axiom:
        start = self.expect("axiom", "'axiom'")
        name = self.expect("IDENT", "an axiom id")
        if self.accept("forbid"):
            effect = "forbid"
        elif self.accept("permit"):
            effect = "permit"
        else:
            tok = self.peek()
            shown = tok.text if tok.kind != "EOF" else "end of input"
            raise _ParseError(tok.span,
                              f"expected 'forbid' or 'permit', found {shown!r}")
        if self.accept("STAR"):
            tool = "*"
        else:
            tool = self.expect("IDENT", "a tool name or '*'").text
        self.expect("when", "'when'")
        condition = self.expr()[0]
        explain = None
        if self.accept("explain"):
            explain = self.expect("STRING", "an explain template string").text
        end = self.tokens[self.pos - 1].span
        span = Span(start.span.line, start.span.col, end.end_line, end.end_col)
        return Axiom(
            id=name.text, effect=effect, tool=tool,
            condition=condition, explain=explain, span=span,
        )

    # Expressions --------------------------------------------------------
    #
    # `depth` bounds the recursion. Each function also returns the height of
    # the tree it built, bounded by the same limit, because the operator
    # loops grow a left spine without recursing.

    def expr(self, depth: int = 0) -> tuple[Expr, int]:
        return self.or_expr(depth)

    def _check_depth(self, depth: int) -> None:
        if depth > MAX_EXPR_DEPTH:
            raise _ParseError(self.peek().span, "expression nesting too deep")

    def _node(self, node: Expr, *heights: int) -> tuple[Expr, int]:
        height = 1 + max(heights)
        if height > MAX_EXPR_DEPTH:
            raise _ParseError(node.span, "expression nesting too deep")
        return node, height

    def or_expr(self, depth: int) -> tuple[Expr, int]:
        self._check_depth(depth)
        left, height = self.and_expr(depth + 1)
        while self.check("or"):
            op_tok = self.advance()
            right, rh = self.and_expr(depth + 1)
            left, height = self._node(BoolOp("or", left, right, span=op_tok.span),
                                      height, rh)
        return left, height

    def and_expr(self, depth: int) -> tuple[Expr, int]:
        left, height = self.not_expr(depth + 1)
        while self.check("and"):
            op_tok = self.advance()
            right, rh = self.not_expr(depth + 1)
            left, height = self._node(BoolOp("and", left, right, span=op_tok.span),
                                      height, rh)
        return left, height

    def not_expr(self, depth: int) -> tuple[Expr, int]:
        self._check_depth(depth)
        if self.check("not"):
            tok = self.advance()
            operand, height = self.not_expr(depth + 1)
            return self._node(Unary("not", operand, span=tok.span), height)
        return self.comparison(depth + 1)

    def comparison(self, depth: int) -> tuple[Expr, int]:
        left, lh = self.additive(depth + 1)
        tok = self.peek()
        if tok.kind in ("LT", "LE", "GT", "GE", "EQEQ", "NEQ"):
            self.advance()
            right, rh = self.additive(depth + 1)
            follow = self.peek()
            if follow.kind in ("LT", "LE", "GT", "GE", "EQEQ", "NEQ"):
                raise _ParseError(follow.span,
                                  "comparisons cannot be chained; use 'and'")
            return self._node(Compare(tok.text, left, right, span=tok.span), lh, rh)
        return left, lh

    def additive(self, depth: int) -> tuple[Expr, int]:
        self._check_depth(depth)
        left, height = self.term(depth + 1)
        while self.peek().kind in ("PLUS", "MINUS"):
            op_tok = self.advance()
            right, rh = self.term(depth + 1)
            left, height = self._node(
                Binary(op_tok.text, left, right, span=op_tok.span), height, rh)
        return left, height

    def term(self, depth: int) -> tuple[Expr, int]:
        left, height = self.factor(depth + 1)
        while self.peek().kind in ("STAR", "SLASH"):
            op_tok = self.advance()
            right, rh = self.factor(depth + 1)
            left, height = self._node(
                Binary(op_tok.text, left, right, span=op_tok.span), height, rh)
        return left, height

    def factor(self, depth: int) -> tuple[Expr, int]:
        self._check_depth(depth)
        tok = self.peek()
        kind = tok.kind
        if kind == "MINUS":
            self.advance()
            operand, height = self.factor(depth + 1)
            return self._node(Unary("-", operand, span=tok.span), height)
        if kind == "LPAREN":
            self.advance()
            inner = self.expr(depth + 1)
            self.expect("RPAREN", "')'")
            return inner
        if kind == "NUMBER":
            leaf = Lit(_literal(tok), span=tok.span)
        elif kind == "STRING":
            leaf = StrLit(tok.text, span=tok.span)
        elif kind == "true" or kind == "false":
            leaf = BoolLit(kind == "true", span=tok.span)
        elif kind == "IDENT":
            leaf = Name(tok.text, span=tok.span)
        else:
            shown = tok.text if kind != "EOF" else "end of input"
            raise _ParseError(tok.span, f"expected an expression, found {shown!r}")
        self.advance()
        return leaf, 0


def _literal(tok: Token) -> Fraction:
    """The exact value of a NUMBER token. Decimal reads any number of
    digits, where int() and Fraction() stop at 4,300."""
    numerator, denominator = Decimal(tok.text).as_integer_ratio()
    if numerator >= LITERAL_LIMIT or denominator >= LITERAL_LIMIT:
        raise _ParseError(tok.span, "number literal has more than 4300 digits "
                          "in its reduced numerator or denominator")
    return Fraction(numerator, denominator)


def decode_source(data: bytes) -> tuple[str, Diagnostic | None]:
    """Decode policy bytes as UTF-8, mapping failures to a located diagnostic."""
    try:
        return data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        prefix = data[: exc.start].decode("utf-8", errors="replace")
        line = prefix.count("\n") + 1
        col = len(prefix) - (prefix.rfind("\n") + 1) + 1
        diag = error(E_SYNTAX, Span.point(line, col),
                     f"invalid UTF-8 byte at offset {exc.start}")
        return "", diag


def parse(source: str | bytes) -> ParseResult:
    """Parse policy text into an AST, or collect located diagnostics."""
    if isinstance(source, bytes):
        text, decode_diag = decode_source(source)
        if decode_diag is not None:
            return ParseResult(None, [decode_diag])
    else:
        text = source
    tokens, diagnostics = tokenize(text)
    parser = _Parser(tokens)
    ast = parser.policy()
    diagnostics.extend(parser.diagnostics)
    if has_errors(diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(ast, diagnostics)
