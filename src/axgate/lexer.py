"""Tokenizer for the policy DSL.

One regular expression names every lexeme; a short loop turns its matches
into tokens with 1-based spans. Total over arbitrary input: every string
yields a token stream or located diagnostics, never an exception.

- `#` starts a line comment; space, tab and carriage return separate tokens.
- NUMBER is ASCII digits with an optional fraction (`12`, `0.5`); `1.` and
  `.5` are not numbers.
- An identifier starts with a character that passes `isalpha()` or `_`,
  and goes on with characters that pass `isalnum()` or `_`. Keywords are
  identifiers reserved below.
- A string is double-quoted and holds no raw newline: one left open is an
  `unterminated string literal` up to the end of its line. `\\n` and `\\t`
  are newline and tab; a backslash before any other character stands for
  that character. A backslash-newline is a newline in the string, but the
  spans after it keep counting columns on the string's line.
- Anything else, a digit outside `0-9` included, is an
  `unexpected character` diagnostic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .diagnostics import Diagnostic, E_SYNTAX, Span, error

KEYWORDS = frozenset(
    {
        "concept", "axiom", "forbid", "permit", "when", "explain",
        "from", "request", "state", "derived", "unit",
        "quantity", "money", "enum", "flag", "text",
        "and", "or", "not", "true", "false",
    }
)

PUNCT = {
    "(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
    ",": "COMMA", ":": "COLON", "=": "EQ", "*": "STAR",
    "+": "PLUS", "-": "MINUS", "/": "SLASH",
    "<": "LT", "<=": "LE", ">": "GT", ">=": "GE",
    "==": "EQEQ", "!=": "NEQ",
}

# Each match takes the blanks before one lexeme. \w is exactly
# `isalnum() or "_"`; tokenize() checks a word's first character.
_LEXEME = re.compile(r"""
    [ \t\r]*
    (?: (?P<newline> \n )
      | (?P<comment> \#[^\n]* )
      | (?P<NUMBER> [0-9]+ (?: \.[0-9]+ )? )
      | (?P<word> \w+ )
      | (?P<STRING> " (?: [^"\\\n] | \\. )* " )
      | (?P<unterminated> " (?: [^"\\\n] | \\.? )* )
      | (?P<punct> [<>=!]= | [(){},:=*+\-/<>] )
      | (?P<other> . )
      | (?P<end> \Z ) )
""", re.VERBOSE | re.DOTALL)

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _unescape(match: re.Match) -> str:
    ch = match[1]
    return "\n" if ch == "n" else "\t" if ch == "t" else ch


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # IDENT, NUMBER, STRING, EOF, a keyword, or a PUNCT name
    text: str
    span: Span


def tokenize(source: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    line, line_start, pos = 1, 0, 0
    match = _LEXEME.match
    while pos < len(source):
        m = match(source, pos)
        kind, pos = m.lastgroup, m.end()
        if kind == "newline":
            line, line_start = line + 1, pos
            continue
        if kind == "comment" or kind == "end":
            continue
        text = m[kind]
        start = pos - len(text)
        if kind == "word" and not (text[0].isalpha() or text[0] == "_"):
            kind, text, pos = "other", text[0], start + 1
        col = start - line_start + 1
        span = Span(line, col, line, col + pos - start)
        if kind == "word":
            tokens.append(Token(text if text in KEYWORDS else "IDENT", text, span))
        elif kind == "punct":
            tokens.append(Token(PUNCT[text], text, span))
        elif kind == "NUMBER":
            tokens.append(Token(kind, text, span))
        elif kind == "STRING":
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(_unescape, body)
            tokens.append(Token(kind, body, span))
        elif kind == "unterminated":
            diagnostics.append(error(E_SYNTAX, span, "unterminated string literal"))
        else:
            diagnostics.append(error(E_SYNTAX, span, f"unexpected character {text!r}"))
    col = pos - line_start + 1
    tokens.append(Token("EOF", "", Span(line, col, line, col)))
    return tokens, diagnostics
