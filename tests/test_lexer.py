import sys

import pytest

from axgate.compiler import compile_source
from axgate.lexer import tokenize


def lex(source):
    tokens, diagnostics = tokenize(source)
    return (
        [(t.kind, t.text, (t.span.line, t.span.col, t.span.end_line, t.span.end_col))
         for t in tokens],
        [(d.code, d.message, (d.span.line, d.span.col, d.span.end_line, d.span.end_col))
         for d in diagnostics],
    )


UNTERMINATED = "unterminated string literal"

TABLE = [
    # escapes: \n and \t, and a backslash before anything else is that character
    (r'"a\nb\tc\"d\\e\q"',
     [("STRING", 'a\nb\tc"d\\eq', (1, 1, 1, 18)), ("EOF", "", (1, 18, 1, 18))], []),
    # an unterminated string stops at the newline, which still ends the line
    ('"abc\nx',
     [("IDENT", "x", (2, 1, 2, 2)), ("EOF", "", (2, 2, 2, 2))],
     [("syntax", UNTERMINATED, (1, 1, 1, 5))]),
    ('x "abc',
     [("IDENT", "x", (1, 1, 1, 2)), ("EOF", "", (1, 7, 1, 7))],
     [("syntax", UNTERMINATED, (1, 3, 1, 7))]),
    ('"abc\\',
     [("EOF", "", (1, 6, 1, 6))],
     [("syntax", UNTERMINATED, (1, 1, 1, 6))]),
    ('"abc\\"',
     [("EOF", "", (1, 7, 1, 7))],
     [("syntax", UNTERMINATED, (1, 1, 1, 7))]),
    # a backslash-newline is a newline in the string; the line count does
    # not see it, so the spans after it stay on line 1
    ('"a\\\nb" x\ny',
     [("STRING", "a\nb", (1, 1, 1, 7)), ("IDENT", "x", (1, 8, 1, 9)),
      ("IDENT", "y", (2, 1, 2, 2)), ("EOF", "", (2, 2, 2, 2))], []),
    # comments run to the end of the line
    ('a # ) "not a string\n  b#c',
     [("IDENT", "a", (1, 1, 1, 2)), ("IDENT", "b", (2, 3, 2, 4)),
      ("EOF", "", (2, 6, 2, 6))], []),
    ("a\r\nb\r\n",
     [("IDENT", "a", (1, 1, 1, 2)), ("IDENT", "b", (2, 1, 2, 2)),
      ("EOF", "", (3, 1, 3, 1))], []),
    ("<= >= == != < > = !",
     [("LE", "<=", (1, 1, 1, 3)), ("GE", ">=", (1, 4, 1, 6)),
      ("EQEQ", "==", (1, 7, 1, 9)), ("NEQ", "!=", (1, 10, 1, 12)),
      ("LT", "<", (1, 13, 1, 14)), ("GT", ">", (1, 15, 1, 16)),
      ("EQ", "=", (1, 17, 1, 18)), ("EOF", "", (1, 20, 1, 20))],
     [("syntax", "unexpected character '!'", (1, 19, 1, 20))]),
    ("<<=",
     [("LT", "<", (1, 1, 1, 2)), ("LE", "<=", (1, 2, 1, 4)),
      ("EOF", "", (1, 4, 1, 4))], []),
    ("12abc",
     [("NUMBER", "12", (1, 1, 1, 3)), ("IDENT", "abc", (1, 3, 1, 6)),
      ("EOF", "", (1, 6, 1, 6))], []),
    ("1. .5 0.25",
     [("NUMBER", "1", (1, 1, 1, 2)), ("NUMBER", "5", (1, 5, 1, 6)),
      ("NUMBER", "0.25", (1, 7, 1, 11)), ("EOF", "", (1, 11, 1, 11))],
     [("syntax", "unexpected character '.'", (1, 2, 1, 3)),
      ("syntax", "unexpected character '.'", (1, 4, 1, 5))]),
    # identifiers: isalpha() or _ first, then isalnum() or _
    ("é_1 _x größe x² axiom axioms",
     [("IDENT", "é_1", (1, 1, 1, 4)), ("IDENT", "_x", (1, 5, 1, 7)),
      ("IDENT", "größe", (1, 8, 1, 13)), ("IDENT", "x²", (1, 14, 1, 16)),
      ("axiom", "axiom", (1, 17, 1, 22)), ("IDENT", "axioms", (1, 23, 1, 29)),
      ("EOF", "", (1, 29, 1, 29))], []),
    # ½ passes isalnum() but not isalpha(): it cannot start a word
    ("½x \x0b",
     [("IDENT", "x", (1, 2, 1, 3)), ("EOF", "", (1, 5, 1, 5))],
     [("syntax", "unexpected character '½'", (1, 1, 1, 2)),
      ("syntax", "unexpected character '\\x0b'", (1, 4, 1, 5))]),
    ("", [("EOF", "", (1, 1, 1, 1))], []),
]


@pytest.mark.parametrize("source,tokens,diagnostics", TABLE)
def test_token_table(source, tokens, diagnostics):
    assert lex(source) == (tokens, diagnostics)


def test_numbers_take_ascii_digits_only():
    """Every digit outside 0-9 is an unexpected character: the decimal
    digits of other scripts (`٣`) and the code points that pass isdigit()
    but not isdecimal() (`²`), whose text Fraction() cannot read."""
    not_decimal = [chr(c) for c in range(sys.maxunicode + 1)
                   if chr(c).isdigit() and not chr(c).isdecimal()]
    assert "²" in not_decimal and "፩" in not_decimal
    head = 'concept x : quantity from request "X"\naxiom a forbid t when x > '
    for ch in not_decimal + ["٣", "۱", "０"]:
        result = compile_source(head + ch + "\n")  # must never raise
        assert not result.ok
        first = result.diagnostics[0]
        assert (first.code, first.message) == ("syntax", f"unexpected character {ch!r}")
        assert (first.span.line, first.span.col) == (2, 27)
        assert lex("1" + ch)[0][0] == ("NUMBER", "1", (1, 1, 1, 2))
