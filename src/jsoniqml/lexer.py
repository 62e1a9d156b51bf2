"""Tokenizer for the query language subset."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import QueryParseError

# Words with grammatical meaning. They are matched contextually by the
# parser; the lexer only produces NAME tokens.
KEYWORDS = frozenset(
    {
        "for", "let", "where", "order", "by", "return", "if", "then", "else",
        "declare", "function", "at", "in", "to", "as",
        "eq", "ne", "lt", "le", "gt", "ge",
        "div", "idiv", "mod", "and", "or", "not",
        "true", "false", "null",
        "ascending", "descending",
    }
)

NAME = "name"
VAR = "var"
CONTEXT = "context"
STRING = "string"
INTEGER = "integer"
DECIMAL = "decimal"
DOUBLE = "double"
EOF = "eof"

_PUNCT_2 = (":=", "{|", "|}")
_PUNCT_1 = "()[]{},:.+-*#;"

_ESCAPE_MAP = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t"}


@dataclass
class Token:
    type: str
    value: str
    line: int
    col: int


_ASCII_DIGITS = "0123456789"
# a fraction or an exponent counts only with a digit after it: `1.` is `1` `.`
_NUMBER = re.compile(r"[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?")


def _is_digit(ch: str) -> bool:
    # str.isdigit admits unicode digits that int() rejects; stay ASCII
    return ch in _ASCII_DIGITS


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_name_char(ch: str) -> bool:
    return ch.isalpha() or ch in _ASCII_DIGITS or ch == "_"


def lex(text: str) -> "list[Token]":
    """Tokenize, attaching 1-based line/column positions.

    Comments `(: ... :)` nest and are discarded. A name may contain hyphens
    when the hyphen is followed by a letter (so `get-transformer` is one
    token but `$a - 1` is three) and one `prefix:local` colon.

    The offset `i` is the only cursor; `line` and `line_start` (the offset
    of the current line's first character) move only where a line break
    (`\n`, `\r\n` or a lone `\r`) can be consumed, in whitespace and
    comments, and a column is derived as `i - line_start + 1`.
    """
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            if ch == "\n" or (ch == "\r" and not text.startswith("\n", i + 1)):
                line += 1
                line_start = i + 1
            i += 1
            continue
        col = i - line_start + 1
        if text.startswith("(:", i):
            depth = 0
            j = i
            while j < n:
                if text.startswith("(:", j):
                    depth += 1
                    j += 2
                elif text.startswith(":)", j):
                    depth -= 1
                    j += 2
                    if depth == 0:
                        break
                else:
                    j += 1
            if depth != 0:
                raise QueryParseError("LEX_ERROR", "unterminated comment", (line, col))
            breaks = text.count("\n", i, j) + text.count("\r", i, j) - text.count("\r\n", i, j)
            if breaks:
                line += breaks
                line_start = max(text.rfind("\n", i, j), text.rfind("\r", i, j)) + 1
            i = j
            continue
        if ch == '"':
            i += 1
            out = []
            while True:
                if i >= n or text[i] == "\n":
                    raise QueryParseError(
                        "LEX_ERROR", "unterminated string literal", (line, col)
                    )
                c = text[i]
                if c == '"':
                    i += 1
                    break
                if c == "\\":
                    i += 1
                    if i >= n:
                        raise QueryParseError(
                            "LEX_ERROR", "unterminated string literal", (line, col)
                        )
                    esc = text[i]
                    if esc in _ESCAPE_MAP:
                        out.append(_ESCAPE_MAP[esc])
                        i += 1
                    elif esc == "u":
                        hexpart = text[i + 1 : i + 5]
                        if len(hexpart) < 4 or any(h not in "0123456789abcdefABCDEF" for h in hexpart):
                            raise QueryParseError(
                                "LEX_ERROR", "bad \\u escape", (line, i - line_start + 1)
                            )
                        out.append(chr(int(hexpart, 16)))
                        i += 5
                    else:
                        raise QueryParseError(
                            "LEX_ERROR", f"bad escape \\{esc}", (line, i - line_start + 1)
                        )
                else:
                    out.append(c)
                    i += 1
            tokens.append(Token(STRING, "".join(out), line, col))
            continue
        if ch == "$":
            if text.startswith("$$", i):
                i += 2
                tokens.append(Token(CONTEXT, "$$", line, col))
                continue
            i += 1
            if i >= n or not _is_name_start(text[i]):
                raise QueryParseError("LEX_ERROR", "expected variable name after '$'", (line, col))
            name = _lex_name(text, i)
            i += len(name)
            tokens.append(Token(VAR, name, line, col))
            continue
        if _is_digit(ch):
            m = _NUMBER.match(text, i)
            kind = DOUBLE if m.group(2) else DECIMAL if m.group(1) else INTEGER
            tokens.append(Token(kind, m.group(), line, col))
            i = m.end()
            continue
        if _is_name_start(ch):
            name = _lex_name(text, i)
            i += len(name)
            # one prefix:local colon, glued tight on both sides
            if i < n and text[i] == ":" and i + 1 < n and _is_name_start(text[i + 1]) and ":" not in name:
                local = _lex_name(text, i + 1)
                i += 1 + len(local)
                name = f"{name}:{local}"
            tokens.append(Token(NAME, name, line, col))
            continue
        two = text[i : i + 2]
        if two in _PUNCT_2:
            tokens.append(Token(two, two, line, col))
            i += 2
            continue
        if ch in _PUNCT_1:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            continue
        raise QueryParseError("LEX_ERROR", f"illegal character {ch!r}", (line, col))

    tokens.append(Token(EOF, "", line, i - line_start + 1))
    return tokens


def _lex_name(text: str, start: int) -> str:
    n = len(text)
    j = start
    while j < n:
        if _is_name_char(text[j]):
            j += 1
        elif text[j] == "-" and j + 1 < n and _is_name_start(text[j + 1]):
            j += 1
        else:
            break
    return text[start:j]
