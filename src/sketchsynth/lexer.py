"""Tokenizer for the subject language.

Sketch extensions get their own token kinds: ``??`` (HOLE), ``{|`` (LCHOICE),
``|}`` (RCHOICE), and the ``minrepeat``/``harness``/``generator`` keywords.
Comments and whitespace are discarded; every token carries a SourceSpan.

One compiled pattern scans the text, with a named group per token class; the
line and column come from counting newlines in the skipped text.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .ast_nodes import SourceSpan
from .errors import LexError

KEYWORDS = {
    "class", "interface", "extends", "implements", "new", "return",
    "if", "else", "while", "assert", "this", "true", "false", "null",
    "static", "final", "public", "private", "protected", "abstract",
    "void", "int", "boolean", "char",
    "minrepeat", "harness", "generator",
}

# alternatives are tried in order: multi-char symbols before their prefixes,
# and each malformed form after the well-formed one it would have been
_TOKEN_RE = re.compile(
    r"(?P<skip>(?:[ \t\r\n]|//[^\n]*|/\*[\s\S]*?\*/)+)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<INT>[0-9]+)"
    r"|(?P<IDENT>[^\W\d]\w*)"
    r'|(?P<STRING>"(?P<body>(?:[^"\\\n]|\\[\s\S])*)"?)'
    r"|(?P<CHAR>'(?:[^'\\\n]|\\[\s\S])')"
    r"|(?P<bad_char>')"
    r"|(?P<SYM>\?\?|\{\||\|\}|==|!=|<=|>=|&&|\|\||[{}();,.<>+\-*/%=!])"
    r"|(?P<bad>[\s\S])")

_ESCAPE_RE = re.compile(r"\\([\s\S])")


class Token(namedtuple("Token", "kind text span")):
    """``kind`` is the keyword text, the symbol text, or one of IDENT, INT,
    STRING, CHAR and EOF; ``span`` is a SourceSpan."""

    __slots__ = ()

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r})"


def tokenize(source_text, file_id="<input>"):
    """Scan ``source_text`` into a token list (without the trailing EOF)."""
    toks = []
    file_id = str(file_id)
    line = 1
    line_start = 0   # offset of the first character of ``line``
    for m in _TOKEN_RE.finditer(source_text):
        kind = m.lastgroup
        text = m.group()
        start = m.start()
        if kind == "skip":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        span = SourceSpan(file_id, line, start - line_start + 1, len(text))
        if kind == "IDENT":
            if text in KEYWORDS:
                kind = text
            elif not (text[0].isalpha() or text[0] == "_"):   # e.g. '½'
                raise LexError(f"unexpected character {text[0]!r}",
                               span._replace(length=1))
        elif kind == "SYM":
            kind = text
        elif kind == "STRING":
            text = _unescape(m.group("body"), span._replace(length=2))
            if m.end("body") == m.end():
                raise LexError("unterminated string literal",
                               span._replace(length=m.end("body") - start))
        elif kind == "CHAR":
            text = _unescape(text[1:-1], span._replace(length=2))
        elif kind == "open_comment":
            raise LexError("unterminated block comment", span)
        elif kind == "bad_char":
            raise LexError("malformed char literal", span._replace(length=2))
        elif kind == "bad":
            raise LexError(f"unexpected character {text!r}", span)
        toks.append(Token(kind, text, span))
    return toks


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'", '"': '"', "0": "\0"}


def _unescape(text, at):
    """``text`` with every backslash escape replaced; LexError at ``at`` on
    the first unknown one."""
    def one(m):
        try:
            return _ESCAPES[m[1]]
        except KeyError:
            raise LexError(f"unknown escape '\\{m[1]}'", at) from None
    return _ESCAPE_RE.sub(one, text)
