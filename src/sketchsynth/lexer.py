"""Tokenizer for the subject language.

Sketch extensions get their own token kinds: ``??`` (HOLE), ``{|`` (LCHOICE),
``|}`` (RCHOICE), and the ``minrepeat``/``harness``/``generator`` keywords.
Comments and whitespace are discarded; every token carries a SourceSpan.
Unicode escapes (``\\u0041``) are translated first, over the whole text
(JLS 3.3); columns and lengths still count the raw characters of the file.
A String literal's text is its UTF-16 code units, as in Java: a character
above U+FFFF is a surrogate pair, two characters of the text.

One compiled pattern scans the text, one match per token: the skipped
text (whitespace and comments) and then the token, in a named group per
token class.  The line and column come from counting newlines in the
skipped text.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import namedtuple

from .ast_nodes import SourceSpan
from .errors import SketchError

KEYWORDS = {
    "class", "interface", "extends", "implements", "new", "return",
    "if", "else", "while", "assert", "this", "true", "false", "null",
    "static", "final", "public", "private", "protected", "abstract",
    "void", "int", "boolean", "char",
    "minrepeat", "harness", "generator",
}

# what follows the backslash of an escape (JLS 3.10.7); an octal escape
# takes as many digits as it can, up to \377
_ESCAPE_TAIL = r"[0-3][0-7]{0,2}|[4-7][0-7]?|[\s\S]"

# alternatives are tried in order: multi-char symbols before their prefixes,
# and each malformed form after the well-formed one it would have been (an
# unclosed ``/*`` before the ``/`` symbol).  The end of the text is a match
# of its own: without it, the match after a trailing space would take the
# space back from the skipped text as a ``bad`` character.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]|//[^\n]*|/\*[\s\S]*?\*/)*"
    r"(?:(?P<open_comment>/\*)"
    r"|(?P<INT>[0-9]+)"
    r"|(?P<IDENT>[^\W\d]\w*)"
    r'|(?P<STRING>"(?P<body>(?:[^"\\\n]|\\[\s\S])*)"?)'
    rf"|(?P<CHAR>'(?:[^'\\\n]|\\(?:{_ESCAPE_TAIL}))')"
    r"|(?P<bad_char>')"
    r"|(?P<SYM>\?\?|\{\||\|\}|==|!=|<=|>=|&&|\|\||[{}();,.<>+\-*/%=!])"
    r"|(?P<end>\Z)"
    r"|(?P<bad>[\s\S]))")

_ESCAPE_RE = re.compile(rf"\\({_ESCAPE_TAIL})")

# a backslash starts a Unicode escape when an even number of backslashes
# precede it (JLS 3.3): ``\\u0041`` is an escaped backslash and ``u0041``
_UNICODE_RE = re.compile(r"(?<!\\)((?:\\\\)*)\\u+([0-9A-Fa-f]{4})")

# a character that UTF-16 writes as a surrogate pair
_SUPPLEMENTARY_RE = re.compile("[\U00010000-\U0010ffff]")

# builds a Token or SourceSpan from a tuple of its fields, without the
# namedtuple's ``__new__``
_new = tuple.__new__


class Token(namedtuple("Token", "kind text span")):
    """``kind`` is the keyword text, the symbol text, or one of IDENT, INT,
    STRING, CHAR and EOF; ``span`` is a SourceSpan."""

    __slots__ = ()

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r})"


def _translate_unicode(text):
    """(``text`` with its Unicode escapes translated, ``raw``), where
    ``raw(i)`` is the offset in ``text`` of offset ``i`` of the
    translation."""
    parts = []
    # from offset ends[k] of the translation on, raw offsets are
    # shifts[k] larger
    ends, shifts = [0], [0]
    pos = 0
    for m in _UNICODE_RE.finditer(text):
        at = m.end(1)
        parts += text[pos:at], chr(int(m[2], 16))
        pos = m.end()
        ends.append(at - shifts[-1] + 1)
        shifts.append(shifts[-1] + pos - at - 1)
    parts.append(text[pos:])
    return "".join(parts), \
        lambda i: i + shifts[bisect_right(ends, i) - 1]


def tokenize(source_text, file_id="<input>"):
    """Scan ``source_text`` into a token list (without the trailing EOF)."""
    raw = None
    if "\\u" in source_text:
        source_text, raw = _translate_unicode(source_text)
    toks = []
    file_id = str(file_id)
    count = source_text.count
    line = 1
    line_start = 0   # offset of the first character of ``line``
    prev_end = 0     # end of the previous token
    for m in _TOKEN_RE.finditer(source_text):
        kind = m.lastgroup
        start, end = m.span(kind)
        if start != prev_end:
            newlines = count("\n", prev_end, start)
            if newlines:
                line += newlines
                line_start = source_text.rindex("\n", prev_end, start) + 1
        prev_end = end
        text = source_text[start:end]
        if raw is None:
            span = _new(SourceSpan, (file_id, line, start - line_start + 1,
                                     end - start))
        else:
            span = _new(SourceSpan, (file_id, line,
                                     raw(start) - raw(line_start) + 1,
                                     raw(end) - raw(start)))
        if kind == "IDENT":
            if text in KEYWORDS:
                kind = text
            elif not (text[0].isalpha() or text[0] == "_"):   # e.g. '½'
                raise SketchError(f"unexpected character {text[0]!r}",
                                  span._replace(length=1))
        elif kind == "SYM":
            kind = text
        elif kind == "INT":
            pass
        elif kind == "end":
            break
        elif kind == "STRING":
            text = _unescape(m.group("body"), span._replace(length=2))
            if m.end("body") == end:
                raise SketchError("unterminated string literal",
                                  span._replace(length=end - start))
            text = _SUPPLEMENTARY_RE.sub(_surrogate_pair, text)
        elif kind == "CHAR":
            text = _unescape(text[1:-1], span._replace(length=2))
        elif kind == "open_comment":
            raise SketchError("unterminated block comment", span)
        elif kind == "bad_char":
            raise SketchError("malformed char literal", span._replace(length=2))
        elif kind == "bad":
            raise SketchError(f"unexpected character {text!r}", span)
        toks.append(_new(Token, (kind, text, span)))
    return toks


def _surrogate_pair(m):
    """The high and the low surrogate of character ``m[0]`` (JLS 3.1)."""
    c = ord(m[0]) - 0x10000
    return chr(0xD800 | c >> 10) + chr(0xDC00 | c & 0x3FF)


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f", "s": " ",
            "\\": "\\", "'": "'", '"': '"'}


def _unescape(text, at):
    """``text`` with every backslash escape replaced; SketchError at ``at`` on
    the first unknown one."""
    def one(m):
        tail = m[1]
        if "0" <= tail[0] <= "7":     # an octal escape
            return chr(int(tail, 8))
        try:
            return _ESCAPES[tail]
        except KeyError:
            raise SketchError(f"unknown escape '\\{tail}'", at) from None
    return _ESCAPE_RE.sub(one, text)
