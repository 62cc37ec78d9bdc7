"""Scanner tests: token kinds, sketch symbols, spans, escapes, errors."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchsynth.errors import SketchError
from sketchsynth.lexer import KEYWORDS, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def test_sketch_symbols_tokenize_as_single_tokens():
    assert kinds("?? {| |}") == ["??", "{|", "|}"]


def test_choice_brackets_win_over_brace_and_pipe():
    # "{|" must not scan as "{" followed by an error
    toks = tokenize("{| x |}")
    assert [t.kind for t in toks] == ["{|", "IDENT", "|}"]


def test_operators_longest_match():
    assert kinds("<= >= == != && || < > = !") == [
        "<=", ">=", "==", "!=", "&&", "||", "<", ">", "=", "!"]


def test_keywords_and_identifiers():
    toks = tokenize("class harness generator minrepeat minimize x1 _y")
    assert [t.kind for t in toks[:4]] == [
        "class", "harness", "generator", "minrepeat"]
    # minimize is a plain call name, not a keyword
    assert toks[4].kind == "IDENT" and toks[4].text == "minimize"
    assert [t.text for t in toks[5:]] == ["x1", "_y"]


def test_int_string_char_literals():
    toks = tokenize('42 "abc" \'c\'')
    assert [(t.kind, t.text) for t in toks] == [
        ("INT", "42"), ("STRING", "abc"), ("CHAR", "c")]


def test_escape_sequences():
    toks = tokenize(r'"a\n\t\"\\" ' + r"'\n' '\''")
    assert toks[0].text == 'a\n\t"\\'
    assert toks[1].text == "\n"
    assert toks[2].text == "'"


@pytest.mark.parametrize("literal, value", [
    (r'"\0"', "\0"), (r'"\01"', "\1"), (r'"\101"', "A"), (r'"\377"', "\xff"),
    (r'"\1234"', "S4"), (r'"\400"', " 0"), (r'"\477"', "'7"), (r'"\08"', "\08"),
    (r'"a\7b"', "a\7b"), (r'"\b\f\s"', "\b\f "),
    (r"'\0'", "\0"), (r"'\101'", "A"), (r"'\377'", "\xff"), (r"'\47'", "'"),
    (r"'\s'", " "), (r"'\b'", "\b"), (r"'\f'", "\f"),
])
def test_octal_and_named_escapes_as_in_jls_3_10_7(literal, value):
    # an octal escape takes as many digits as it can, up to \377
    (tok,) = tokenize(literal)
    assert tok.text == value


@pytest.mark.parametrize("text", ["c = '\\400';", "c = '\\1234';"])
def test_char_literal_of_an_octal_escape_and_a_digit_is_malformed(text):
    with pytest.raises(SketchError, match="malformed char literal") as info:
        tokenize(text, file_id="f.java")
    assert (info.value.message, str(info.value.span)) == (
        "malformed char literal", "f.java:1:5")


@pytest.mark.parametrize("text, tokens", [
    (r'"\u0041"', [("STRING", "A")]),
    (r"'\uuu0042'", [("CHAR", "B")]),
    (r"\u0061b", [("IDENT", "ab")]),
    # an escaped backslash does not start one (JLS 3.3)
    (r'"\\u0041"', [("STRING", "\\u0041")]),
    (r'"\\\u0041"', [("STRING", "\\A")]),
    # a translated backslash starts no Unicode escape, but an escape
    (r'"\u005c\u005c"', [("STRING", "\\")]),
    (r'"\u005cn"', [("STRING", "\n")]),
    (r"a\u002b\u002bb", [("IDENT", "a"), ("+", "+"), ("+", "+"),
                          ("IDENT", "b")]),
])
def test_unicode_escapes_are_translated_first(text, tokens):
    assert [(t.kind, t.text) for t in tokenize(text)] == tokens


def test_a_string_literal_holds_utf16_code_units():
    # U+1F600 is one character of the file and two of the String, the
    # same two that its pair of Unicode escapes gives
    raw, escaped = tokenize('"a\U0001F600" "a\\ud83d\\ude00"')
    assert raw.text == escaped.text == "a\ud83d\ude00"
    assert raw.span.length == 4


def test_columns_after_a_unicode_escape_count_raw_characters():
    toks = tokenize("class U {\n"
                    "    harness static void t() { int \\u0061b = zz; }\n"
                    "  \\uu0041\\u0042 = \"\\u0043\"; z\n"
                    "\\u0041 y", file_id="U.java")
    spans = {t.text: t.span for t in toks}
    assert (spans["ab"].line, spans["ab"].col, spans["ab"].length) == \
        (2, 35, 7)
    assert (spans["zz"].line, spans["zz"].col) == (2, 45)
    assert (spans["AB"].col, spans["AB"].length) == (3, 13)
    assert (spans["C"].col, spans["C"].length) == (19, 8)
    assert (spans["z"].line, spans["z"].col) == (3, 29)
    assert (spans["A"].line, spans["A"].col, spans["y"].col) == (4, 1, 8)


def test_comments_are_skipped():
    assert kinds("a // line comment\n b /* block\n comment */ c") == [
        "IDENT", "IDENT", "IDENT"]


def test_spans_are_one_based_line_and_col():
    toks = tokenize("a\n  bb", file_id="f.java")
    assert (toks[0].span.line, toks[0].span.col) == (1, 1)
    assert (toks[1].span.line, toks[1].span.col) == (2, 3)
    assert toks[1].span.file == "f.java"


def test_unterminated_string_is_a_lex_error():
    with pytest.raises(SketchError, match="unterminated string literal"):
        tokenize('"oops')


def test_stray_character_is_a_lex_error():
    with pytest.raises(SketchError, match="unexpected character '@'"):
        tokenize("a @ b")


@pytest.mark.parametrize("text, message, where", [
    ("a\n  /* x\n", "unterminated block comment", "f.java:2:3"),
    ('x = "ab\nc";', "unterminated string literal", "f.java:1:5"),
    ('x = "ab', "unterminated string literal", "f.java:1:5"),
    ('x = "ab\\', "unterminated string literal", "f.java:1:5"),
    ("c = 'ab';", "malformed char literal", "f.java:1:5"),
    ("c = '\\q", "malformed char literal", "f.java:1:5"),
    ('s = "a\\qb";', "unknown escape '\\q'", "f.java:1:5"),
    ('s = "a\\q', "unknown escape '\\q'", "f.java:1:5"),
    ("c = '\\q';", "unknown escape '\\q'", "f.java:1:5"),
    ("a\n @ b", "unexpected character '@'", "f.java:2:2"),
    ("a\t#", "unexpected character '#'", "f.java:1:3"),
    ("x = 2½;", "unexpected character '½'", "f.java:1:6"),
], ids=["block-comment", "string-newline", "string-eof", "string-backslash-eof",
        "char-long", "char-escape-eof", "string-escape", "escape-before-eof",
        "char-escape", "at-sign", "after-tab", "non-letter-start"])
def test_lex_errors_keep_message_and_position(text, message, where):
    with pytest.raises(SketchError, match=re.escape(message)) as info:
        tokenize(text, file_id="f.java")
    assert info.value.message == message
    assert str(info.value.span) == where


def test_positions_after_block_comment_crlf_and_tab():
    toks = tokenize("/* one\n two\n */ a\r\n\tb\r\n  \tc", file_id="f.java")
    assert [(t.text, t.span.line, t.span.col) for t in toks] == [
        ("a", 3, 5), ("b", 4, 2), ("c", 5, 4)]


@pytest.mark.parametrize("text", ["'''", "'\n'"], ids=["quote", "newline"])
def test_char_literal_of_a_bare_quote_or_line_end_is_malformed(text):
    # javac rejects both; each must be written as an escape
    with pytest.raises(SketchError, match="malformed char literal") as info:
        tokenize("c = " + text + ";", file_id="f.java")
    assert (info.value.message, str(info.value.span)) == (
        "malformed char literal", "f.java:1:5")


# -- property: tokens joined by skipped text come back with their spans -----
#
# Each strategy draws (raw source text, kind, text) for one token.

_SYMBOLS = ["??", "{|", "|}", "==", "!=", "<=", ">=", "&&", "||", "{", "}",
            "(", ")", ";", ",", ".", "<", ">", "+", "-", "*", "/", "%", "=",
            "!"]

# escapes as written and the character each stands for
_ESCAPED = st.sampled_from([
    ("\\n", "\n"), ("\\t", "\t"), ("\\r", "\r"), ("\\b", "\b"),
    ("\\f", "\f"), ("\\s", " "), ("\\\\", "\\"), ("\\'", "'"),
    ('\\"', '"'),
]) | st.integers(0, 0o377).map(lambda v: (f"\\{v:03o}", chr(v)))


def _plain(excluded):
    return st.characters(blacklist_characters=excluded + "\\\n\r",
                         blacklist_categories=("Cs",)).map(lambda c: (c, c))


def _word(word):
    return (word, word if word in KEYWORDS else "IDENT", word)


def _code_units(text):
    """``text`` as Java's String holds it: one character per UTF-16 code
    unit, so a character above U+FFFF becomes its surrogate pair."""
    data = text.encode("utf-16-be")
    return "".join(chr(int.from_bytes(data[i:i + 2], "big"))
                   for i in range(0, len(data), 2))


def _string(units):
    return ('"' + "".join(r for r, _ in units) + '"', "STRING",
            _code_units("".join(c for _, c in units)))


_TOKENS = st.one_of(
    st.from_regex(r"[A-Za-z_\u00e9\u00df][A-Za-z0-9_\u00e9]{0,5}",
                  fullmatch=True).map(_word),
    st.sampled_from(sorted(KEYWORDS)).map(_word),
    st.integers(0, 10 ** 12).map(lambda n: (str(n), "INT", str(n))),
    st.sampled_from(_SYMBOLS).map(lambda s: (s, s, s)),
    st.lists(_plain('"') | _ESCAPED, max_size=6).map(_string),
    (_plain("'") | _ESCAPED).map(lambda u: ("'" + u[0] + "'", "CHAR", u[1])),
)

_COMMENT_TEXT = st.text(st.characters(blacklist_characters="\r",
                                      blacklist_categories=("Cs",)),
                        max_size=8)

# skipped text starts with whitespace, so that it never joins the token
# before it (``/`` and ``/* */`` would make ``//* */``)
_SKIP = st.tuples(
    st.sampled_from([" ", "\t", "\n", "\r\n"]),
    st.lists(st.sampled_from([" ", "\t", "\n", "\r\n"])
             | _COMMENT_TEXT.map(lambda t: "//" + t.replace("\n", "") + "\n")
             | _COMMENT_TEXT.filter(lambda t: "*/" not in t)
                 .map(lambda t: "/*" + t + "*/"),
             max_size=3),
).map(lambda s: s[0] + "".join(s[1]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SKIP, _TOKENS), max_size=12), st.booleans(),
       st.sampled_from(["", " ", "\n", " // end", " /* end */\r\n"]))
def test_tokens_joined_by_skipped_text_come_back_with_their_spans(pairs, lead,
                                                                  tail):
    source = "".join(skip + raw for skip, (raw, _, _) in pairs) + tail
    if pairs and not lead:      # the first token at offset 0
        source = source[len(pairs[0][0]):]
    toks = tokenize(source, file_id="f.java")
    assert [(t.kind, t.text) for t in toks] == [
        (kind, text) for _, (_, kind, text) in pairs]
    line_starts = [0] + [i + 1 for i, c in enumerate(source) if c == "\n"]
    for tok, (_, (raw, _, _)) in zip(toks, pairs):
        span = tok.span
        assert span.file == "f.java"
        at = line_starts[span.line - 1] + span.col - 1
        assert source[at:at + span.length] == raw
