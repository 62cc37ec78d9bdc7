"""Scanner tests: token kinds, sketch symbols, spans, escapes, errors."""

import pytest

from sketchsynth.errors import LexError
from sketchsynth.lexer import tokenize


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


def test_comments_are_skipped():
    assert kinds("a // line comment\n b /* block\n comment */ c") == [
        "IDENT", "IDENT", "IDENT"]


def test_spans_are_one_based_line_and_col():
    toks = tokenize("a\n  bb", file_id="f.java")
    assert (toks[0].span.line, toks[0].span.col) == (1, 1)
    assert (toks[1].span.line, toks[1].span.col) == (2, 3)
    assert toks[1].span.file == "f.java"


def test_unterminated_string_is_a_lex_error():
    with pytest.raises(LexError):
        tokenize('"oops')


def test_stray_character_is_a_lex_error():
    with pytest.raises(LexError):
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
    with pytest.raises(LexError) as info:
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
    with pytest.raises(LexError) as info:
        tokenize("c = " + text + ";", file_id="f.java")
    assert (info.value.message, str(info.value.span)) == (
        "malformed char literal", "f.java:1:5")
