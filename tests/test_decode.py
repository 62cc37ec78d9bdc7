"""Decode tests: substitution, emission invariants, round-trips."""

import pytest

from conftest import CADSR, DB, MULT2, program_files, run_front_end
from sketchsynth import bitvec as B
from sketchsynth import decode, engine
from sketchsynth.errors import InternalError
from sketchsynth.interp import ConcreteUnknowns, Interp
from sketchsynth.lexer import tokenize
from sketchsynth.parser import parse_program_texts


def solve_files(names, **cfg_kw):
    ast, _, _, prog = run_front_end(files=program_files(*names))
    cfg = engine.EngineConfig(**cfg_kw)
    result = engine.solve(prog, cfg)
    assert isinstance(result, engine.Solution)
    return ast, prog, result, cfg


def test_mult2_substitution_yields_two_times_x():
    ast, _, result, _ = solve_files(MULT2)
    text = decode.unparse_program(ast, result.assignment)
    (math_file,) = [t for f, t in text.items() if "SimpleMath" in f]
    assert "return 2 * x;" in math_file


def test_no_sketch_tokens_and_no_sketch_modifiers_in_output():
    ast, _, result, _ = solve_files(DB)
    blob = "".join(
        decode.unparse_program(ast, result.assignment).values())
    for token in ("??", "{|", "|}", "minrepeat", "harness", "generator",
                  "minimize"):
        assert token not in blob


def test_minrepeat_expands_to_per_iteration_copies():
    ast, _, result, _ = solve_files(DB)
    blob = "".join(
        decode.unparse_program(ast, result.assignment).values())
    depth = result.assignment.repeat_counts["e_r1"]
    assert depth == blob.count("if (state == ")


def test_unknown_free_program_round_trips_unchanged():
    ast, _, _, _ = run_front_end(
        texts=[("f.java", "class A { int f(int x) { return x + 1; } }")])
    empty = engine.Assignment({}, {})
    assert (decode.unparse_program(ast, empty)
            == decode.unparse_program(ast))


def test_missing_value_raises_incomplete_solution():
    ast, _, _, _ = run_front_end(
        texts=[("f.java", "class A { static int s = ??; }")])
    with pytest.raises(InternalError):
        decode.unparse_program(ast, engine.Assignment({}, {}))


def test_missing_repeat_count_raises_incomplete_solution():
    ast, _, _, _ = run_front_end(texts=[(
        "f.java", "class A { static void f() { minrepeat { int x = 1; } } }")])
    with pytest.raises(InternalError, match="no count for 'e_r1'"):
        decode.unparse_program(ast, engine.Assignment({}, {}))


def test_out_of_range_choice_raises_incomplete_solution():
    ast, _, _, _ = run_front_end(
        texts=[("f.java", "class A { static int s = {| 1, 2 |}; }")])
    with pytest.raises(InternalError, match="out of range"):
        decode.unparse_program(
            ast, engine.Assignment({"e_c1": 2}, {}))


def test_minrepeat_copies_read_their_own_iteration_values():
    ast, _, _, _ = run_front_end(texts=[("f.java", """
        class A { static int acc; harness static void t() {
            if (acc > 0) minrepeat { acc = acc + ??; minimize(acc); } } }""")])
    text = decode.unparse_program(ast, engine.Assignment(
        {"e_h1_0": 2, "e_h1_1": 3}, {"e_r1": 2}))["f.java"]
    assert ("if (acc > 0) {\n"
            "            acc = acc + 2;\n"
            "            acc = acc + 3;\n"
            "        }") in text
    assert "minimize" not in text


def test_bool_holes_render_as_keywords():
    ast, _, _, _ = run_front_end(
        texts=[("f.java", "class A { static boolean b = ??; }")])
    text = decode.unparse_program(
        ast, engine.Assignment({"e_h1": 1}, {}))["f.java"]
    assert "b = true" in text


def test_negative_hole_under_unary_minus_is_parenthesized():
    ast, _, _, _ = run_front_end(
        texts=[("f.java", "class A { static int s = -??; }")])
    text = decode.unparse_program(
        ast, engine.Assignment({"e_h1": B.to_unsigned(-5)}, {}))["f.java"]
    assert "s = -(-5);" in text
    assert decode.unparse_program(parse_program_texts([("f.java", text)])) \
        == {"f.java": text}


def test_unbraced_bodies_print_without_trailing_space():
    ast, _, _, _ = run_front_end(texts=[("f.java", """
        class A { static int f(int x) {
            if (x > 0) x = ??; else x = 2;
            while (x > 5) x = x - 1;
            return x; } }""")])
    text = decode.unparse_program(
        ast, engine.Assignment({"e_h1": 1}, {}))["f.java"]
    assert ("        if (x > 0)\n"
            "            x = 1;\n"
            "        else\n"
            "            x = 2;\n"
            "        while (x > 5)\n"
            "            x = x - 1;\n") in text
    assert all(line == line.rstrip() for line in text.splitlines())
    assert decode.unparse_program(parse_program_texts([("f.java", text)])) \
        == {"f.java": text}


@pytest.mark.parametrize("names", [MULT2, DB, CADSR], ids=["mult2", "db", "cadsr"])
def test_reparse_and_run_passes_all_harnesses(names):
    ast, prog, result, cfg = solve_files(names)
    texts = decode.unparse_program(ast, result.assignment)
    _, registry2, _, prog2 = run_front_end(texts=list(texts.items()))
    assert registry2.holes == registry2.choices == registry2.repeats == []
    for h in prog.harnesses:
        interp = Interp(prog2, ConcreteUnknowns({}), {}, cfg)
        interp.run_harness(h)


def test_unparse_is_idempotent_after_reparse():
    ast, _, result, _ = solve_files(DB)
    once = decode.unparse_program(ast, result.assignment)
    again = decode.unparse_program(parse_program_texts(list(once.items())))
    assert once == again


def test_printed_literals_read_back_as_the_same_characters():
    # a digit after an escape must not join it, so a control character
    # goes out as three octal digits; so does any other character an octal
    # escape can write, and one above it as a Unicode escape, which keeps
    # the text ASCII for javac in any locale
    for c in map(chr, [*range(0x100), *range(0x100, 0x10000, 97), 0xffff]):
        text = decode._quoted(c + "7", '"') + " " + decode._quoted(c, "'")
        assert text.isascii()
        s, ch = tokenize(text)
        assert (s.kind, s.text, ch.kind, ch.text) == ("STRING", c + "7", "CHAR", c)
