"""Driver tests: exit codes, output tree, logging, dump flags."""

import copy
import gc
import importlib
import pkgutil
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from conftest import (CADSR, CADSR_SMALL, DB, DB_TWO_STATE, MULT2, PROGRAMS,
                      program_files, run_front_end)
import sketchsynth
from sketchsynth import cli, engine, parser
from sketchsynth.interp import (STACK_FRAMES, ConcreteUnknowns, Interp,
                                SymbolicUnknowns)

STAGES = [
    "rewriting syntax sugar",
    "specializing class-level generator",
    "building class hierarchy",
    "encoding",
    "solving",
    "replacing holes",
    "replacing generators",
    "decoding",
    "synthesis done",
]


def run(tmp_path, *args):
    out = tmp_path / "result"
    code = cli.main([*args, "--out", str(out)])
    return code, out


def test_solved_run_writes_full_output_tree(tmp_path):
    code, out = run(tmp_path,
                    *program_files("Test.java", "SimpleMath.java"))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").is_file()
    assert (out / "log" / "log.txt").is_file()
    java = sorted(p.name for p in (out / "java").iterdir())
    assert java == ["SimpleMath.java", "Test.java"]
    assert "return 2 * x;" in (out / "java" / "SimpleMath.java").read_text()


@pytest.mark.parametrize("name, names", [
    ("mult2", MULT2), ("db", DB), ("cadsr", CADSR),
    ("cadsr-small", CADSR_SMALL)], ids=["mult2", "db", "cadsr", "cadsr-small"])
def test_decoded_sources_match_expected_bytes(tmp_path, name, names):
    code, out = run(tmp_path, *program_files(*names))
    assert code == cli.EXIT_SOLVED
    expected = PROGRAMS / "expected" / name
    assert ({p.name: p.read_bytes() for p in (out / "java").iterdir()}
            == {p.name: p.read_bytes() for p in expected.iterdir()})


def test_solution_file_format(tmp_path):
    _, out = run(tmp_path, *program_files("Test.java", "SimpleMath.java"))
    lines = (out / "solution.txt").read_text().splitlines()
    assert lines[0] == "hole e_h1 = 2"
    assert lines[1] == "choice e_c1 = 0"
    assert re.fullmatch(r"stats candidates=\d+ depth=\d+ ms=\d+", lines[2])


def test_log_stages_in_order_with_timestamps(tmp_path):
    _, out = run(tmp_path, *program_files("Test.java", "SimpleMath.java"))
    log = (out / "log" / "log.txt").read_text().splitlines()
    staged = [l for l in log if re.match(r"\d\d:\d\d:\d\d ", l)]
    assert [l[9:] for l in staged] == STAGES
    assert "replaced: SimpleMath.e_h1 = 2" in log


def test_unsat_gives_exit_1_and_no_java_dir(tmp_path):
    code, out = run(tmp_path, *program_files(
        "DBConnection.java", "AutomatonTwoState.java", "TestDBConnection.java"))
    assert code == cli.EXIT_UNSAT
    assert not (out / "java").exists()
    assert not (out / "solution.txt").exists()


def test_stale_java_tree_removed_on_failing_rerun(tmp_path):
    _, out = run(tmp_path, *program_files("Test.java", "SimpleMath.java"))
    assert (out / "java").exists()
    code, _ = run(tmp_path, *program_files(
        "DBConnection.java", "AutomatonTwoState.java", "TestDBConnection.java"))
    assert code == cli.EXIT_UNSAT
    assert not (out / "java").exists()


def test_syntax_error_gives_exit_2_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.java"
    bad.write_text("class A { int x = ; }")
    code, out = run(tmp_path, str(bad))
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "bad.java:1:" in err
    assert not (out / "java").exists()


def test_missing_type_gives_exit_2(tmp_path):
    bad = tmp_path / "bad.java"
    bad.write_text("class A extends Nothing { }")
    code, _ = run(tmp_path, str(bad))
    assert code == cli.EXIT_INPUT


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_input_gives_exit_2_naming_the_path(tmp_path, capsys,
                                                       kind):
    path = tmp_path / "A.java"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"class A { char c = '\xe9'; }")
    code, out = run(tmp_path, str(path))
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ")
    assert not (out / "java").exists()


def test_timeout_gives_exit_3(tmp_path):
    code, out = run(tmp_path, *program_files(
        "DBConnection.java", "Automaton.java", "TestDBConnection.java"),
        "--timeout", "0.01")
    assert code == cli.EXIT_TIMEOUT
    assert not (out / "java").exists()


@pytest.mark.parametrize("body, flags", [
    # blasting 400 multiplications by holes, clause intake and SAT
    ("int s = 1; int i = 0; while (i < 400) { s = s * ?? + ??; i = i + 1; } "
     "assert s != 0;", ["--loop-bound", "2000"]),
    # 300,000 concrete iterations, executed symbolically and in replay
    ("int s = 0; int i = 0; while (i < 300000) { s = s + 3; i = i + 1; } "
     "assert s + ?? == 900001;",
     ["--loop-bound", "400000", "--step-limit", "50000000"]),
], ids=["blast-and-sat", "interp"])
def test_timeout_holds_inside_one_repeat_vector(tmp_path, capsys, body,
                                                 flags):
    # each sketch has one repeat vector, and its first layer alone takes
    # over 2 s: without a deadline check there, it overshoots the bound
    src = tmp_path / "A.java"
    src.write_text(f"class A {{ harness static void t() {{ {body} }} }}")
    t0 = time.monotonic()
    code, out = run(tmp_path, str(src), "--timeout", "1", *flags)
    assert code == cli.EXIT_TIMEOUT
    assert time.monotonic() - t0 < 2
    assert "timeout after" in capsys.readouterr().err
    assert not (out / "java").exists()


def test_emit_flags_write_debug_dumps(tmp_path):
    _, out = run(tmp_path, *program_files("Test.java", "SimpleMath.java"),
                 "--emit-ir", "--emit-tables", "--emit-desugared")
    assert (out / "ir" / "ir.txt").is_file()
    tables = (out / "tables" / "classes.txt").read_text()
    assert re.search(r"^\d+: class SimpleMath\b", tables, re.M)
    assert "    method mult2_SimpleMath_int\n" in tables
    assert "subclass matrix" not in tables and "(mid " not in tables
    desugared = (out / "desugared" / "SimpleMath.java").read_text()
    # the desugared dump keeps the sketch constructs
    assert "??" in desugared and "{|" in desugared


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name, names", [
    ("mult2", MULT2), ("cadsr-small", CADSR_SMALL)],
    ids=["mult2", "cadsr-small"])
def test_debug_dumps_match_expected_bytes(tmp_path, monkeypatch, name, names):
    """The dumps are byte-identical to ``tests/programs/expected/dumps/``.

    The IR dump prints source spans, so the files are named as given on a
    command line run from ``tests/programs``.  After a change that is meant
    to alter the dumps, regenerate them there with, for mult2,
    ``PYTHONPATH=../../src python -m sketchsynth.cli Test.java
    SimpleMath.java --out OUT --emit-ir --emit-tables --emit-desugared``
    (cadsr-small: ``CADsR.java Automaton.java TestCADsRSmall.java``) and
    copy ``OUT/ir``, ``OUT/tables`` and ``OUT/desugared`` to
    ``expected/dumps/<name>/``.
    """
    monkeypatch.chdir(PROGRAMS)
    code, out = run(tmp_path, *names,
                    "--emit-ir", "--emit-tables", "--emit-desugared")
    assert code == cli.EXIT_SOLVED
    got = {}
    for part in ("ir", "tables", "desugared"):
        got.update({f"{part}/{k}": v
                    for k, v in _tree_bytes(out / part).items()})
    assert got == _tree_bytes(PROGRAMS / "expected" / "dumps" / name)


@pytest.mark.parametrize("depth", [60, 150])
def test_deeply_nested_parentheses_solve(tmp_path, depth):
    src = tmp_path / "A.java"
    src.write_text("class A { harness static void t() { int x = "
                   + "(" * depth + "1" + ")" * depth
                   + "; assert x + ?? == 3; } }")
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 2"


@pytest.mark.parametrize("text", [
    "int x = " + "(" * 200 + "1" + ")" * 200 + ";",
    "boolean b = " + "!" * 1000 + "true;",
    "int x = " + "-" * 1000 + "1;",
    "int x = " + " + ".join(["1"] * 600) + ";",
], ids=["parentheses-200", "not-1000", "minus-1000", "plus-600"])
def test_nesting_beyond_the_limit_gives_exit_2(tmp_path, capsys, text):
    src = tmp_path / "A.java"
    src.write_text("class A { harness static void t() { " + text
                   + " assert ?? == 1; } }")
    code, _ = run(tmp_path, str(src))
    assert code == cli.EXIT_INPUT
    assert "nested at most" in capsys.readouterr().err


_HARNESS = "class A { harness static void t() { %s assert ?? == 1; } }"


@pytest.mark.parametrize("source, message", [
    ("class A {\n  harness static void t() {\n    int x = 1\n    }\n}",
     "4:5: expected ';', found '}'"),
    (_HARNESS % "int x = 0; 1 = x;",
     "1:50: expected assignable target, found '='"),
    ("int x;", "1:1: expected 'class' or 'interface', found 'int'"),
    ("class A { void f; }", "1:11: expected a type, found 'void'"),
    ("class A { int g(void v) { return 1; } }",
     "1:17: expected a type, found 'void'"),
    ("class A { Foo f; }", "1:11: unknown type 'Foo'"),
    (_HARNESS % "int x = 0; int y = 0; x = (y = 1);",
     "1:66: assignment is only supported as a statement"),
    # a program's own Object is not the superclass of a class that names
    # none, as javac reads it
    ("class Object { int k; } " + _HARNESS % "A a = new A(); int v = a.k;",
     "1:85: no field 'k' in class 'A'"),
], ids=["expected-token", "assignable-target", "top-level-field",
        "void-field", "void-parameter", "unknown-type", "nested-assignment",
        "own-object-is-not-the-root"])
def test_front_end_error_gives_exit_2_and_its_position(tmp_path, capsys,
                                                        monkeypatch, source,
                                                        message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "E.java").write_text(source)
    assert cli.main(["E.java", "--out", "out"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: E.java:{message}\n"


def test_own_string_passed_as_a_library_string_gives_exit_2_at_the_call(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "E.java").write_text(
        "class String { int length() { return 7; } }\n"
        "class A {\n    harness static void t() {\n"
        "        StringBuilder sb = new StringBuilder();\n"
        "        sb.append(new String());\n        assert ?? == 1;\n    }\n}\n")
    assert cli.main(["E.java", "--out", "out"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: E.java:5:11: an object of class 'String' passed as a "
        "java.lang.String is not supported\n")


def test_chain_of_150_additions_solves(tmp_path):
    # each operator of the left-nested chain is one level of nesting
    src = tmp_path / "A.java"
    src.write_text("class A { harness static void t() { int x = "
                   + " + ".join(["1"] * 150) + "; assert x + ?? == 152; } }")
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 2"


def test_nesting_up_to_the_limit_solves(tmp_path):
    # the statement's expression is the first level
    depth = parser.MAX_NESTING - 1
    src = tmp_path / "A.java"
    src.write_text("class A { static int id(int v) { return v; } "
                   "harness static void t() { "
                   f"int x = {'id(' * depth}1{')' * depth}; "
                   f"int y = {'- ' * depth}1; "
                   f"boolean b = {'!' * depth}true; "
                   "assert x + y + ?? == 3; } }")
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 3"


def test_hole_bits_outside_word_width_gives_exit_2(tmp_path, capsys):
    """So does every numeric option outside its domain; an infinite
    timeout is no limit."""
    for flag, value, message in [
            ("--hole-bits", "0", "must be between 1 and 32, got 0"),
            ("--hole-bits", "33", "must be between 1 and 32, got 33"),
            ("--hole-bits", "40", "must be between 1 and 32, got 40"),
            ("--unroll-max", "-1", "must be at least 0, got -1"),
            ("--loop-bound", "-1", "must be at least 0, got -1"),
            ("--step-limit", "0", "must be at least 1, got 0"),
            ("--timeout", "0", "must be above 0, got 0.0"),
            ("--timeout", "-1", "must be above 0, got -1.0"),
            ("--timeout", "nan", "must be above 0, got nan")]:
        code, _ = run(tmp_path, *program_files("Test.java", "SimpleMath.java"),
                      flag, value)
        assert code == cli.EXIT_INPUT
        assert f"error: {flag} {message}" in capsys.readouterr().err
    code, _ = run(tmp_path, *program_files("Test.java", "SimpleMath.java"),
                  "--timeout", "inf", "--unroll-max", "0", "--loop-bound", "0",
                  "--step-limit", "1000")
    assert code == cli.EXIT_SOLVED


def test_full_width_holes_take_signed_minimum_and_decode_as_java(tmp_path):
    # a is minimized first, to -2^31; b must then be 7.  Pinning a only by
    # an unsigned bound would let b's minimization move a to 0..4.
    src = tmp_path / "A.java"
    src.write_text("""
        class A {
            static int a = ??;
            static int b = ??;
            harness static void t() {
                assert a < 5;
                if (a >= 0) { assert b == 0 - 2147483647; }
                else { assert b == 7; }
            }
        }""")
    code, out = run(tmp_path, str(src), "--hole-bits", "32")
    assert code == cli.EXIT_SOLVED
    lines = (out / "solution.txt").read_text().splitlines()
    assert lines[:2] == ["hole e_h1 = -2147483648", "hole e_h2 = 7"]
    text = (out / "java" / "A.java").read_text()
    assert "static int a = -2147483648;" in text
    assert "static int b = 7;" in text
    # the decoded source reparses, and its harness body passes as is
    _, registry, _, prog = run_front_end(texts=[("A.java", text)])
    assert registry.holes == registry.choices == registry.repeats == []
    Interp(prog, ConcreteUnknowns({}), {}, engine.EngineConfig()).run_harness("t_A")


def test_wide_literal_does_not_make_narrow_holes_signed(tmp_path):
    # -2147483648 widens the holes to 31 bits, not 32, so h stays unsigned
    src = tmp_path / "A.java"
    src.write_text("class A { static int h = ??; "
                   "harness static void t() { assert h >= -2147483648; } }")
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 0"


_B_AND_C = ("class B { int m() { return 1; } } "
            "class C extends B { int m() { return 2; } } ")


@pytest.mark.parametrize("text, code, solution", [
    ("interface I { public int m(); } "
     "class X implements I { public int m() { return 1; } } "
     "class Y implements I { public int m() { return 3; } } "
     "class Z implements I { public int m() { return 7; } } "
     "class A { harness static void t() { "
     "I x = {| new X(), new Y(), new Z() |}; assert x.m() + ?? == 9; } }",
     cli.EXIT_SOLVED, ["hole e_h1 = 2", "choice e_c1 = 2"]),
    (_B_AND_C + "class A { harness static void t() { "
     "B b = {| null, new B(), new C() |}; assert b.m() == 2; } }",
     cli.EXIT_SOLVED, ["choice e_c1 = 2"]),
    # the call on null runs only if the choice picks true, so it must not
    (_B_AND_C + "class A { harness static void t() { B b = null; int r = 0; "
     "if ({| true, false |}) { r = b.m(); } assert r == 0; } }",
     cli.EXIT_SOLVED, ["choice e_c1 = 1"]),
    ("class B { int m() { return 1; } } class A { harness static void t() { "
     "B b = null; int r = b.m(); assert r == ??; } }",
     cli.EXIT_UNSAT, None),
    ("class A { harness static void t() { "
     "String s = null; assert s.length() == ??; } }",
     cli.EXIT_UNSAT, None),
    ("class A { harness static void t() { String s = null; "
     "Iterator it = convertToIterator(s); assert ?? == 1; } }",
     cli.EXIT_UNSAT, None),
    # the library's CharToken implements the program's Token but has no
    # m, so only Y can be the receiver
    ("interface Token { int getId(); int m(); } class Y implements Token { "
     "public int getId() { return 0; } public int m() { return 1; } } "
     "class A { harness static void t() { "
     'Iterator it = convertToIterator("a"); Token c = it.next(); '
     "Token x = {| c, new Y() |}; assert x.m() == 1; } }",
     cli.EXIT_SOLVED, ["choice e_c1 = 1"]),
    # a library call that mutates its receiver needs a concrete path
    ("class A { harness static void t() { LinkedList l = new LinkedList(); "
     "if ({| true, false |}) { l.add(new A()); } assert l.size() == 1; } }",
     cli.EXIT_INPUT, None),
], ids=["receiver-choice", "null-or-override", "guarded-null-call",
        "null-single-implementation", "null-string", "null-string-iterator",
        "missing-override", "impure-call-under-choice"])
def test_virtual_calls(tmp_path, text, code, solution):
    src = tmp_path / "A.java"
    src.write_text(text)
    got, out = run(tmp_path, str(src))
    assert got == code
    if solution is not None:
        assert (out / "solution.txt").read_text().splitlines()[:-1] == solution


@pytest.mark.parametrize("stmts, choice", [
    # a field read through a reference that may be null
    ("C c = {| new C(1), new C(2), null |}; assert c.v == 2;", 1),
    # null as the first alternative, and as the first receiver's result
    ("C d = new C(1); C c = {| null, d |}; assert c == null;", 0),
    ("LinkedList a = new LinkedList(); a.add(null); "
     "LinkedList b = new LinkedList(); b.add(new C(2)); "
     "LinkedList l = {| b, a |}; C c = l.get(0); assert c == null;", 1),
], ids=["field-read", "null-alternative-first", "null-result-first"])
def test_choice_among_references_that_may_be_null(tmp_path, stmts, choice):
    src = tmp_path / "A.java"
    src.write_text("class C { int v; C(int x) { v = x; } } " + _harness(stmts))
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == \
        f"choice e_c1 = {choice}"


def test_two_objectives_in_one_harness_are_both_minimized(tmp_path):
    src = tmp_path / "A.java"
    src.write_text(_harness("assert a + b >= 3 && b >= 1; minimize(a); minimize(b);",
                            "static int a = ??; static int b = ??; "))
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[:-1] == [
        "hole e_h1 = 0", "hole e_h2 = 3", "objective t_A = 0",
        "objective t_A_2 = 3"]


@pytest.mark.parametrize("stmts, members, message", [
    ("int x = 1; { int x = 2; } assert ?? == x;", "",
     "variable 'x' is already defined"),
    ("int x = 1; if (x == 1) { int x = 2; } assert ?? == x;", "",
     "variable 'x' is already defined"),
    ("int x = 1; while (x == 0) { int x = 2; } assert ?? == x;", "",
     "variable 'x' is already defined"),
    ("assert ?? == f(1);", "static int f(int x) { int x = 2; return x; } ",
     "variable 'x' is already defined"),
    ("int y = 0; if (y == 0) int x = 1; assert ?? == y;", "",
     "variable declaration not allowed here"),
    ("int y = 0; if (y == 0) { } else int x = 1; assert ?? == y;", "",
     "variable declaration not allowed here"),
    ("int y = 0; while (y == 1) int x = 1; assert ?? == y;", "",
     "variable declaration not allowed here"),
], ids=["nested-block", "if-block", "while-block", "parameter", "if-body",
        "else-body", "while-body"])
def test_local_declaration_that_javac_rejects_gives_exit_2(tmp_path, capsys,
                                                           stmts, members,
                                                           message):
    text = _harness(stmts, members)
    src = tmp_path / "A.java"
    src.write_text(text)
    code, _ = run(tmp_path, str(src))
    assert code == cli.EXIT_INPUT
    # reported at the second declaration's name
    assert (f"A.java:1:{text.rindex(' x = ') + 2}: {message}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("stmt, value", [
    ("if (??) { x = 1; } assert x == 1;", 1),
    ("while (??) { x = x + 1; } assert x == 0;", 0),
    ("assert ??;", 1),
    ("assert !??;", 0),
    ("assert ?? && true;", 1),
    ("assert ?? || false;", 1),
], ids=["if", "while", "assert", "not", "and", "or"])
def test_hole_is_boolean_in_a_condition(tmp_path, stmt, value):
    src = tmp_path / "A.java"
    src.write_text("class A { harness static void t() { int x = 0; "
                   f"{stmt} }} }}")
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == \
        f"hole e_h1 = {value}"


def _harness(stmts, members=""):
    return f"class A {{ {members}harness static void t() {{ {stmts} }} }}"


def _nested_ifs(depth):
    return ("class A { harness static void t() { int x = 1; "
            + "if (x == 1) { " * depth + "x = ??; " + "} " * depth
            + "assert x == 2; } }")


@pytest.mark.parametrize("text", [
    _nested_ifs(150),
    # a generator class is copied per extending class: the copy is no
    # recursion either
    "generator class G { int f(int x) { " + "if (x == 1) { " * 150
    + "x = ??; " + "} " * 150 + "return x; } } class H extends G { } "
    + _harness("assert new H().f(1) == 2;"),
], ids=["class", "generator-class"])
def test_statements_nested_150_deep_solve(tmp_path, text):
    src = tmp_path / "A.java"
    src.write_text(text)
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 2"


@pytest.mark.parametrize("text", [
    _nested_ifs(200),
    _harness("int x = 1; " + "if (x == 1) " * 200 + "x = 2; assert ?? == 1;"),
    _harness("int x = 1; " + "while (x < 1) " * 200 + "x = 2; assert ?? == 1;"),
    _harness("int x = 1; if (x == 0) { } "
             + "else if (x == 1) { } " * 200 + "assert ?? == 1;"),
    _harness("{ " * 1000 + "assert ?? == 1; " + "} " * 1000),
], ids=["if-blocks-200", "bare-ifs-200", "whiles-200", "else-ifs-200",
        "blocks-1000"])
def test_statements_nested_beyond_the_limit_give_exit_2(tmp_path, capsys, text):
    src = tmp_path / "A.java"
    src.write_text(text)
    code, _ = run(tmp_path, str(src))
    assert code == cli.EXIT_INPUT
    assert "nested at most" in capsys.readouterr().err


@pytest.mark.parametrize("text, code, solution", [
    (_harness('String s = "ab"; s.charAt();'), cli.EXIT_INPUT, None),
    (_harness('String s = "ab"; s.length(3);'), cli.EXIT_INPUT, None),
    (_harness('String s = "ab"; s.charAt(true);'), cli.EXIT_INPUT, None),
    (_harness("Iterator it = convertToIterator(5);"), cli.EXIT_INPUT, None),
    # a bare ?? fits a boolean parameter when no int or char one does
    (_harness("assert f(??);", "static boolean f(boolean b) { return b; } "),
     cli.EXIT_SOLVED, "hole e_h1 = 1"),
    ("class C { boolean v; C(boolean v0) { v = v0; } } "
     + _harness("C c = new C(??); assert c.v;"), cli.EXIT_SOLVED,
     "hole e_h1 = 1"),
    # ... and counts as an int while one does
    (_harness("assert f(??) == 3;", "static int f(int b) { return 3; } "
              "static int f(boolean b) { return 4; } "),
     cli.EXIT_SOLVED, "hole e_h1 = 0"),
    ("class P { } class Q { } class K { K(P p) { } K(Q q) { } } "
     + _harness("K k = new K(null);"), cli.EXIT_INPUT, None),
    (_harness("String s = null; assert ?? == 1;"), cli.EXIT_SOLVED,
     "hole e_h1 = 1"),
], ids=["charAt-no-argument", "length-one-argument", "charAt-boolean",
        "convertToIterator-int", "boolean-method-parameter",
        "boolean-constructor-parameter", "int-overload-first",
        "ambiguous-constructor", "null-string"])
def test_calls_resolve_by_one_overload_rule(tmp_path, text, code, solution):
    src = tmp_path / "A.java"
    src.write_text(text)
    got, out = run(tmp_path, str(src))
    assert got == code
    if solution is not None:
        assert (out / "solution.txt").read_text().splitlines()[0] == solution


@pytest.mark.parametrize("text, value", [
    (_harness("boolean b = 3; assert b;"), "3"),
    (_harness("int x = 0; x = true; assert x == 1;"), "true"),
    (_harness("String s = 5; assert s.length() == 1;"), "5"),
    (_harness('int x = "abc"; assert x == 1;'), '"abc"'),
    (_harness("A a = new A(); a.m(); assert a.f == 1;",
              'int f; void m() { f = "s"; } '), '"s"'),
    (_harness("n = true; assert n == 1;", "static int n; "), "true"),
    (_harness("assert n;", "static boolean n = 7; "), "7"),
    (_harness("assert g() == 0;", "static int g() { return false; } "),
     "false"),
], ids=["local-initializer", "local", "string-local", "int-local-string",
        "field", "static", "static-initializer", "return"])
def test_value_that_does_not_fit_its_slot_gives_exit_2(tmp_path, capsys,
                                                       text, value):
    src = tmp_path / "A.java"
    src.write_text(text)
    code, _ = run(tmp_path, str(src))
    assert code == cli.EXIT_INPUT
    assert f"A.java:1:{text.index(value) + 1}: " in capsys.readouterr().err


@pytest.mark.parametrize("text, at, message", [
    # a field access is placed at its dot
    (_harness("int y = new A().zz; assert y == 1;"), ".zz",
     "no field 'zz' in class 'A'"),
    (_harness("A a = new A(); a.zz = 1; assert ?? == 1;"), ".zz",
     "no field 'zz' in class 'A'"),
    (_harness("zz = 1; assert ?? == 1;"), "zz", "unknown name 'zz'"),
    (_harness("x = 1; assert ?? == 1;", "int x; "), "x = 1",
     "non-static field 'x' cannot be referenced from a static context"),
], ids=["field-read", "field-assignment", "name", "instance-field"])
def test_unresolved_variable_gives_exit_2_at_its_span(tmp_path, capsys,
                                                      text, at, message):
    src = tmp_path / "A.java"
    src.write_text(text)
    code, _ = run(tmp_path, str(src))
    assert code == cli.EXIT_INPUT
    assert f"A.java:1:{text.index(at) + 1}: {message}" in capsys.readouterr().err


def test_engine_flags_are_honored(tmp_path):
    # forcing a tiny unroll-max turns the depth-4 monitor into UNSAT
    code, _ = run(tmp_path, *program_files(
        "DBConnection.java", "Automaton.java", "TestDBConnection.java"),
        "--unroll-max", "2")
    assert code == cli.EXIT_UNSAT


def test_solution_is_byte_identical_across_reruns(tmp_path):
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli.main([*program_files("Test.java", "SimpleMath.java"),
                         "--out", str(out)])
        assert code == cli.EXIT_SOLVED
        texts.append((out / "solution.txt").read_bytes())
    assert texts[0] == texts[1]


_TWO_PATHS = ("class A { static int f(int n) { int s = 0; int i = 0; "
              "while (i < n) { s = s + 1; i = i + 1; } return s; } "
              "harness static void t() { int x = ??; int r = 0; "
              "if (x == 0) { r = f(40); } else { r = f(41); } "
              "assert r == 40; } }")


def test_step_limit_while_encoding_is_a_resource_limit(tmp_path, capsys):
    # both sides of the branch run symbolically, so encoding needs more
    # steps than the x = 0 path alone; that is not "no solution"
    src = tmp_path / "A.java"
    src.write_text(_TWO_PATHS)
    code, out = run(tmp_path, str(src), "--step-limit", "1200")
    assert code == cli.EXIT_TIMEOUT
    assert "--step-limit" in capsys.readouterr().err
    assert not (out / "java").exists()
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 0"


def test_step_limit_overrun_leaves_later_vectors_to_search(tmp_path):
    # vector (0, 1) runs f(60) and overruns; (1, 0) comes next and solves
    src = tmp_path / "A.java"
    src.write_text("class A { static int f(int n) { int s = 0; int i = 0; "
                   "while (i < n) { s = s + 1; i = i + 1; } return s; } "
                   "harness static void t() { int a = 0; int b = 0; "
                   "minrepeat { a = a + ??; } minrepeat { b = b + f(60); } "
                   "assert a == 3; } }")
    code, out = run(tmp_path, str(src), "--step-limit", "300")
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[:3] == [
        "hole e_h1_0 = 3", "repeat e_r1 = 1", "repeat e_r2 = 0"]


def test_objective_replay_fits_the_harness_step_limit(tmp_path):
    # the harness needs every step the limit allows, its minimize
    # statement's included; replay reads the objective within those steps
    text = ("class A { static int c = ??; harness static void t() { "
            "assert c >= 3; minimize(c); } }")
    prog = run_front_end(texts=[("obj.java", text)])[3]
    cfg = engine.EngineConfig()
    width = engine.effective_hole_width(prog, cfg)
    interp = Interp(prog, SymbolicUnknowns(width), {}, cfg)
    interp.run_harness("t_A")
    src = tmp_path / "obj.java"
    src.write_text(text)
    code, out = run(tmp_path, str(src), "--step-limit", str(interp.steps))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 3"


def _recursion(n, nest=1):
    """f(n) recurses n deep, so the harness runs n + 2 calls deep; the
    base case evaluates an expression ``nest`` levels deep."""
    return ("class A { static int f(int n) { if (n > 0) { return f(n - 1) + 1; "
            f"}} int z = {'- ' * (nest - 1)}1; return 0; }} "
            f"harness static void t() {{ assert f({n}) + ?? == {n + 1}; }} }}")


def _call_depth_overrun(err):
    """The call depth at which a run's calls overran its Python frames,
    as its error line ``err`` says."""
    m = re.fullmatch(f"call nesting exceeds {STACK_FRAMES} Python "
                     r"frames at call depth (\d+) while encoding depth 0\n",
                     err)
    assert m, err
    return int(m.group(1))


def test_calls_up_to_the_depth_bound_solve(tmp_path, capsys):
    # 132 calls, 9 Python frames each, with the deepest expression the
    # parser accepts at the bottom fit the frames a run allows
    src = tmp_path / "A.java"
    src.write_text(_recursion(130, nest=parser.MAX_NESTING))
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 1"
    src.write_text(_recursion(400))
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_TIMEOUT
    assert 170 <= _call_depth_overrun(capsys.readouterr().err) <= 190
    assert not (out / "java").exists()


def _plain_recursion(n):
    return ("class A { static int f(int k) { if (k == 0) { return 0; } "
            "return f(k - 1) + 1; } "
            f"harness static void t() {{ assert f({n}) == ??; }} }}")


def _under_frames(n, fn):
    """``fn()``, called under ``n`` more Python frames."""
    return fn() if n == 0 else _under_frames(n - 1, fn)


def test_the_call_depth_bound_does_not_depend_on_the_callers_stack(
        tmp_path, capsys):
    """A run sets Python's recursion limit above its own caller's frame,
    so neither the frames under the CLI nor the limit they ran with moves
    the call depth at which a recursion stops."""
    src = tmp_path / "A.java"
    src.write_text(_plain_recursion(200))
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == \
        "hole e_h1 = 200"
    src.write_text(_plain_recursion(400))
    capsys.readouterr()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 1000)
    depths = set()
    try:
        for extra in (0, 50, 300, 900):
            code, _ = _under_frames(extra, lambda: run(tmp_path, str(src)))
            assert code == cli.EXIT_TIMEOUT
            depths.add(_call_depth_overrun(capsys.readouterr().err))
            assert sys.getrecursionlimit() == limit + 1000
    finally:
        sys.setrecursionlimit(limit)
    depth, = depths
    assert 220 <= depth <= 240


def _recursion_through_ifs(n):
    """f(n) recurses n deep, each call from inside 13 nested ifs."""
    return ("class R { static int f(int k) { if (k == 0) { return 0; } "
            + "if (k > -1) { " * 13 + "return f(k - 1) + 1; " + "} " * 13
            + "return 0; } harness static void t() { assert f(%d) == ??; } }"
            % n)


def test_recursion_through_13_nested_ifs_solves_29_calls_deep(tmp_path):
    """Each call level runs inside 13 ifs, the Python frames of each if
    nesting on those of the call; the CLI, run as a user runs it, solves
    29 levels."""
    src = tmp_path / "R.java"
    src.write_text(_recursion_through_ifs(29))
    env = dict(os.environ,
               PYTHONPATH=str(Path(sketchsynth.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "sketchsynth.cli", str(src),
         "--out", str(tmp_path / "result")], env=env, capture_output=True)
    assert done.returncode == cli.EXIT_SOLVED, done.stderr
    assert (tmp_path / "result" / "solution.txt").read_text().splitlines()[0] \
        == "hole e_h1 = 29"


def test_recursion_through_13_nested_ifs_solves_38_deep_and_stops_at_60(
        tmp_path, capsys):
    """A call from inside 13 ifs takes 33 Python frames, so 38 levels
    fit the frames a run allows and 60 overrun them: exit 3, never a
    RecursionError's exit 4."""
    src = tmp_path / "R.java"
    src.write_text(_recursion_through_ifs(38))
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == \
        "hole e_h1 = 38"
    src.write_text(_recursion_through_ifs(60))
    capsys.readouterr()
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_TIMEOUT
    assert 45 <= _call_depth_overrun(capsys.readouterr().err) <= 55
    assert not (out / "java").exists()


@pytest.mark.parametrize("n", [200, 400])
def test_deep_recursion_is_a_resource_limit(tmp_path, n):
    src = tmp_path / "A.java"
    src.write_text(_recursion(n))
    code, _ = run(tmp_path, str(src), "--step-limit", "10000000")
    assert code in (cli.EXIT_SOLVED, cli.EXIT_TIMEOUT)


def test_chain_of_1200_constructors_is_a_resource_limit(tmp_path):
    src = tmp_path / "A.java"
    src.write_text("class C0 { }\n" + "".join(
        f"class C{i} extends C{i - 1} {{ }}\n" for i in range(1, 1200))
        + "class A { harness static void t() { C1199 c = new C1199(); "
        "assert ?? == 1; } }")
    code, _ = run(tmp_path, str(src))
    assert code in (cli.EXIT_SOLVED, cli.EXIT_TIMEOUT)


@pytest.mark.parametrize("members, message, code", [
    ("static int g() { return; } ", "missing return value", cli.EXIT_INPUT),
    ("static int g(int x) { if (x > 0) { return 1; } } ",
     "missing return statement", cli.EXIT_INPUT),
    ("static int g(int x) { while (x > 0) { return 1; } } ",
     "missing return statement", cli.EXIT_INPUT),
    ("static int g(int x) { minrepeat { return 1; } } ",
     "missing return statement", cli.EXIT_INPUT),
    ("static int g(int x) { if (x > 0) { return 1; } else { return 0; } } ",
     None, cli.EXIT_SOLVED),
    ("static int g(int x) { while (true) { return 0; } } ", None,
     cli.EXIT_SOLVED),
    # a condition of literals and operators only is a constant expression
    ("static int g(int x) { while (1 < 2) { return 0; } } ", None,
     cli.EXIT_SOLVED),
    ("static int g(int x) { while (!('b' < 'a') && 7 % 4 * 2 == 6 - 0) "
     "{ return 0; } } ", None, cli.EXIT_SOLVED),
    ("static int g(int x) { while (x < 2) { return 1; } } ",
     "missing return statement", cli.EXIT_INPUT),
    ("static int g(int x) { while (1 < 2 && x < 2) { return 1; } } ",
     "missing return statement", cli.EXIT_INPUT),
    # 1 / 0 completes abruptly, so it is no constant
    ("static int g(int x) { while (1 / 0 == 0) { return 1; } } ",
     "missing return statement", cli.EXIT_INPUT),
    ("static int g(int x) { { return 0; } } ", None, cli.EXIT_SOLVED),
    ("static void v() { return; } static int g(int x) { v(); return 0; } ",
     None, cli.EXIT_SOLVED),
    ("int f; A() { f = 1; return; } static int g(int x) { "
     "return new A().f - 1; } ", None, cli.EXIT_SOLVED),
], ids=["bare-return", "if-without-else", "while", "minrepeat", "if-else",
        "while-true", "while-constant", "while-constant-operators",
        "while-variable", "while-partly-constant", "while-division-by-zero",
        "block", "void", "constructor"])
def test_non_void_method_must_return_a_value(tmp_path, capsys, members,
                                             message, code):
    text = _harness("assert g(0) == ??;", members)
    src = tmp_path / "A.java"
    src.write_text(text)
    got, out = run(tmp_path, str(src))
    assert got == code
    if message is not None:
        # reported at the method's name
        assert (f"A.java:1:{text.index('g(') + 1}: {message}"
                in capsys.readouterr().err)
    else:
        assert (out / "solution.txt").read_text().splitlines()[0] == \
            "hole e_h1 = 0"


@pytest.mark.parametrize("members, stmts, code", [
    ("static int g() { return 1; int y = 2; } ", "", cli.EXIT_INPUT),
    ("static int g() { while (false) { return 3; } return 1; } ", "",
     cli.EXIT_INPUT),
    ("static int g() { while (1 > 2) return 3; return 1; } ", "",
     cli.EXIT_INPUT),
    ("static int g() { while (true) { } return 1; } ", "", cli.EXIT_INPUT),
    ("static int g() { if (?? > 2) { return 1; } else { return 2; } "
     "return 3; } ", "", cli.EXIT_INPUT),
    ("static int g() { { return 1; } return 2; } ", "", cli.EXIT_INPUT),
    ("", "return; assert g() == 1;", cli.EXIT_INPUT),
    ("A() { return; int y = 1; } static int g() { return 1; } ",
     "", cli.EXIT_INPUT),
    # JLS 14.22 exempts the branches of an if from constant conditions,
    # and a loop body may run no times
    ("static int g() { if (false) { return 3; } return 1; } ", "",
     cli.EXIT_SOLVED),
    ("static int g() { minrepeat { return 1; } return 1; } ", "",
     cli.EXIT_SOLVED),
    ("static int g() { int x = 0; while (x > 0) { return 3; } return 1; } ",
     "", cli.EXIT_SOLVED),
    # the empty statement (JLS 14.6) is a statement like any other
    ("static int g() { return 1;; } ", "", cli.EXIT_INPUT),
    ("static int g() { int x = 1;; ; if (x == 1) ; else ; return x; } ", "",
     cli.EXIT_SOLVED),
], ids=["after-return", "while-false", "while-constant-false-statement",
        "after-while-true", "after-if-else-returns", "after-block-return",
        "harness", "constructor", "if-false", "after-minrepeat",
        "while-variable", "empty-after-return", "empty-statements"])
def test_unreachable_statement_gives_exit_2(tmp_path, capsys, members,
                                            stmts, code):
    """As javac: "unreachable statement" (JLS 14.22)."""
    src = tmp_path / "A.java"
    src.write_text(_harness(stmts or "assert g() + 4 == ??;", members))
    got, out = run(tmp_path, str(src))
    assert got == code
    if code == cli.EXIT_INPUT:
        assert "unreachable statement" in capsys.readouterr().err
    else:
        assert (out / "solution.txt").read_text().splitlines()[0] == \
            "hole e_h1 = 5"


@pytest.mark.parametrize("text, code", [
    ("abstract class S { int v() { return 3; } } "
     + _harness("S s = new S(); assert s.v() == ??;"), cli.EXIT_INPUT),
    ("abstract class S { int v() { return 3; } } "
     + _harness("S s = new S() { }; assert s.v() == ??;"), cli.EXIT_SOLVED),
    ("interface I { } " + _harness("I i = new I(); assert ?? == 3;"),
     cli.EXIT_INPUT),
    (_harness("List l = new List(); assert ?? == 3;"), cli.EXIT_INPUT),
], ids=["abstract", "anonymous-subclass", "interface", "library-interface"])
def test_new_of_an_abstract_class_gives_exit_2(tmp_path, capsys, text, code):
    """As javac: "S is abstract; cannot be instantiated"."""
    src = tmp_path / "A.java"
    src.write_text(text)
    got, out = run(tmp_path, str(src))
    assert got == code
    if code == cli.EXIT_SOLVED:
        assert (out / "solution.txt").read_text().splitlines()[0] == \
            "hole e_h1 = 3"
    else:
        assert "instantiate" in capsys.readouterr().err


@pytest.mark.parametrize("member, stmts", [
    ("generator static int c() { return ??; } ",
     "assert c() == 3; assert c() == 4;"),
    ("generator static int k = 1; ", "assert k == ??;"),
    ("int v; generator A() { v = ??; } ", "assert new A().v == 3;"),
], ids=["method", "field", "constructor"])
def test_generator_member_gives_exit_2(tmp_path, capsys, member, stmts):
    """Sketch gives each call of a generator function fresh holes; a
    generator member is outside the subset, not a plain member whose calls
    share their holes (the method sketch would exit 1)."""
    src = tmp_path / "A.java"
    src.write_text(_harness(stmts, member))
    got, _ = run(tmp_path, str(src))
    assert got == cli.EXIT_INPUT
    err = capsys.readouterr().err
    col = src.read_text().index("generator") + 1
    assert f"A.java:1:{col}: 'generator' on a method, field or constructor " \
        "is outside the supported subset" in err


@pytest.mark.parametrize("member, stmts, value", [
    ("static int convertToIterator(int x) { return x + 1; } ",
     "assert convertToIterator(3) == ??;", 4),
    ("static Iterator convertToIterator(String s) { return null; } ",
     'assert convertToIterator("ab") == null; assert ?? == 1;', 1),
    # a subclass's own method hides the library's, too
    ("static class B { static int convertToIterator(String s) "
     "{ return 7; } } static class C extends B { static int g() "
     '{ return convertToIterator("ab"); } } ', "assert C.g() == ??;", 7),
], ids=["other-parameters", "same-signature", "in-a-superclass"])
def test_own_method_named_like_a_library_function_wins(tmp_path, member,
                                                        stmts, value):
    src = tmp_path / "A.java"
    src.write_text(_harness(stmts, member))
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == \
        f"hole e_h1 = {value}"


def test_static_member_reached_through_an_assigned_expression(tmp_path):
    # JLS 15.26.1: the expression is evaluated first, even for a static
    src = tmp_path / "A.java"
    src.write_text(
        "class St { static int k = 2; } "
        + _harness("make().k = 3; assert c * 10 + St.k == ??;",
                   "static int c = 0; "
                   "static St make() { c = c + 1; return null; } "))
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == \
        "hole e_h1 = 13"


def test_uninitialized_local_holds_its_types_default(tmp_path):
    src = tmp_path / "A.java"
    src.write_text(_harness("A a; int i; boolean b; String s; char c; "
                            "assert a == null && i == 0 && !b "
                            "&& s == null && c == 0 && ?? == 1;"))
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 1"


@pytest.mark.parametrize("literal", ["2²", "99999999999", "2147483648"],
                         ids=["superscript-digit", "eleven-digits", "two-to-the-31"])
def test_literal_that_is_no_java_int_gives_exit_2(tmp_path, capsys, literal):
    src = tmp_path / "A.java"
    src.write_text(f"class A {{ harness static void t() {{ int x = {literal}; "
                   "assert x == ??; } }")
    code, _ = run(tmp_path, str(src))
    assert code == cli.EXIT_INPUT
    assert "A.java:1:" in capsys.readouterr().err


@pytest.mark.parametrize("kind, member", [
    ("class", "int f() { return 1; }"),
    ("interface", "int f();"),
], ids=["class", "interface"])
def test_anonymous_subclass_of_inner_type(tmp_path, kind, member):
    src = tmp_path / "A.java"
    src.write_text(f"class A {{ {kind} B {{ {member} }} harness static void t() {{ "
                   "B x = new B() { int f() { return 3; } }; "
                   "assert x.f() == ??; } }")
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 3"
    # the decoded source reparses and solves again
    code, _ = run(tmp_path / "again", *sorted(map(str, (out / "java").iterdir())))
    assert code == cli.EXIT_SOLVED


def test_anonymous_class_inside_an_anonymous_class_body(tmp_path):
    # the inner body must be lifted too, not run as a plain "new S()"
    src = tmp_path / "A.java"
    src.write_text("class S { int f() { return 1; } } class A { "
                   "harness static void t() { S s = new S() { int f() { "
                   "S u = new S() { int f() { return 9; } }; return u.f(); } }; "
                   "assert s.f() == ??; } }")
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 9"


@pytest.mark.parametrize("outer, expect", [
    ("", 2),
    # A's own inner K is shadowed inside the anonymous body
    ("class K { int g() { return 8; } } ", 2),
], ids=["alone", "shadowing"])
def test_member_class_declared_in_an_anonymous_body(tmp_path, outer, expect):
    src = tmp_path / "A.java"
    src.write_text("class S { int f() { return 1; } } class A { " + outer +
                   "harness static void t() { S x = new S() { "
                   "class K { int g() { return 2; } } "
                   "int f() { return new K().g(); } }; assert x.f() == ??; } }")
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == f"hole e_h1 = {expect}"
    code, _ = run(tmp_path / "again", *sorted(map(str, (out / "java").iterdir())))
    assert code == cli.EXIT_SOLVED


def test_loop_of_1200_additions_solves(tmp_path):
    # s is a chain of 1200 adders, deeper than Python's recursion limit
    src = tmp_path / "A.java"
    src.write_text("class A { harness static void t() { int s = 0; int i = 0; "
                   "while (i < 1200) { s = s + ??; i = i + 1; } "
                   "assert s != 0; } }")
    code, out = run(tmp_path, str(src), "--loop-bound", "2000")
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 1"


def test_a_run_leaves_no_module_level_state(tmp_path):
    """Every module-level dict, list, set and bytearray of sketchsynth is
    the same after a solve as before it, so runs in one process cannot
    influence each other."""
    for info in pkgutil.iter_modules(sketchsynth.__path__):
        importlib.import_module(f"sketchsynth.{info.name}")

    def snapshot():
        return {(name, key): copy.deepcopy(value)
                for name, module in list(sys.modules.items())
                if name.startswith("sketchsynth.")
                for key, value in vars(module).items()
                if not key.startswith("__")
                and isinstance(value, (dict, list, set, bytearray))}

    before = snapshot()
    assert before
    code, _ = run(tmp_path, *program_files(*CADSR_SMALL))
    assert code == cli.EXIT_SOLVED
    assert snapshot() == before


def test_interface_fields_are_static(tmp_path):
    # JLS 9.3: a field of an interface is static without the modifier,
    # read through the interface's name or inherited by an implementer
    src = tmp_path / "A.java"
    src.write_text("interface I { int X = 5; } "
                   "class C implements I { int get() { return X + 1; } } "
                   + _harness("int y = I.X; assert y + new C().get() + ?? == 13;"))
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 2"
    # the decoded source reparses and solves again
    code, _ = run(tmp_path / "again", *sorted(map(str, (out / "java").iterdir())))
    assert code == cli.EXIT_SOLVED


def _exit_4(*args, **kwargs):
    raise RuntimeError("injected fault")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("code", [cli.EXIT_SOLVED, cli.EXIT_UNSAT,
                                  cli.EXIT_INPUT, cli.EXIT_INTERNAL],
                         ids=["exit-0", "exit-1", "exit-2", "exit-4"])
def test_a_run_leaves_the_cyclic_collector_as_it_found_it(
        tmp_path, monkeypatch, enabled, code):
    files = program_files(*(DB_TWO_STATE if code == cli.EXIT_UNSAT else MULT2))
    if code == cli.EXIT_INPUT:
        files = [str(tmp_path / "bad.java")]
        (tmp_path / "bad.java").write_text("class A { int x = ; }")
    if code == cli.EXIT_INTERNAL:
        monkeypatch.setattr(cli, "lower_program", _exit_4)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        got, _ = run(tmp_path, *files)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert got == code


def _sketchsynth_owned(obj):
    if isinstance(obj, types.FrameType):
        return "sketchsynth" in obj.f_code.co_filename
    return (type(obj).__module__ or "").startswith("sketchsynth")


# sketches whose search overruns a resource limit: (text, flags)
_OVERRUNS = {
    "recursion-400": (_plain_recursion(400), []),
    "step-limit": (_harness("int i = 0; while (i < 60) { i = i + 1; } "
                            "assert i == ??;"), ["--step-limit", "100"]),
}


@pytest.mark.parametrize("sid", ["mult2", "db", "db-two-state", "cadsr",
                                 "cadsr-small", "wide0", "wide1", "wide2",
                                 "wide3", "wide4", *_OVERRUNS])
def test_a_bench_sketch_leaves_no_cyclic_garbage(tmp_path, sid):
    """Runs pause the cyclic collector because they make no cycles; a
    change that makes some fails here before it shows as memory.  The
    overrun sketches keep the limit they overran until the search ends."""
    if sid in _OVERRUNS:
        text, flags = _OVERRUNS[sid]
        (tmp_path / "A.java").write_text(text)
        files, code = [str(tmp_path / "A.java")], cli.EXIT_TIMEOUT
    else:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                               / "perfbench"))
        try:
            import workloads
        finally:
            sys.path.pop(0)
        sk, = [sk for sk in (workloads.paper_sketches(tmp_path, 0)
                             + workloads.wide_sketches(tmp_path, 1))
               if sk.sid == sid]
        files, flags, code = sk.files, sk.flags, sk.exit_code
    gc.collect()
    debug = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        got, _ = run(tmp_path, *files, *flags)
        gc.collect()
        owned = [repr(o)[:80] for o in gc.garbage if _sketchsynth_owned(o)]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        gc.collect()
    assert got == code
    assert owned == []


_OWN_STRING = "class String { int length() { return 7; } } "


def test_string_literal_beside_an_own_string_class_gives_exit_2(tmp_path, capsys):
    # the literal is a java.lang.String, which javac will not assign to
    # the program's String
    src = tmp_path / "A.java"
    text = _OWN_STRING + _harness('String s = "ab"; assert s.length() == ??;')
    src.write_text(text)
    code, _ = run(tmp_path, str(src))
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    at = text.index('"ab"') + 1
    assert f"A.java:1:{at}: " in err
    assert "own class 'String'" in err


def test_library_tokens_stay_library_tokens_beside_an_own_chartoken(tmp_path):
    # convertToIterator makes the library's tokens, whose getId is the
    # code point, whatever the program names its own classes
    src = tmp_path / "A.java"
    src.write_text("class CharToken { public int getId() { return 99; } } "
                   + _harness('Iterator it = convertToIterator("a"); '
                              "CharToken c = it.next(); "
                              "assert c.getId() == ??;"))
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 97"


def test_own_string_class_without_literals_still_solves(tmp_path):
    src = tmp_path / "A.java"
    src.write_text(_OWN_STRING + _harness(
        "String s = new String(); assert s.length() == ??;"))
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 7"
