"""Driver tests: exit codes, output tree, logging, dump flags."""

import copy
import gc
import importlib
import pkgutil
import re
import sys
import types
from pathlib import Path

import pytest

from conftest import (CADSR, CADSR_SMALL, DB, DB_TWO_STATE, MULT2, PROGRAMS,
                      program_files, run_front_end)
import sketchsynth
from sketchsynth import cli, engine, parser
from sketchsynth.interp import (MAX_CALL_DEPTH, ConcreteUnknowns, Interp,
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
    # the IR dump prints source spans, so the files are named as given
    # on a command line run from the programs directory
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
    for bits in ("0", "33", "40"):
        code, _ = run(tmp_path, *program_files("Test.java", "SimpleMath.java"),
                      "--hole-bits", bits)
        assert code == cli.EXIT_INPUT
        assert "--hole-bits" in capsys.readouterr().err


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
    Interp(prog, ConcreteUnknowns({}), {}).run_harness("t_A")


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
    # X has no m, so only Y can be the receiver
    ("interface I { public int m(); } class X implements I { X() { } } "
     "class Y implements I { public int m() { return 1; } } "
     "class A { harness static void t() { "
     "I x = {| new X(), new Y() |}; assert x.m() == 1; } }",
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
    # the harness needs every step the limit allows; the objective is read
    # by its own interpreter during replay, as during encoding
    text = ("class A { static int c = ??; harness static void t() { "
            "assert c >= 3; minimize(c); } }")
    prog = run_front_end(texts=[("obj.java", text)])[3]
    width = engine.effective_hole_width(prog, engine.EngineConfig())
    interp = Interp(prog, SymbolicUnknowns(width), {})
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


def test_calls_up_to_the_depth_bound_solve(tmp_path, capsys):
    # at the bound, with the deepest expression the parser accepts at the
    # bottom, the run fits Python's default recursion limit
    src = tmp_path / "A.java"
    src.write_text(_recursion(MAX_CALL_DEPTH - 2, nest=parser.MAX_NESTING))
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 1"
    src.write_text(_recursion(MAX_CALL_DEPTH - 1))
    code, out = run(tmp_path, str(src))
    assert code == cli.EXIT_TIMEOUT
    err = capsys.readouterr().err
    assert f"call depth limit of {MAX_CALL_DEPTH} exceeded" in err
    assert "--step-limit" not in err
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


def test_uninitialized_local_holds_its_types_default(tmp_path):
    src = tmp_path / "A.java"
    src.write_text(_harness("A a; int i; boolean b; String s; char c; "
                            "assert a == null && i == 0 && !b "
                            "&& s.length() == 0 && c == 0 && ?? == 1;"))
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


@pytest.mark.parametrize("sid", ["mult2", "db", "db-two-state", "cadsr",
                                 "cadsr-small", "wide0", "wide1", "wide2",
                                 "wide3", "wide4"])
def test_a_bench_sketch_leaves_no_cyclic_garbage(tmp_path, sid):
    """Runs pause the cyclic collector because they make no cycles; a
    change that makes some fails here before it shows as memory."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    sk, = [sk for sk in (workloads.paper_sketches(tmp_path, 0)
                         + workloads.wide_sketches(tmp_path, 1))
           if sk.sid == sid]
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        got, _ = run(tmp_path, *sk.files, *sk.flags)
        gc.collect()
        owned = [repr(o)[:80] for o in gc.garbage if _sketchsynth_owned(o)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.collect()
    assert got == sk.exit_code
    assert owned == []
