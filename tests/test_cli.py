"""Driver tests: exit codes, output tree, logging, dump flags."""

import copy
import importlib
import pkgutil
import re
import sys

import pytest

from conftest import (CADSR, CADSR_SMALL, DB, MULT2, PROGRAMS, program_files,
                      run_front_end)
import sketchsynth
from sketchsynth import cli, engine, parser
from sketchsynth.interp import ConcreteUnknowns, Interp, SymbolicUnknowns

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
    assert len(registry) == 0
    Interp(prog, ConcreteUnknowns(registry, {}), {}).run_harness("t_A")


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
        "null-single-implementation", "null-string", "missing-override",
        "impure-call-under-choice"])
def test_virtual_calls(tmp_path, text, code, solution):
    src = tmp_path / "A.java"
    src.write_text(text)
    got, out = run(tmp_path, str(src))
    assert got == code
    if solution is not None:
        assert (out / "solution.txt").read_text().splitlines()[:-1] == solution


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
    interp = Interp(prog, SymbolicUnknowns(prog.registry, width), {})
    interp.run_harness("t_A")
    src = tmp_path / "obj.java"
    src.write_text(text)
    code, out = run(tmp_path, str(src), "--step-limit", str(interp.steps))
    assert code == cli.EXIT_SOLVED
    assert (out / "solution.txt").read_text().splitlines()[0] == "hole e_h1 = 3"


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
