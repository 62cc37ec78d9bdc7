"""Lowering tests: function naming, dispatch, unknowns, error cases."""

import pytest

from conftest import (CADSR, find_type, program_files, run_front_end,
                      subclasses, walk_ir, walk_unknowns)
from sketchsynth import ast_nodes as A
from sketchsynth import bitvec as B
from sketchsynth import decode, engine, lowering
from sketchsynth import ir as I
from sketchsynth import typetags as T
from sketchsynth.errors import SketchError


def lower_texts(*texts):
    named = [(f"f{i}.java", t) for i, t in enumerate(texts)]
    return run_front_end(texts=named)


def test_static_method_and_harness_registration():
    _, _, _, prog = lower_texts(
        "class A { harness static void t() { assert ok(); } "
        "static boolean ok() { return true; } }")
    assert "t_A" in prog.functions and prog.functions["t_A"].is_harness
    assert prog.harnesses == ["t_A"]
    assert "ok_A" in prog.functions


def test_harness_must_be_static_void_parameterless():
    shape = "harness 'A.t' must be static, void and parameterless"
    with pytest.raises(SketchError, match=shape):
        lower_texts("class A { harness void t() { } }")
    with pytest.raises(SketchError, match=shape):
        lower_texts("class A { harness static int t() { return 1; } }")
    with pytest.raises(SketchError, match=shape):
        lower_texts("class A { harness static void t(int x) { } }")


def test_constructor_lowered_to_one_function_that_new_calls():
    _, _, _, prog = lower_texts(
        "class A { A(int x) { } } class B { A f() { return new A(1); } }")
    assert [f for f in prog.functions if "A_A" in f] == ["init_A_A_int"]
    assert prog.functions["init_A_A_int"].params == ["self", "x"]
    (ret,) = prog.functions["f_B"].body
    assert type(ret.expr) is I.New and ret.expr.cls == "A"
    assert ret.expr.ctor.function == "init_A_A_int"


def test_instance_methods_take_self():
    _, _, _, prog = lower_texts("class A { int g() { return 1; } }")
    assert prog.functions["g_A"].params == ["self"]


def test_instance_calls_lower_to_virtual_calls():
    # g has one implementer and m two: both call sites take the same path
    _, _, _, prog = lower_texts("""
        interface I { public int m(); }
        class A implements I {
            public int m() { return 1; }
            int g() { return 1; }
            int f() { return g(); }
        }
        class B implements I { public int m() { return 2; } }
        class U { int use(I x) { return x.m(); } }
        """)
    for fn, sig in (("f_A", ("g", ())), ("use_U_I", ("m", ()))):
        calls = [n for n in walk_ir(prog.functions[fn].body)
                 if isinstance(n, (I.Call, I.VirtualCall))]
        assert [type(c) for c in calls] == [I.VirtualCall]
        assert calls[0].sig == sig
    assert not any(f.startswith("dyn_dispatch") for f in prog.functions)


def test_static_field_initializers_collect_into_static_init():
    _, _, _, prog = lower_texts("class A { static int s = 4; static int t; }")
    init = prog.functions["__static_init__"]
    assigns = [i for i in init.body if isinstance(i, I.AssignStatic)]
    assert [(a.cls, a.name) for a in assigns] == [("A", "s")]


def test_minimize_collects_named_objective():
    _, _, _, prog = lower_texts(
        "class A { static int s = ??; "
        "harness static void t() { minimize(s); s = 1; minimize(s); } }")
    assert prog.objectives == ["t_A", "t_A_2"]
    first, _, second = prog.functions["t_A"].body
    assert repr(first) == repr(
        I.MinimizeInstr("t_A", I.StaticRead("A", "s")))
    assert second.name == "t_A_2"


def test_minimize_outside_harness_rejected():
    with pytest.raises(SketchError, match=r"minimize\(\.\.\.\) may appear "
                       "only inside harness bodies"):
        lower_texts("class A { static int s; void f() { minimize(s); } }")


def test_minimize_over_a_local_reads_it_in_place():
    _, _, _, prog = lower_texts("class A { harness static void t() "
                                "{ int x = 1; minimize(x + 1); } }")
    (decl, minimize) = prog.functions["t_A"].body
    assert isinstance(minimize, I.MinimizeInstr) and minimize.name == "t_A"
    assert repr(minimize.expr.left) == repr(I.LocalRead(decl.name))


def test_hole_in_boolean_context_is_flagged_bool():
    _, registry, _, _ = lower_texts(
        "class A { boolean b = ??; int n = ??; }")
    flags = {h.name: h.is_bool for h in registry.holes}
    assert flags == {"e_h1": True, "e_h2": False}


def test_hoisted_bool_field_hole_is_one_record_in_every_constructor():
    ast, registry, _, _ = lower_texts(
        "class A { boolean g = ??; A() { } A(int x) { } }")
    (h,) = registry.holes
    assert h.is_bool
    holes = [n for m in find_type(ast, "A").methods() if m.is_constructor
             for n in walk_unknowns(m.body)]
    assert len(holes) == 2 and all(n.uid is h for n in holes)
    for value, text in ((1, "true"), (0, "false")):
        (out,) = decode.unparse_program(
            ast, engine.Assignment({"e_h1": value}, {})).values()
        assert out.count(f"g = {text};") == 2


def test_choice_alternatives_must_share_a_type():
    with pytest.raises(SketchError,
                       match="choice alternatives must share a type"):
        lower_texts('class A { int f() { return {| 1, "s" |}; } }')


def test_max_literal_covers_char_codes_in_strings():
    _, _, _, prog = run_front_end(files=program_files(*CADSR))
    # 'r' = 114 is the largest code point used by the harness strings
    assert prog.max_literal == 114


def test_extending_a_builtin_class_is_rejected():
    with pytest.raises(SketchError, match="class 'A' may not extend "
                       "builtin 'LinkedList'"):
        lower_texts("class A extends LinkedList { A() { } }")


def test_a_constant_is_printed_without_its_term():
    # the term a Const builds for the interpreter is derived from its value
    a, b = I.Const(7, T.INT), I.Const(7, T.INT)
    assert a.term is not b.term and B.const_value(a.term) == 7
    assert repr(a) == repr(b) == \
        "Const(value=7, tag=TypeTag(kind='int', cls=None))"


def test_every_syntax_node_kind_has_a_lowering():
    # a node kind added to or removed from ast_nodes.py is wired here too
    assert set(lowering._LOWER_EXPR) == subclasses(A.Expr)
    assert set(lowering._LOWER_STMT) == subclasses(A.Stmt)


