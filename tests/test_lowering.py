"""Lowering tests: function naming, dispatch, unknowns, error cases."""

import pytest

from conftest import (CADSR, find_type, program_files, run_front_end,
                      walk_unknowns)
from sketchsynth import decode, engine
from sketchsynth import ir as I
from sketchsynth.errors import HarnessShapeError, TypeLoweringError


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
    with pytest.raises(HarnessShapeError):
        lower_texts("class A { harness void t() { } }")
    with pytest.raises(HarnessShapeError):
        lower_texts("class A { harness static int t() { return 1; } }")
    with pytest.raises(HarnessShapeError):
        lower_texts("class A { harness static void t(int x) { } }")


def test_constructor_lowered_to_init_and_factory():
    _, _, _, prog = lower_texts("class A { A(int x) { } }")
    assert "init_A_A_int" in prog.functions
    assert "new_A_A_int" in prog.functions
    factory = prog.functions["new_A_A_int"]
    assert isinstance(factory.body[0].expr, I.AllocObj)


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
        calls = [n for n in I.walk_ir(prog.functions[fn].body)
                 if isinstance(n, (I.Call, I.VirtualCall))]
        assert [type(c) for c in calls] == [I.VirtualCall]
        assert calls[0].sig == sig
    assert not any(f.startswith("dyn_dispatch") for f in prog.functions)


def test_call_without_implementation_rejected():
    with pytest.raises(TypeLoweringError, match="no implementation of 'm'"):
        lower_texts("interface I { public int m(); } "
                    "class U { int use(I x) { return x.m(); } }")


def test_static_field_initializers_collect_into_static_init():
    _, _, _, prog = lower_texts("class A { static int s = 4; static int t; }")
    init = prog.functions["__static_init__"]
    assigns = [i for i in init.body if isinstance(i, I.AssignStatic)]
    assert [(a.cls, a.name) for a in assigns] == [("A", "s")]


def test_minimize_collects_named_objective():
    _, _, _, prog = lower_texts(
        "class A { static int s = ??; "
        "harness static void t() { minimize(s); } }")
    (name, expr) = prog.objectives[0]
    assert name == "t_A"
    assert isinstance(expr, I.StaticRead)


def test_minimize_outside_harness_rejected():
    with pytest.raises(TypeLoweringError):
        lower_texts("class A { static int s; void f() { minimize(s); } }")


def test_minimize_over_locals_rejected():
    with pytest.raises(TypeLoweringError):
        lower_texts("class A { harness static void t() "
                    "{ int x = 1; minimize(x); } }")


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
    with pytest.raises(TypeLoweringError):
        lower_texts('class A { int f() { return {| 1, "s" |}; } }')


def test_max_literal_covers_char_codes_in_strings():
    _, _, _, prog = run_front_end(files=program_files(*CADSR))
    # 'r' = 114 is the largest code point used by the harness strings
    assert prog.max_literal == 114


def test_extending_a_builtin_class_is_rejected():
    with pytest.raises(TypeLoweringError):
        lower_texts("class A extends LinkedList { A() { } }")


def test_walk_ir_handles_deep_nesting_without_recursion():
    leaf = I.LocalRead("x")
    expr = leaf
    for _ in range(4999):
        expr = I.Un("-", expr)
    nodes = list(I.walk_ir([I.EvalInstr(expr)]))
    assert len(nodes) == 5001 and nodes[1] is expr and nodes[-1] is leaf
