"""Desugarer tests: generator specialization, unknown ids, normalization."""

import pytest

from conftest import find_type, program_files
from sketchsynth import ast_nodes as A
from sketchsynth import decode
from sketchsynth.desugar import desugar
from sketchsynth.errors import SketchError
from sketchsynth.parser import parse_program, parse_program_texts


def desugar_texts(*texts):
    named = [(f"f{i}.java", t) for i, t in enumerate(texts)]
    return desugar(parse_program_texts(named))


GEN = """
generator class Gen {
    int bound = ??;
    int pick(int x) { return {| x, bound |}; }
}
"""


def test_each_extending_context_gets_its_own_specialized_copy():
    ast, spec_map, registry = desugar_texts(
        GEN,
        "class A extends Gen { }",
        "class B extends Gen { }",
    )
    names = {d.name for d in ast.top_level_types()}
    assert {"Gen1", "Gen2"} <= names
    assert "Gen" not in names
    assert find_type(ast, "A").superclass.name in ("Gen1", "Gen2")
    assert find_type(ast, "A").superclass.name != find_type(ast, "B").superclass.name
    # each copy owns fresh unknowns: 2 holes + 2 choices in total
    assert len(registry.holes) == 2 and len(registry.choices) == 2


def test_specialization_map_records_contexts():
    _, spec_map, _ = desugar_texts(GEN, "class A extends Gen { }")
    assert ("Gen", "A") in spec_map


def test_direct_generator_instantiation_is_rejected():
    with pytest.raises(SketchError, match="generator class 'Gen' may only "
                       "appear in 'extends'"):
        desugar_texts(GEN, "class A { Gen g = new Gen(); }")


@pytest.mark.parametrize("text, message", [
    ("generator interface I { }", "interface 'I' cannot be a generator"),
    ("generator class G { } generator class H extends G { } class A extends H { }",
     "generator class 'H' may not extend another generator"),
    ("class A { static void t() { minrepeat { minrepeat { } } } }",
     "nested minrepeat is not supported"),
], ids=["generator-interface", "generator-extends-generator", "nested-minrepeat"])
def test_unsupported_sketch_construct_is_rejected(text, message):
    with pytest.raises(SketchError, match=message):
        desugar_texts(text)


def test_unknown_ids_are_dense_per_kind_in_program_order():
    ast, _, registry = desugar_texts("""
        class A {
            int f(int x) {
                int a = ??;
                minrepeat { a = a + {| x, ?? |}; }
                return a + ??;
            }
        }""")
    assert [h.name for h in registry.holes] == ["e_h1", "e_h2", "e_h3"]
    assert [c.name for c in registry.choices] == ["e_c1"]
    assert [r.name for r in registry.repeats] == ["e_r1"]


def test_unknowns_inside_minrepeat_are_templates():
    _, _, registry = desugar_texts(
        "class A { int f(int x) { minrepeat { x = x + ??; } return x; } }")
    (h,) = registry.holes
    (r,) = registry.repeats
    assert h.template_of is r
    assert h.instance_name(2) == f"{h.name}_2"
    assert h.instance_name() == h.name


def test_inner_class_flattened_with_outer_suffix():
    ast, _, _ = desugar_texts(
        "class Outer { class Inner { } Inner f; }")
    names = {d.name for d in ast.top_level_types()}
    assert "Inner_Outer" in names
    # references are renamed along with the declaration
    outer = find_type(ast, "Outer")
    assert outer.fields()[0].type.name == "Inner_Outer"


def test_references_follow_their_declaration_not_its_text():
    # A becomes A_Outer; the class that was A_Outer becomes A_Outer_Outer,
    # and no reference to one is taken for the other
    ast, _, _ = desugar_texts(
        "class Outer { class A { } class A_Outer { } A a; A_Outer b; }")
    fields = find_type(ast, "Outer").fields()
    assert [f.type.name for f in fields] == ["A_Outer", "A_Outer_Outer"]


def test_member_class_shadows_an_outer_one_of_its_name():
    ast, _, _ = desugar_texts(
        "class Outer { class K { } class In { class K { } K k; } K k; }")
    assert find_type(ast, "Outer").fields()[0].type.name == "K_Outer"
    assert find_type(ast, "In_Outer").fields()[0].type.name == "K_In_Outer"


def test_a_generators_copy_binds_its_own_name_to_itself():
    ast, _, _ = desugar_texts(
        "generator class G { G next; G() { } } "
        "class A extends G { } class B extends G { }")
    for name in ("G1", "G2"):
        copy = find_type(ast, name)
        assert copy.fields()[0].type.name == name
        assert [m.name for m in copy.methods()] == [name]


def test_generator_declared_in_an_anonymous_body_is_dropped():
    ast, _, _ = desugar_texts(
        "class S { } class A { S s = new S() { generator class G { } }; }")
    assert sorted(d.name for d in ast.top_level_types()) == ["A", "S", "S_1"]


def test_every_generated_name_is_the_first_free_one_of_its_stem():
    # X_Outer is taken, so member X becomes X_Outer_2; the lifted body of
    # new X_Outer() { } still takes X_Outer_1, and F_2 is skipped
    ast, _, _ = desugar_texts(
        "class X_Outer { } class F { } class F_2 { } "
        "class Outer { class X { } X b; X_Outer a = new X_Outer() { }; "
        "F f = new F() { }; F g = new F() { }; F h = new F() { }; }")
    assert sorted(d.name for d in ast.top_level_types()) == [
        "F", "F_1", "F_2", "F_3", "F_4", "Outer",
        "X_Outer", "X_Outer_1", "X_Outer_2"]
    assert find_type(ast, "Outer").fields()[0].type.name == "X_Outer_2"
    assert find_type(ast, "X_Outer_1").superclass.name == "X_Outer"


def test_anonymous_class_lifted_to_named_subclass():
    ast, _, _ = desugar_texts("""
        interface Token { public int getId(); }
        class A {
            static Token T = new Token() { public int getId() { return 7; } };
        }""")
    lifted = [d for d in ast.top_level_types() if d.name.startswith("Token_")]
    assert len(lifted) == 1
    init = find_type(ast, "A").fields()[0].init
    assert isinstance(init, A.NewObject)
    assert init.anon_members is None and init.type.name == lifted[0].name


def test_no_root_class_is_injected():
    # the root is a library class; the class table makes it the superclass
    ast, _, _ = desugar_texts("class A { }")
    assert find_type(ast, "Object") is None
    assert find_type(ast, "A").superclass is None


def test_field_initializers_hoisted_into_constructors():
    ast, _, _ = desugar_texts(
        "class A { int x = 5; A() { } A(int y) { x = y; } }")
    a = find_type(ast, "A")
    assert a.fields()[0].init is None
    for ctor in [m for m in a.methods() if m.is_constructor]:
        first = ctor.body.stmts[0]
        assert isinstance(first.expr, A.Assign)
        assert first.expr.value.value == 5


def test_generics_are_erased():
    ast, _, _ = desugar_texts(
        "interface Token { } class A { Iterator<Token> it; }")
    assert str(find_type(ast, "A").fields()[0].type) == "Iterator"
    assert "Iterator it;" in decode.unparse_program(ast)["f0.java"]


def test_fixture_db_program_specializes_and_flattens():
    ast, spec_map, registry = desugar(parse_program(program_files(
        "DBConnection.java", "Automaton.java", "TestDBConnection.java")))
    names = {d.name for d in ast.top_level_types()}
    assert "Automaton1" in names and "Monitor_DBConnection" in names
    assert find_type(ast, "Monitor_DBConnection").superclass.name == "Automaton1"
    # Fig-2b shape: 6 holes (init state, num_state, 3 per-rule templates
    # counted once each, accept bound), 1 repeat
    assert len(registry.repeats) == 1
    assert len(registry.holes) == 6
