"""Desugarer tests: generator specialization, unknown ids, normalization."""

import pytest

from conftest import find_type, program_files
from sketchsynth import ast_nodes as A
from sketchsynth import decode
from sketchsynth.desugar import desugar
from sketchsynth.errors import DirectGeneratorUseError
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
    assert ("Gen", "A") in spec_map.entries


def test_direct_generator_instantiation_is_rejected():
    with pytest.raises(DirectGeneratorUseError):
        desugar_texts(GEN, "class A { Gen g = new Gen(); }")


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


def test_root_class_injected_and_supers_default_to_it():
    ast, _, _ = desugar_texts("class A { }")
    assert find_type(ast, "Object") is not None
    assert find_type(ast, "A").superclass.name == "Object"


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
