"""Class table tests: hierarchy queries, mangling, dispatch, and properties."""

import random

import pytest

from conftest import program_files, run_front_end, walk_ir
from sketchsynth import ir as I
from sketchsynth import typetags as T
from sketchsynth.classtable import build_class_table
from sketchsynth.desugar import desugar
from sketchsynth.errors import SketchError
from sketchsynth.lowering import lower_program
from sketchsynth.parser import parse_program_texts


def table_for(*texts):
    ast = parse_program_texts([(f"f{i}.java", t) for i, t in enumerate(texts)])
    ast, _, _ = desugar(ast)
    return build_class_table(ast)


def supertypes(t, name):
    """Every class and interface ``name`` is a subtype of, itself included."""
    return set(t.superclass_chain(name)) | set(t.all_interfaces(name))


def test_subclass_reflexive_and_respects_extends():
    t = table_for("class A { } class B extends A { } class C extends B { }")
    for name in ("A", "B", "C"):
        assert t.superclass_chain(name)[0] == name
    assert "A" in supertypes(t, "C") and "C" not in supertypes(t, "A")
    assert all("Object" in supertypes(t, n) for n in ("A", "B", "C"))


def test_the_library_root_is_the_superclass_of_every_class_naming_none():
    t = table_for("interface I { } class A { } class B extends A implements I { }")
    root = t.info("Object")
    assert root.is_builtin and root.superclass is None
    assert t.info("A").superclass == "Object" and t.info("I").superclass is None
    assert t.info("LinkedList").superclass == "Object"
    assert [m.mangled for m in root.methods] == [
        "convertToIterator_Object_String", "Object_Object"]


def test_a_programs_own_object_is_an_ordinary_class_beside_the_root():
    t = table_for("class Object { int k; } class A { } "
                  "class B extends Object { }")
    own, root = t.info("Object"), t.info(t.root)
    assert t.root == "java.lang.Object" and root.is_builtin
    assert not own.is_builtin and own.superclass == t.root
    assert t.info("A").superclass == t.root
    assert t.info("B").superclass == "Object"
    assert [m.plain_name for m in own.methods] == ["Object"]
    # the library's tags that name the root name it by its new name
    get = next(m for m in t.info("List").methods if m.plain_name == "get")
    assert get.ret.cls == t.root


def test_library_classes_stay_beside_program_classes_of_their_names():
    t = table_for("class String { } interface Iterator { } class List { } "
                  "class CharToken { } class A { }")
    builtin = {ci.name for ci in t.classes if ci.is_builtin}
    assert builtin == set(t.library.values()) == {
        "Object", "java.util.Iterator", "java.util.List", "LinkedList",
        "StringBuilder", "CharTokenIterator", "sketchsynth.CharToken",
        "java.lang.String"}
    for name in ("String", "Iterator", "List", "CharToken"):
        assert not t.info(name).is_builtin
    # library code names library classes only
    for ci in t.classes:
        if ci.is_builtin:
            assert all(t.info(i).is_builtin for i in ci.interfaces)
            for m in ci.methods:
                for tag in (*m.param_tags, m.ret):
                    assert tag.kind != "obj" or t.info(tag.cls).is_builtin
    assert t.info("LinkedList").interfaces == ["java.util.List"]


def test_interfaces_count_as_supertypes():
    t = table_for("interface I { } class A implements I { } "
                  "class B extends A { }")
    assert t.info("A").interfaces == ["I"] and t.info("B").interfaces == []
    assert "I" in supertypes(t, "A") and "I" in supertypes(t, "B")


def test_all_interfaces_closes_over_superclasses_and_superinterfaces():
    t = table_for("interface I { } interface J extends I { } interface K { } "
                  "class A implements J { } class B extends A implements K { }")
    assert t.all_interfaces("A") == ["J", "I"]
    assert t.all_interfaces("B") == ["K", "J", "I"]


def chain_walk(t, cls, sig):
    """Oracle: the first concrete method for ``sig`` up the superclass
    chain of ``cls``, found by reading the declarations."""
    for cur in t.superclass_chain(cls):
        if t.info(cur).is_builtin:
            continue    # the library's Object declares none of the sigs
        for m in t.info(cur).decl.methods():
            params = tuple(p.type.name for p in m.params)
            if (m.name, params) == sig and m.body is not None \
                    and not m.is_constructor:
                return m
    return None


def test_vtable_matches_chain_walk_on_random_hierarchies():
    rng = random.Random(7)
    sigs = [("m", ()), ("n", ()), ("m", ("int",))]
    decls = {("m", ()): "int m()", ("n", ()): "int n()",
             ("m", ("int",)): "int m(int x)"}
    for _ in range(40):
        n = rng.randrange(2, 9)
        lines = ["interface I { int m(); }", "interface J extends I { int n(); }"]
        for i in range(n):
            sup = rng.randrange(-1, i)  # only earlier classes: acyclic
            head = f"abstract class C{i}"
            if sup >= 0:
                head += f" extends C{sup}"
            impls = rng.sample(["I", "J"], rng.randrange(0, 3))
            if impls:
                head += " implements " + ", ".join(impls)
            body = []
            for k, sig in enumerate(sigs):
                roll = rng.random()
                if roll < 0.35:     # an override
                    body.append(f"{decls[sig]} {{ return {10 * i + k}; }}")
                elif roll < 0.5:    # an abstract redeclaration
                    body.append(f"abstract {decls[sig]};")
            lines.append(head + " { " + " ".join(body) + " }")
        t = table_for("\n".join(lines))
        for i in range(n):
            cid = t.id_of(f"C{i}")
            for sig in sigs:
                want = chain_walk(t, f"C{i}", sig)
                got = t.vtable.get((cid, sig))
                assert (got.decl if got else None) is want


def test_inheritance_cycle_rejected():
    with pytest.raises(SketchError,
                       match="^f0.java:1:1: inheritance cycle through 'A'$"):
        table_for("class A extends B { } class B extends A { }")


def test_unknown_supertype_rejected():
    with pytest.raises(SketchError, match="class 'A' references unknown "
                       "type 'Nowhere'"):
        table_for("class A extends Nowhere { }")


def test_duplicate_signature_rejected():
    with pytest.raises(SketchError,
                       match="duplicate signature 'f' in class 'A'"):
        table_for("class A { int f(int x) { return 1; } int f(int y) { return 2; } }")


def test_mangled_name_collision_takes_a_suffix():
    t = table_for("class B { } class A { int f(B x) { return 1; } } "
                  "class A_B { int f() { return 2; } }")
    assert [m.mangled for m in t.info("A").methods][0] == "f_A_B"
    assert [m.mangled for m in t.info("A_B").methods][0] == "f_A_B_2"


def test_resolve_field_finds_inherited_fields():
    t = table_for("class A { int x; } class B extends A { int y; }")
    assert t.resolve_field("B", "x") == ("A", T.INT, False)
    assert t.resolve_field("B", "y") == ("B", T.INT, False)


def test_static_fields_separate_from_layout():
    t = table_for("class A { static int s; int x; }")
    assert t.resolve_field("A", "s") == ("A", T.INT, True)
    assert [(o, n) for o, n, _ in t.static_fields] == [("A", "s")]


def test_method_mangling_includes_class_and_param_types():
    t = table_for("interface Token { } "
                  "class A { void f(int i, Token t) { } void f() { } }")
    mangled = [m.mangled for m in t.info("A").methods]
    assert "f_A_int_Token" in mangled
    assert "f_A" in mangled


def test_overload_resolution_prefers_exact_match():
    t = table_for("class A { int g(int x) { return 1; } "
                  "int g(char c) { return 2; } }")
    assert t.resolve_method("A", "g", [T.INT]).mangled == "g_A_int"
    assert t.resolve_method("A", "g", [T.CHAR]).mangled == "g_A_char"


def test_vtable_matches_chain_walk_oracle():
    t = table_for("""
        class A { int m() { return 1; } int n() { return 9; } }
        class B extends A { int m() { return 2; } }
        class C extends B { }
        """)
    for cls in ("A", "B", "C"):
        for sig in (("m", ()), ("n", ())):
            impl = t.vtable[(t.id_of(cls), sig)]
            # oracle: first declaring class up the chain
            expected = None
            for cur in t.superclass_chain(cls):
                cands = [m for m in t.info(cur).methods
                         if m.plain_name == sig[0] and not m.params]
                if cands:
                    expected = cands[0]
                    break
            assert impl is expected


def test_vtable_holds_each_concrete_arm():
    t = table_for("""
        interface I { public int m(); public int n(); }
        abstract class A implements I { public int m() { return 1; } }
        abstract class B implements I { public int m() { return 2; } }
        """)
    impls = {t.vtable[(t.id_of(c), ("m", ()))].mangled for c in ("A", "B")}
    assert impls == {"m_A", "m_B"}
    assert ("n", ()) not in {sig for _, sig in t.vtable}


def test_builtin_classes_present_on_demand():
    t = table_for("class A { Iterator it; LinkedList l; }")
    assert t.info("Iterator").is_builtin and t.info("Iterator").is_interface
    assert t.info("LinkedList").interfaces == ["List"]
    assert "List" in supertypes(t, "LinkedList")


def test_db_fixture_hierarchy():
    _, _, t, _ = run_front_end(files=program_files(
        "DBConnection.java", "Automaton.java", "TestDBConnection.java"))
    assert "Automaton1" in t.superclass_chain("Monitor_DBConnection")
    for name in ("Token_1", "Token_2"):
        assert "Token" in supertypes(t, name)


@pytest.mark.parametrize("subclass_first", [True, False],
                         ids=["subclass-first", "superclass-first"])
def test_long_chain_builds_and_lowers(subclass_first):
    n = 1200
    classes = [f"class C{i} extends C{i - 1} {{ }}" for i in range(n - 1, 0, -1)]
    classes.append("class C0 { int m() { return 1; } }")
    if not subclass_first:
        classes.reverse()
    harness = (f"class H {{ harness static void t() {{ C{n - 1} c = new C{n - 1}(); "
               "assert c.m() == 1; } }")
    ast = parse_program_texts([("t.java", "\n".join(classes + [harness]))])
    ast, _, registry = desugar(ast)
    t = build_class_table(ast)
    assert t.vtable[(t.id_of(f"C{n - 1}"), ("m", ()))] is t.info("C0").methods[0]
    assert t.all_interfaces(f"C{n - 1}") == []
    program = lower_program(t, registry)
    body = program.functions["t_H"].body
    calls = [e for e in walk_ir(body) if isinstance(e, I.VirtualCall)]
    assert [c.sig for c in calls] == [("m", ())]
