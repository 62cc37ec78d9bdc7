"""Parser tests: declarations, statements, sketch constructs, errors."""

import pytest

from conftest import PROGRAMS, walk_unknowns
from sketchsynth import ast_nodes as A
from sketchsynth import decode
from sketchsynth.errors import SketchError
from sketchsynth.parser import (MAX_NESTING, parse_program, parse_program_texts,
                                parse_source)


def parse_one(text):
    return parse_source(text, "t.java").types


def test_class_with_extends_and_implements():
    (d,) = parse_one("class A extends B implements I, J { }")
    assert d.name == "A"
    assert d.superclass.name == "B"
    assert [i.name for i in d.interfaces] == ["I", "J"]


def test_interface_and_abstract_method():
    (d,) = parse_one("interface I { public int getId(); }")
    assert d.is_interface
    (m,) = d.methods()
    assert m.name == "getId" and m.body is None


def test_generator_modifier_and_inner_class():
    (d,) = parse_one("generator class G { class Inner { } }")
    assert d.is_generator
    assert d.inner_classes()[0].name == "Inner"


def test_field_method_constructor_shapes():
    (d,) = parse_one("""
        class A {
            static int n = 3;
            private boolean f;
            A(int x) { }
            public int get(int i, char c) { return i; }
        }""")
    f1, f2 = d.fields()
    assert f1.is_static and f1.init.value == 3
    assert not f2.is_static and f2.init is None
    ctor = [m for m in d.methods() if m.is_constructor]
    assert len(ctor) == 1 and len(ctor[0].params) == 1
    get = [m for m in d.methods() if m.name == "get"][0]
    assert [p.type.name for p in get.params] == ["int", "char"]


def test_empty_members_and_declarations_are_skipped():
    # JLS 8.1.6, 9.1.4 and 7.6; a modifier still needs a member after it
    a, i = parse_one("; class A { ; static int f() { return 1; } ; "
                     "harness static void t() { assert f() == ??; } } ; "
                     "interface I { ; int g(); } ;")
    assert [m.name for m in a.members] == ["f", "t"]
    assert [m.name for m in i.members] == ["g"]
    with pytest.raises(SketchError, match="expected a type, found ';'"):
        parse_one("class A { static ; }")


def test_hole_choice_minrepeat_nodes():
    (d,) = parse_one("""
        class A {
            int f(int x) {
                minrepeat { if (x == ??) { return {| x, 0, x + 1 |}; } }
                return 0;
            }
        }""")
    nodes = walk_unknowns(d)
    kinds = [type(n).__name__ for n in nodes]
    assert kinds == ["MinRepeat", "Hole", "Choice"]
    assert len(nodes[2].alternatives) == 3


def test_generic_type_arguments_are_parsed_and_dropped():
    (d,) = parse_one("class A { Iterator<Token> it; Map<K, List<V>> m; "
                     "void f() { Iterator<Token> j = null; } }")
    it, m = (f.type for f in d.fields())
    assert repr(it) == repr(A.TypeRef("Iterator", span=it.span))
    assert repr(m) == repr(A.TypeRef("Map", span=m.span))
    local = d.methods()[0].body.stmts[0]
    assert repr(local.type) == repr(
        A.TypeRef("Iterator", span=local.type.span))


@pytest.mark.parametrize("decl, type_name, name", [
    ("List<List<A>> l = null;", "List", "l"),
    ("Map<K, List<V>> m;", "Map", "m"),
    ("Map<List<K>, Map<K, V>> n = null;", "Map", "n"),
], ids=["list-of-lists", "map-to-list", "map-of-maps"])
def test_nested_generic_local_parses_as_declaration(decl, type_name, name):
    (d,) = parse_one(f"class A {{ void f() {{ {decl} }} }}")
    (local,) = d.methods()[0].body.stmts
    assert isinstance(local, A.LocalDecl)
    assert (local.type.name, local.name) == (type_name, name)


def test_generic_lookahead_leaves_comparisons_alone():
    (d,) = parse_one("class A { void f(int a, int b) { g(a < b, b > a); } }")
    (call,) = d.methods()[0].body.stmts
    assert [arg.op for arg in call.expr.args] == ["<", ">"]
    # a comparison is no statement (JLS 14.8), as javac says too
    with pytest.raises(SketchError, match=r"^t\.java:1:36: not a statement$"):
        parse_one("class A { void f(int a, int b) { a < b; } }")


def test_walk_keeps_pre_order_over_fields():
    (d,) = parse_one("class A { int g = ??; int f(int p) { if (p < 1) { return -p; } "
                     "return {| p, new B(p).h() |}; } }")
    assert [type(n).__name__ for n in A.walk(d)] == [
        "ClassDecl", "FieldDecl", "TypeRef", "Hole", "MethodDecl", "TypeRef",
        "Param", "TypeRef", "Block", "IfStmt", "BinOp", "Name", "IntLit",
        "Block", "ReturnStmt", "UnOp", "Name", "ReturnStmt", "Choice", "Name",
        "MethodCall", "NewObject", "TypeRef", "Name"]


def test_walk_handles_deep_nesting_without_recursion():
    inner = A.Block([])
    node = inner
    for _ in range(4999):
        node = A.Block([node])
    nodes = list(A.walk(node))
    assert len(nodes) == 5000 and nodes[0] is node and nodes[-1] is inner


def test_int_literal_range():
    (d,) = parse_one("class A { int a = 2147483647; int b = -2147483648; }")
    a, b = d.fields()
    assert a.init.value == 2**31 - 1
    assert b.init.op == "-" and b.init.operand.value == 2**31
    # 2147483648 is an int literal only as the operand of unary minus
    for src, literal in [
            ("class A { static int x = 2147483648; }", "2147483648"),
            ("class A { int f(int x) { return x - 2147483648; } }", "2147483648"),
            ("class A { int a = -(2147483648); }", "2147483648"),
            ("class A { int a = -2147483649; }", "2147483649")]:
        with pytest.raises(SketchError, match=": expected an int literal of "
                           f"at most 2147483647, found '{literal}'$"):
            parse_one(src)


def test_anonymous_class_expression():
    (d,) = parse_one("""
        class A { static Token T = new Token() { public int getId() { return 1; } }; }
        """)
    init = d.fields()[0].init
    assert isinstance(init, A.NewObject) and init.anon_members is not None


def test_anonymous_class_body_is_a_class_body():
    # empty members are skipped (JLS 8.1.6), and no member is a
    # constructor (JLS 15.9.5)
    (d,) = parse_one("class A { Object o = new Object() "
                     "{ ; int f() { return 1; } ; }; }")
    assert [m.name for m in d.fields()[0].init.anon_members] == ["f"]
    for src, col in [("class A { B() { } }", 11),
                     ("class A { A a = new A() { A() { } }; }", 27)]:
        with pytest.raises(SketchError, match=f"^t\\.java:1:{col}: invalid "
                           "method declaration; return type required$"):
            parse_one(src)


def test_precedence_and_associativity():
    (d,) = parse_one("class A { int f() { return 1 + 2 * 3 - 4; } }")
    ret = d.methods()[0].body.stmts[0]
    # (1 + (2*3)) - 4
    assert ret.value.op == "-" and ret.value.left.op == "+"
    assert ret.value.left.right.op == "*"


def test_binary_levels_follow_the_precedence_table():
    def shape(e):
        if isinstance(e, A.BinOp):
            return (shape(e.left), e.op, shape(e.right))
        return e.ident

    for p in A.BINARY_PREC:
        for q in A.BINARY_PREC:
            (d,) = parse_one(f"class A {{ int f() {{ return a {p} b {q} c; }} }}")
            got = shape(d.methods()[0].body.stmts[0].value)
            if A.BINARY_PREC[p] >= A.BINARY_PREC[q]:   # left-associative
                assert got == (("a", p, "b"), q, "c"), (p, q)
            else:
                assert got == ("a", p, ("b", q, "c")), (p, q)


def test_assignment_and_unary():
    (d,) = parse_one("class A { void f(int x) { x = -x; assert !(x == 1); } }")
    s1, s2 = d.methods()[0].body.stmts
    assert isinstance(s1.expr, A.Assign) and s1.expr.value.op == "-"
    assert s2.cond.op == "!"


def test_prefix_operators_wrap_the_member_access():
    (d,) = parse_one("class A { int f(A a) { return !-a.g().h; } }")
    e = d.methods()[0].body.stmts[0].value
    assert e.op == "!" and e.operand.op == "-"
    inner = e.operand.operand
    assert isinstance(inner, A.FieldAccess) and inner.name == "h"
    assert isinstance(inner.target, A.MethodCall) and inner.target.name == "g"


@pytest.mark.parametrize("open_, close", [
    ("(", ")"), ("-", ""), ("!", ""), ("f(", ")"), ("{| ", " |}"), ("-(", ")"),
    ("1 + ", "")],
    ids=["parentheses", "minus", "not", "call", "choice", "minus-parentheses",
         "plus"])
def test_nesting_limit(open_, close):
    levels = 2 if open_ == "-(" else 1
    # the initializer itself is the first level
    n = (MAX_NESTING - 1) // levels
    parse_one(f"class A {{ int a = {open_ * n}1{close * n}; }}")
    n = MAX_NESTING // levels + 1
    with pytest.raises(SketchError, match=": expected an expression nested at "
                       f"most {MAX_NESTING} deep, found "):
        parse_one(f"class A {{ int a = {open_ * n}1{close * n}; }}")


def test_type_argument_nesting_limit():
    # each ``<`` is one level; far past the limit is still an input error
    def field(n):
        return f"class A {{ static {'List<' * n}A{'>' * n} f; }}"
    (d,) = parse_one(field(MAX_NESTING))
    assert d.fields()[0].type.name == "List"
    for n in (MAX_NESTING + 1, 1200):
        with pytest.raises(SketchError, match=": expected a type nested at "
                           f"most {MAX_NESTING} deep, found '<'$"):
            parse_one(field(n))


@pytest.mark.parametrize("open_, close", [
    ("{ ", "} "), ("if (b) { ", "} "), ("if (b) ", ""), ("while (b) ", ""),
    ("if (b) { } else { ", "} "), ("if (b) { } else ", "")],
    ids=["block", "if-block", "if", "while", "else-block", "else"])
def test_statement_nesting_limit(open_, close):
    # each nested statement is one level, and so is the expression in the
    # innermost one
    n = MAX_NESTING - 1
    parse_one(f"class A {{ void f() {{ {open_ * n}f(); {close * n}}} }}")
    n = MAX_NESTING + 1
    with pytest.raises(SketchError, match=": expected .* nested at most "
                       f"{MAX_NESTING} deep, found "):
        parse_one(f"class A {{ void f() {{ {open_ * n}f(); {close * n}}} }}")


def test_interface_fields_are_static():
    iface, cls = parse_one("interface I { int X = 1; static int Y = 2; } "
                           "class C { int z = 3; }")
    (x, y), (z,) = iface.fields(), cls.fields()
    assert x.is_static and y.is_static and not z.is_static
    assert x.modifiers == []


def test_syntax_error_has_position():
    with pytest.raises(SketchError,
                       match="expected an expression, found ';'") as e:
        parse_one("class A { int x = ; }")
    assert e.value.span.line == 1 and e.value.span.col > 1


def test_duplicate_type_across_files_rejected():
    with pytest.raises(SketchError, match=r"^b\.java:1:1: duplicate top-level "
                       r"type 'A' \(first at a\.java:1:1\)$"):
        parse_program_texts([("a.java", "class A { }"),
                             ("b.java", "class A { }")])


def test_unparse_parse_unparse_is_identity_on_fixtures():
    names = ("Test.java", "SimpleMath.java", "DBConnection.java",
             "Automaton.java", "TestDBConnection.java", "CADsR.java",
             "TestCADsR.java")
    ast = parse_program([str(PROGRAMS / n) for n in names])
    once = decode.unparse_program(ast)
    again = decode.unparse_program(parse_program_texts(list(once.items())))
    assert once == again


@pytest.mark.parametrize("stmt", [
    "break;", "continue;", "for (;;) { }", "do { } while (true);",
    "switch (x) { }", "try { } finally { }", "throw null;"])
def test_statement_outside_the_subset_is_named(stmt):
    keyword = stmt.split()[0].rstrip(";")
    with pytest.raises(SketchError,
                       match=f"unsupported statement '{keyword}'$") as info:
        parse_one(f"class A {{ void f(int x) {{ while (x < 5) {{ {stmt} }} }} }}")
    assert info.value.span.col == 43
