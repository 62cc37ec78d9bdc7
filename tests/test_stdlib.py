"""Library tests: each record run directly, each one called wrongly, and
end-to-end library use."""

import pytest

from conftest import run_front_end
from sketchsynth import cli, stdlib
from sketchsynth.engine import EngineConfig
from sketchsynth import typetags as T
from sketchsynth.interp import ConcreteUnknowns, HarnessFailure, Interp

# (class whose value receives the call, record) of each library method as
# the class table holds it; the class is None for a free function, a static
# method of the root class, and the record's own class for a constructor
RECORDS = [(None if m.is_static else ci.name, m.builtin)
           for ci in run_front_end(texts=[("A.java", "class A { }")])[2].classes
           for m in ci.methods if m.builtin is not None]


def lib(key, *param_tags):
    """The one record shown as ``key`` (that takes ``param_tags``, if
    given)."""
    (m,) = {m for _, m in RECORDS if repr(m) == repr(key)
            and param_tags in ((), m.param_tags)}
    return m


class FakeCtx:
    """Minimal allocation context for driving the records directly."""

    class Rec:
        def __init__(self, cls, payload):
            self.class_name = cls
            self.payload = payload

    def alloc_builtin(self, cls, payload):
        return self.Rec(cls, payload)


def test_char_tokens_yield_code_points_in_order():
    ctx = FakeCtx()
    it = stdlib.char_tokens(ctx, "car")
    ids = []
    while lib("Iterator.hasNext").run(ctx, it, []):
        tok = lib("Iterator.next").run(ctx, it, [])
        ids.append(lib("CharToken.getId").run(ctx, tok, []))
    assert ids == [ord("c"), ord("a"), ord("r")]


def test_iterator_overrun_traps():
    ctx = FakeCtx()
    it = stdlib.char_tokens(ctx, "")
    with pytest.raises(stdlib.BuiltinTrap):
        lib("Iterator.next").run(ctx, it, [])


def test_list_add_get_size_and_bounds():
    ctx = FakeCtx()
    lst = ctx.Rec("LinkedList", None)
    lib("LinkedList.new").run(ctx, lst, [])
    lib("List.add").run(ctx, lst, ["a"])
    lib("List.add").run(ctx, lst, ["b"])
    assert lib("List.size").run(ctx, lst, []) == 2
    assert lib("List.get").run(ctx, lst, [1]) == "b"
    with pytest.raises(stdlib.BuiltinTrap):
        lib("List.get").run(ctx, lst, [2])
    with pytest.raises(stdlib.BuiltinTrap):
        lib("List.get").run(ctx, lst, [-1])


def test_string_builder_appends():
    ctx = FakeCtx()
    sb = ctx.Rec("StringBuilder", None)
    lib("StringBuilder.new").run(ctx, sb, [])
    lib("StringBuilder.append", T.STR).run(ctx, sb, [ctx.Rec("String", "n=")])
    lib("StringBuilder.append", T.STR).run(ctx, sb, [None])
    lib("StringBuilder.append", T.INT).run(ctx, sb, [42])
    lib("StringBuilder.append", T.CHAR).run(ctx, sb, [ord("!")])
    text = lib("StringBuilder.toString").run(ctx, sb, [])
    assert (text.class_name, text.payload) == ("String", "n=null42!")
    assert lib("StringBuilder.length").run(ctx, sb, []) == 9


def test_string_char_at_bounds():
    ctx = FakeCtx()
    abc = ctx.Rec("String", "abc")
    assert lib("String.charAt").run(ctx, abc, [1]) == ord("b")
    with pytest.raises(stdlib.BuiltinTrap):
        lib("String.charAt").run(ctx, abc, [3])


def run_harnesses(*texts):
    prog = run_front_end(texts=[(f"f{i}.java", t) for i, t in enumerate(texts)])[3]
    interp = Interp(prog, ConcreteUnknowns({}), {}, EngineConfig())
    for h in prog.harnesses:
        interp.run_harness(h)


def test_library_surface_end_to_end():
    run_harnesses("""
        class A {
            harness static void t() {
                LinkedList l = new LinkedList();
                l.add(new A());
                assert l.size() == 1;
                Iterator it = l.iterator();
                assert it.hasNext();
                it.next();
                assert !it.hasNext();
                String s = "cadr";
                assert s.length() == 4;
                assert s.charAt(0) == 'c';
                StringBuilder sb = new StringBuilder();
                sb.append("x");
                assert sb.length() == 1;
            }
        }""")


def test_convert_to_iterator_end_to_end():
    run_harnesses("""
        interface Token { public int getId(); }
        class A {
            harness static void t() {
                Iterator it = convertToIterator("ca");
                assert it.hasNext();
                Token a = it.next();
                assert a.getId() == 'c';
                Token b = it.next();
                assert b.getId() == 'a';
                assert !it.hasNext();
            }
        }""")


def test_convert_to_iterator_in_an_interface_constant():
    # a library function is a static of the root class, which an
    # interface's scope reaches too
    run_harnesses("""
        interface K { Iterator I = convertToIterator("ab"); }
        class A {
            harness static void t() { Iterator it = K.I; assert it.hasNext(); }
        }""")


def test_builtin_trap_rejects_candidate_in_harness():
    with pytest.raises(HarnessFailure):
        run_harnesses("""
            class A {
                harness static void t() {
                    String s = "ab";
                    assert s.charAt(5) == 'a';
                }
            }""")


# a value of each library class, held in ``r``
RECEIVERS = {
    "Iterator": 'Iterator r = convertToIterator("ab");',
    "CharTokenIterator": 'CharTokenIterator r = convertToIterator("ab");',
    "CharToken": 'Iterator it = convertToIterator("ab"); CharToken r = it.next();',
    "List": "List r = new LinkedList();",
    "LinkedList": "LinkedList r = new LinkedList();",
    "StringBuilder": "StringBuilder r = new StringBuilder();",
    "String": 'String r = "ab";',
}
ARGUMENT = {T.INT: "1", T.CHAR: "'a'", T.BOOL: "true", T.STR: '"s"'}


def call_text(cls, m, args):
    """A harness that makes one call to ``m`` with argument sources
    ``args``."""
    if cls is None:
        call, setup = m.name, ""
    elif m.name == "new":
        call, setup = f"new {cls}", ""
    else:
        call, setup = f"r.{m.name}", RECEIVERS[cls]
    return (f"class A {{ harness static void t() {{ {setup} "
            f"{call}({', '.join(args)}); }} }}")


def misuses():
    for cls, m in RECORDS:
        args = [ARGUMENT.get(p, "new A()") for p in m.param_tags]
        name = f"{repr(m)[1:-1]}({', '.join(map(str, m.param_tags))})"
        yield pytest.param(cls, m, args, True, id=f"{name}-ok")
        yield pytest.param(cls, m, args + ["1"], False, id=f"{name}-too-many")
        if args:
            yield pytest.param(cls, m, args[1:], False, id=f"{name}-too-few")
            # no library method takes a boolean
            yield pytest.param(cls, m, ["true"] + args[1:], False,
                               id=f"{name}-wrong-kind")


@pytest.mark.parametrize("cls, m, args, ok", misuses())
def test_every_library_record_checks_its_arguments(tmp_path, cls, m, args, ok):
    """A call with the record's parameters runs (exit 0, or 1 on a trap);
    one with an argument too many, too few or of the wrong kind is an
    input error (exit 2), never an internal one."""
    src = tmp_path / "A.java"
    src.write_text(call_text(cls, m, args))
    code = cli.main([str(src), "--out", str(tmp_path / "out")])
    assert code in ((cli.EXIT_SOLVED, cli.EXIT_UNSAT) if ok else (cli.EXIT_INPUT,))


@pytest.mark.parametrize("stmts, code", [
    # an Object argument is only stored, so it may be one of several
    ("B b = new B(); b.v = 3; LinkedList l = new LinkedList(); "
     "l.add({| new B(), b |}); B c = l.get(0); assert c.v == 3;",
     cli.EXIT_SOLVED),
    # a String argument is read, so it must be one record
    ('Iterator it = convertToIterator({| "ab", "c" |}); assert it.hasNext();',
     cli.EXIT_INPUT),
    ('StringBuilder sb = new StringBuilder(); sb.append({| "ab", "c" |}); '
     "assert sb.length() == 1;", cli.EXIT_INPUT),
    # null appends "null", as in Java; Java appends another object's
    # toString(), which is not modelled
    ("StringBuilder sb = new StringBuilder(); String s = null; sb.append(s); "
     "assert sb.length() == 4;", cli.EXIT_SOLVED),
    ("StringBuilder sb = new StringBuilder(); sb.append(new B()); "
     "assert ?? == 1;", cli.EXIT_INPUT),
], ids=["stored-object-choice", "read-string-choice", "appended-string-choice",
        "appended-null", "appended-object"])
def test_library_argument_of_a_choice_or_null(tmp_path, stmts, code):
    src = tmp_path / "A.java"
    src.write_text("class B { int v; } "
                   f"class A {{ harness static void t() {{ {stmts} }} }}")
    assert cli.main([str(src), "--out", str(tmp_path / "out")]) == code
