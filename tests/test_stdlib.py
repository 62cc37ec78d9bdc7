"""Library tests: each record run directly, each one called wrongly, and
end-to-end library use."""

import pytest

from conftest import run_front_end
from sketchsynth import cli, stdlib
from sketchsynth import typetags as T
from sketchsynth.interp import ConcreteUnknowns, HarnessFailure, Interp

# (class whose value receives the call, record); the class is None for a
# free function and the record's own class for a constructor
RECORDS = (
    [(spec.name, m) for spec in stdlib.BUILTIN_CLASSES for m in spec.methods]
    + [(spec.name, spec.ctor) for spec in stdlib.BUILTIN_CLASSES if spec.ctor]
    + [("String", m) for m in stdlib.STRING_METHODS]
    + [(None, m) for m in stdlib.FREE_FUNCTIONS])


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
    lst = lib("LinkedList.new").run(ctx, None, [])
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
    sb = lib("StringBuilder.new").run(ctx, None, [])
    lib("StringBuilder.append", T.STR).run(ctx, sb, ["n="])
    lib("StringBuilder.append", T.INT).run(ctx, sb, [42])
    lib("StringBuilder.append", T.CHAR).run(ctx, sb, [ord("!")])
    assert lib("StringBuilder.toString").run(ctx, sb, []) == "n=42!"
    assert lib("StringBuilder.length").run(ctx, sb, []) == 5


def test_string_char_at_bounds():
    ctx = FakeCtx()
    assert lib("String.charAt").run(ctx, "abc", [1]) == ord("b")
    with pytest.raises(stdlib.BuiltinTrap):
        lib("String.charAt").run(ctx, "abc", [3])


def run_harnesses(*texts):
    prog = run_front_end(texts=[(f"f{i}.java", t) for i, t in enumerate(texts)])[3]
    interp = Interp(prog, ConcreteUnknowns({}), {})
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
