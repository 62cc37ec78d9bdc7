"""Builtin catalog tests: direct evaluation and end-to-end library use."""

import pytest

from conftest import run_front_end
from sketchsynth import stdlib
from sketchsynth.interp import ConcreteUnknowns, HarnessFailure, Interp


class FakeCtx:
    """Minimal allocation context for driving the catalog directly."""

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
    while stdlib.builtin_eval("Iterator.hasNext", ctx, it, []):
        tok = stdlib.builtin_eval("Iterator.next", ctx, it, [])
        ids.append(stdlib.builtin_eval("CharToken.getId", ctx, tok, []))
    assert ids == [ord("c"), ord("a"), ord("r")]


def test_iterator_overrun_traps():
    ctx = FakeCtx()
    it = stdlib.char_tokens(ctx, "")
    with pytest.raises(stdlib.BuiltinTrap):
        stdlib.builtin_eval("Iterator.next", ctx, it, [])


def test_list_add_get_size_and_bounds():
    ctx = FakeCtx()
    lst = stdlib.builtin_eval("LinkedList.new", ctx, None, [])
    stdlib.builtin_eval("List.add", ctx, lst, ["a"])
    stdlib.builtin_eval("List.add", ctx, lst, ["b"])
    assert stdlib.builtin_eval("List.size", ctx, lst, []) == 2
    assert stdlib.builtin_eval("List.get", ctx, lst, [1]) == "b"
    with pytest.raises(stdlib.BuiltinTrap):
        stdlib.builtin_eval("List.get", ctx, lst, [2])
    with pytest.raises(stdlib.BuiltinTrap):
        stdlib.builtin_eval("List.get", ctx, lst, [-1])


def test_string_builder_appends():
    ctx = FakeCtx()
    sb = stdlib.builtin_eval("StringBuilder.new", ctx, None, [])
    stdlib.builtin_eval("StringBuilder.appendStr", ctx, sb, ["n="])
    stdlib.builtin_eval("StringBuilder.appendInt", ctx, sb, [42])
    stdlib.builtin_eval("StringBuilder.appendChar", ctx, sb, [ord("!")])
    assert stdlib.builtin_eval("StringBuilder.toString", ctx, sb, []) == "n=42!"
    assert stdlib.builtin_eval("StringBuilder.length", ctx, sb, []) == 5


def test_string_char_at_bounds():
    ctx = FakeCtx()
    assert stdlib.builtin_eval("String.charAt", ctx, "abc", [1]) == ord("b")
    with pytest.raises(stdlib.BuiltinTrap):
        stdlib.builtin_eval("String.charAt", ctx, "abc", [3])


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
