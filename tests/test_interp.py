"""Interpreter tests: concrete execution, traps, guards, symbolic encoding."""

import pytest

from conftest import run_front_end
from sketchsynth import bitvec as B
from sketchsynth import interp, ir
from sketchsynth.interp import (
    ConcreteUnknowns, HarnessFailure, Interp, StepLimitExceeded,
    SymbolicUnknowns,
)


def program(*texts):
    named = [(f"f{i}.java", t) for i, t in enumerate(texts)]
    return run_front_end(texts=named)[3]


def run_concrete(prog, values=None, repeats=None, **kw):
    interp = Interp(prog, ConcreteUnknowns(values or {}),
                    repeats or {}, **kw)
    for h in prog.harnesses:
        interp.run_harness(h)
    return interp


def test_arithmetic_follows_java_semantics():
    prog = program("""
        class A {
            harness static void t() {
                assert 7 / 2 == 3;
                assert -7 / 2 == -3;
                assert -7 % 2 == -1;
                assert 7 % -2 == 1;
                assert 2147483647 + 1 < 0;
            }
        }""")
    run_concrete(prog)


def test_assertion_failure_reported():
    prog = program("class A { harness static void t() { assert 1 == 2; } }")
    with pytest.raises(HarnessFailure) as e:
        run_concrete(prog)
    assert e.value.reason == "assertion failed"


def test_division_by_zero_rejects_candidate():
    prog = program("""
        class A {
            harness static void t() { int z = 0; assert 4 / z == 0; } }
        """)
    with pytest.raises(HarnessFailure):
        run_concrete(prog)


def test_null_field_access_rejects_candidate():
    prog = program("""
        class B { int x; }
        class A { harness static void t() { B b = null; assert b.x == 0; } }
        """)
    with pytest.raises(HarnessFailure):
        run_concrete(prog)


def test_loop_bound_rejects_runaway_candidate():
    prog = program(
        "class A { harness static void t() "
        "{ int i = 0; while (i >= 0) { i = 0; } } }")
    with pytest.raises((HarnessFailure, StepLimitExceeded)):
        run_concrete(prog, loop_bound=16)


def test_step_limit_enforced():
    prog = program("""
        class A {
            static int f(int n) { if (n <= 0) { return 0; } return f(n - 1); }
            harness static void t() { assert f(1000) == 0; }
        }""")
    with pytest.raises(StepLimitExceeded):
        run_concrete(prog, step_limit=100)


def test_fields_default_initialized_and_inherited():
    prog = program("""
        class B { int x; boolean f; String s; }
        class C extends B { int y; }
        class A {
            harness static void t() {
                C c = new C();
                assert c.x == 0 && !c.f && c.y == 0;
                assert c.s.length() == 0;
            }
        }""")
    run_concrete(prog)


def test_dynamic_dispatch_picks_runtime_class():
    prog = program("""
        interface I { public int m(); }
        class X implements I { public int m() { return 1; } }
        class Y implements I { public int m() { return 2; } }
        class A {
            static int probe(I v) { return v.m(); }
            harness static void t() {
                assert probe(new X()) == 1;
                assert probe(new Y()) == 2;
            }
        }""")
    run_concrete(prog)


def test_statics_fresh_per_harness():
    prog = program("""
        class A {
            static int counter = 0;
            harness static void t1() { counter = counter + 1; assert counter == 1; }
            harness static void t2() { assert counter == 0; counter = 5; }
        }""")
    run_concrete(prog)


def test_early_return_stops_execution():
    prog = program("""
        class A {
            static int f(int x) {
                if (x > 0) { return 1; }
                return 2;
            }
            harness static void t() { assert f(3) == 1 && f(-3) == 2; }
        }""")
    run_concrete(prog)


def test_short_circuit_guards_side_conditions():
    # the right operand of && must not trap when the left is false
    prog = program("""
        class A {
            harness static void t() {
                int z = 0;
                assert !(z != 0 && 1 / z == 0);
                assert z == 0 || 1 / z == 0;
            }
        }""")
    run_concrete(prog)


def test_concrete_hole_values_read_from_assignment():
    prog = program("class A { static int s = ??; "
                   "harness static void t() { assert s == 4; } }")
    run_concrete(prog, values={"e_h1": 4})
    with pytest.raises(HarnessFailure):
        run_concrete(prog, values={"e_h1": 3})


def test_repeat_instances_substituted_per_iteration():
    prog = program("""
        class A {
            harness static void t() {
                int acc = 0;
                minrepeat { acc = acc + ??; }
                assert acc == 5;
            }
        }""")
    run_concrete(prog, values={"e_h1_0": 2, "e_h1_1": 3}, repeats={"e_r1": 2})


def test_symbolic_constraints_hold_under_known_solution():
    prog = program("class A { static int s = ??; "
                   "harness static void t() { assert s * 2 == 6; } }")
    interp = Interp(prog, SymbolicUnknowns(5), {})
    interp.run_harness(prog.harnesses[0])
    assert interp.constraints
    good = {"e_h1": 3}
    bad = {"e_h1": 4}
    assert all(B.evaluate(c, good) for c in interp.constraints)
    assert not all(B.evaluate(c, bad) for c in interp.constraints)


def _subclasses(cls):
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | _subclasses(sub)
    return out


def test_every_ir_node_class_has_a_handler():
    # the interpreter dispatches on a node's exact class
    assert _subclasses(ir.IrExpr) == set(interp._EVAL)
    assert _subclasses(ir.IrInstr) == set(interp._EXEC)
