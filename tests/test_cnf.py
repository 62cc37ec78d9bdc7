"""Bit-blaster tests: CNF circuits agree with the term evaluator."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from sketchsynth import bitvec as B
from sketchsynth import sat
from sketchsynth.cnf import CnfBuilder


def solve_builder(cb, assumptions=()):
    s = sat.Solver()
    s.ensure_vars(cb.nvars)
    for cl in cb.clauses:
        s.add_clause(cl)
    return None if cb.contradiction else s.solve(assumptions=list(assumptions))


def forced_value(op, a, b, width=4):
    """Constrain two narrow variables to constants, solve, and read back the
    value of ``op(x, y)`` through a fresh result variable."""
    cb = CnfBuilder()
    x, y = B.var("x", width), B.var("y", width)
    cb.assert_term(B.eq(x, B.const(a)))
    cb.assert_term(B.eq(y, B.const(b)))
    cb.assert_term(B.eq(B.var("z"), op(x, y)))
    model = solve_builder(cb)
    assert model is not None
    return cb.model_value("z", model)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15))
def test_add_sub_mul_circuits(a, b):
    env = {"x": a, "y": b}
    for op in (B.add, B.sub, B.mul):
        expected = B.evaluate(op(B.var("x", 4), B.var("y", 4)), env)
        assert forced_value(op, a, b) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 15), st.integers(1, 15))
def test_division_circuits(a, b):
    env = {"x": a, "y": b}
    for op in (B.sdiv, B.srem):
        expected = B.evaluate(op(B.var("x", 4), B.var("y", 4)), env)
        assert forced_value(op, a, b) == expected


def test_comparison_constraints_prune_models():
    rng = random.Random(3)
    for _ in range(40):
        a, b = rng.randrange(16), rng.randrange(16)
        cb = CnfBuilder()
        x, y = B.var("x", 4), B.var("y", 4)
        cb.assert_term(B.eq(x, B.const(a)))
        cb.assert_term(B.eq(y, B.const(b)))
        cb.assert_term(B.ult(x, y))
        model = solve_builder(cb)
        assert (model is not None) == (a < b)


def test_signed_comparison_uses_sign_bit():
    cb = CnfBuilder()
    x = B.var("x")
    cb.assert_term(B.eq(x, B.const(-5)))
    cb.assert_term(B.slt(x, B.const(0)))
    assert solve_builder(cb) is not None
    cb2 = CnfBuilder()
    cb2.assert_term(B.eq(B.var("x"), B.const(-5)))
    cb2.assert_term(B.ult(B.var("x"), B.const(0)))
    assert solve_builder(cb2) is None


def test_contradiction_flag_on_false_assertion():
    cb = CnfBuilder()
    cb.assert_term(B.FALSE)
    assert cb.contradiction


def test_bool_hole_as_width_one_variable():
    cb = CnfBuilder()
    p = B.eq(B.var("b", 1), B.const(1))
    cb.assert_term(p)
    model = solve_builder(cb)
    assert cb.model_value("b", model) == 1
