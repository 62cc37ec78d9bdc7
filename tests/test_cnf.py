"""Bit-blaster tests: CNF circuits agree with the term evaluator."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bool_var
from sketchsynth import bitvec as B
from sketchsynth import sat
from sketchsynth.cnf import FALSE, TRUE, CnfBuilder


def solve_builder(cb, assumptions=()):
    s = sat.Solver()
    s.ensure_vars(cb.nvars)
    s.add_clauses(cb.clauses)
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


def test_separately_built_terms_share_their_circuit():
    cb = CnfBuilder()
    x = B.var("x")
    first = cb.blast(B.add(x, B.const(1)))
    size = cb.nvars, len(cb.clauses)
    assert cb.blast(B.add(B.var("x"), B.const(1))) is first
    assert cb.blast(B.add(B.const(1), B.var("x"))) is first
    assert (cb.nvars, len(cb.clauses)) == size
    # a product built with its operands swapped reuses the same circuit
    cb.blast(B.mul(B.var("x"), B.var("y")))
    size = cb.nvars, len(cb.clauses)
    cb.blast(B.mul(B.var("y"), B.var("x")))
    assert (cb.nvars, len(cb.clauses)) == size


def test_constant_true_is_not_shared_with_literal_one():
    cb = CnfBuilder()
    p = bool_var("p")
    # variable 0 is the constant, so the first variable's codes are 2 and 3
    assert cb.blast(p) == 2
    assert cb.blast(B.not_(p)) == 3
    # x == x over two separate objects blasts to TRUE, so its negation is
    # FALSE, not the negation of the first variable
    cb.assert_term(B.not_(B.eq(B.var("a"), B.var("a"))))
    assert cb.contradiction
    assert [3] not in cb.clauses and [FALSE] not in cb.clauses
    # likewise a select on x == x is x, not the select on p blasted before
    cb.blast(B.ite(p, B.var("x"), B.var("y")))
    same = B.eq(B.var("a"), B.var("a"))
    assert cb.blast(B.ite(same, B.var("x"), B.var("y"))) is cb.var_bits["x"]


def test_select_between_constant_true_and_literal_one_is_no_constant():
    # the constants' codes belong to no variable, so a select between a
    # constant and a variable is a new variable
    cb = CnfBuilder()
    one = cb.new_var()
    c = cb.new_var()
    assert cb.g_ite(c, TRUE, one) > 1
    assert cb.g_ite(c, FALSE, one ^ 1) > 1
    # a select between one value on both sides is that value
    assert cb.g_ite(c, one, one) == one and cb.g_ite(c, TRUE, TRUE) == TRUE


def test_deep_term_blasts_without_recursion():
    t = bool_var("p0")
    for i in range(1, 5000):
        t = B.and_(t, bool_var(f"p{i}"))
    cb = CnfBuilder()
    cb.assert_term(t)
    model = solve_builder(cb, [cb.blast(bool_var("p0")) ^ 1])
    assert model is None
    assert solve_builder(cb) is not None


def _rel(words):
    return st.builds(lambda f, a, b: f(a, b),
                     st.sampled_from([B.eq, B.ult, B.slt]), words, words)


def _terms():
    """32-bit terms over narrow variables (zero-extended, so their high
    bits are constants) and small constants, with every word operation
    the blaster has."""
    leaves = st.one_of(
        st.builds(B.var, st.sampled_from("xyz"), st.sampled_from([1, 3, 6])),
        st.builds(B.const, st.integers(-4, 4)))
    ops = [B.add, B.sub, B.mul, B.sdiv, B.srem]
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(lambda f, a, b: f(a, b), st.sampled_from(ops), sub, sub),
        st.builds(B.ite, _rel(leaves), sub, sub)), max_leaves=4)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.recursive(_rel(_terms()), lambda sub: st.one_of(
    st.builds(B.not_, sub), st.builds(B.and_, sub, sub),
    st.builds(B.or_, sub, sub)), max_leaves=3), min_size=1, max_size=3))
def test_no_clause_repeats_a_variable(constraints):
    """The solver takes clauses as they are (``Solver.add_clauses``), so
    none may hold a variable twice, nor the constant."""
    cb = CnfBuilder()
    for c in constraints:
        cb.assert_term(c)
    for cl in cb.clauses:
        assert len({lit >> 1 for lit in cl}) == len(cl) and min(cl) > 1, cl
