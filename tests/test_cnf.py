"""Bit-blaster tests: CNF circuits agree with the term evaluator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bool_var, run_front_end
from sketchsynth import bitvec as B
from sketchsynth import engine, sat
from sketchsynth.cnf import FALSE, TRUE, W, CnfBuilder, bits_value
from test_engine import search_counters


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
    return bits_value(cb.var_bits["z"], model)


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
    assert bits_value(cb.var_bits["b"], model) == 1


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


def _trees(leaves):
    """``ite`` trees over ``leaves`` and the bool variables p, q and r."""
    conds = st.sampled_from([bool_var("p"), bool_var("q"),
                             B.not_(bool_var("r"))])
    return st.recursive(leaves, lambda sub: st.builds(B.ite, conds, sub, sub),
                        max_leaves=4)


_PLAIN = st.one_of(st.builds(B.var, st.sampled_from("xy"), st.just(2)),
                   st.builds(B.const, st.sampled_from([-1, 0, 2, 3])))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([B.eq, B.slt, B.ult]),
       _trees(_PLAIN).filter(lambda t: t.op == "ite"), _PLAIN, st.booleans())
def test_lifted_comparison_agrees_with_evaluate(op, tree, z, flip):
    """A comparison with one ``ite`` operand over var/const leaves is lifted
    over the tree (its word mux is not blasted), and its bit has the
    evaluator's value under every assignment of the inputs."""
    term = op(z, tree) if flip else op(tree, z)
    cb = CnfBuilder()
    bit = cb.blast(term)
    assert tree not in cb._blasted
    s = sat.Solver()
    s.ensure_vars(cb.nvars)
    s.add_clauses(cb.clauses)
    inputs = {"x": 2, "y": 2, "p": 1, "q": 1, "r": 1}
    for value in range(1 << 7):
        env, assumptions, shift = {}, [], 0
        for name, width in inputs.items():
            env[name] = (value >> shift) & ((1 << width) - 1)
            shift += width
            bits = cb.var_bits.get(name, ())
            assumptions += [b ^ (((env[name] >> i) & 1) ^ 1)
                            for i, b in enumerate(bits) if b > 1]
        model = s.solve(assumptions=assumptions)
        got = bit == TRUE if bit < 2 else model[bit] > 0
        assert got == B.evaluate(term, env), env


def test_lift_leaf_guard_keeps_the_word_mux():
    """The leaf guard: a tree with a leaf other than a var or a const is
    blasted as a word mux, as is the tree a comparison shares with no
    other ``ite``-free operand."""
    cb = CnfBuilder()
    tree = B.ite(bool_var("p"), B.add(B.var("x"), B.const(3)), B.var("y"))
    cb.blast(B.eq(tree, B.var("z")))
    assert tree in cb._blasted
    both = B.ite(bool_var("q"), B.var("x"), B.var("y"))
    cb.blast(B.slt(both, B.ite(bool_var("r"), B.var("y"), B.var("z"))))
    assert both in cb._blasted


def test_lift_target_cap_keeps_the_word_mux():
    """The target cap: a tree is lifted against at most ``W`` distinct
    other operands per builder; past that, its word mux is blasted."""
    cb = CnfBuilder()
    tree = B.ite(bool_var("p"), B.var("x", 4), B.var("y", 4))
    for k in range(W):
        cb.blast(B.eq(tree, B.const(k)))
    assert tree not in cb._blasted
    cb.blast(B.ult(tree, B.const(0)))       # a target seen before
    assert tree not in cb._blasted
    cb.blast(B.eq(tree, B.const(W)))
    assert tree in cb._blasted


def test_lifted_comparison_over_a_deep_chain_blasts_without_recursion():
    t = B.var("x", 2)
    for i in range(10_000):
        t = B.ite(bool_var(f"p{i}"), B.const(i % 4), t)
    cb = CnfBuilder()
    cb.assert_term(B.eq(t, B.var("z", 2)))
    assert t not in cb._blasted
    last = cb.blast(bool_var("p9999"))      # selects the leaf 9999 % 4
    assert bits_value(cb.var_bits["z"], solve_builder(cb, [last])) == 3
    assert solve_builder(cb, [last, cb.var_bits["z"][1] ^ 1]) is None


# a loop whose every iteration compares the state with a new constant:
# summed (vars, clauses) with the lift, and without it (the word muxes)
WRITE_LOOP = ("class A { harness static void t() { int s = ??; int i = 0; "
              "while (i < 400) { if (s == i) { s = WRITE; } i = i + 1; } "
              "assert s == 401; } }")
LIFT_SIZES = {"s + 3": ((74307, 235019), (74307, 235019)),
              "??": ((15726, 47125), (14026, 42025))}


@pytest.mark.parametrize("write", LIFT_SIZES)
def test_lift_guards_bound_the_encoding_size(write):
    """Sketch A (``s = s + 3``) has an arithmetic leaf, so the leaf guard
    keeps its word muxes; in sketch B (``s = ??``) the target cap lifts
    only the 32 innermost comparisons.  Both stay within 1.25 times the
    word-mux encoding's size."""
    prog = run_front_end(texts=[("A.java", WRITE_LOOP.replace("WRITE", write))])[3]
    got = search_counters(prog, engine.EngineConfig(loop_bound=500,
                                                    hole_bits=9))[4:]
    lifted, words = LIFT_SIZES[write]
    assert got == lifted
    assert all(n <= 1.25 * m for n, m in zip(got, words))
