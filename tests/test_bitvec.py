"""Term tests: folding and evaluator correctness."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bool_var
from sketchsynth import bitvec as B

MASK = B.MASK


def to_u(v):
    return v & MASK


def java_div(a, b):
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def java_rem(a, b):
    if b == 0:
        return 0
    return a - java_div(a, b) * b


def test_constant_folding():
    five = B.add(B.const(2), B.const(3))
    assert B.is_const(five) and B.const_value(five) == 5
    assert B.slt(B.const(-1), B.const(0)) is B.TRUE
    assert B.and_(B.TRUE, B.FALSE) is B.FALSE
    x = B.var("x")
    assert B.ite(B.TRUE, x, B.const(0)) is x
    p = bool_var("p")
    assert B.and_(p, B.TRUE) is p


def test_complement_folds_need_no_interning():
    p, q = bool_var("p"), bool_var("q")
    pq = B.and_(p, q)
    # a separately built not(p & q) is still recognized as the complement
    assert B.and_(pq, B.not_(pq)) is B.FALSE
    assert B.or_(B.not_(pq), pq) is B.TRUE
    assert B.and_(B.not_(p), p) is B.FALSE


def test_evaluate_deep_chain():
    t = B.var("x")
    for i in range(5000):
        t = B.add(t, B.const(i))
    assert B.evaluate(t, {"x": 7}) == 7 + sum(range(5000))


def test_signedness_helpers():
    assert B.to_signed(MASK) == -1
    assert B.to_unsigned(-1) == MASK
    assert B.const_value(B.const(-1)) == MASK


ints = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)


@settings(max_examples=200, deadline=None)
@given(ints, ints)
def test_arith_ops_match_twos_complement_oracle(a, b):
    env = {"x": to_u(a), "y": to_u(b)}
    x, y = B.var("x"), B.var("y")
    assert B.evaluate(B.add(x, y), env) == to_u(a + b)
    assert B.evaluate(B.sub(x, y), env) == to_u(a - b)
    assert B.evaluate(B.mul(x, y), env) == to_u(a * b)
    assert B.evaluate(B.neg(x), env) == to_u(-a)
    assert B.evaluate(B.sdiv(x, y), env) == to_u(java_div(a, b))
    assert B.evaluate(B.srem(x, y), env) == to_u(java_rem(a, b))


@settings(max_examples=200, deadline=None)
@given(ints, ints)
def test_comparisons_match_oracle(a, b):
    env = {"x": to_u(a), "y": to_u(b)}
    x, y = B.var("x"), B.var("y")
    assert B.evaluate(B.eq(x, y), env) is (a == b)
    assert B.evaluate(B.slt(x, y), env) is (a < b)
    assert B.evaluate(B.sle(x, y), env) is (a <= b)
    assert B.evaluate(B.ult(x, y), env) is (to_u(a) < to_u(b))
    assert B.evaluate(B.not_(B.ult(y, x)), env) is (to_u(a) <= to_u(b))


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.booleans(), st.booleans())
def test_connectives_match_oracle(p, q, r):
    env = {"p": p, "q": q, "r": r}
    P, Q, R = bool_var("p"), bool_var("q"), bool_var("r")
    assert B.evaluate(B.and_(P, Q), env) is (p and q)
    assert B.evaluate(B.or_(P, Q), env) is (p or q)
    assert B.evaluate(B.not_(P), env) is (not p)
    assert B.evaluate(B.implies(P, Q), env) is ((not p) or q)
    assert B.evaluate(B.iff(P, Q), env) is (p == q)
    assert B.evaluate(B.and_(B.and_(P, Q), R), env) is (p and q and r)


@settings(max_examples=100, deadline=None)
@given(st.booleans(), ints, ints)
def test_ite_matches_oracle(c, a, b):
    env = {"c": c, "x": to_u(a), "y": to_u(b)}
    t = B.ite(bool_var("c"), B.var("x"), B.var("y"))
    assert B.evaluate(t, env) == (to_u(a) if c else to_u(b))


def test_narrow_variables_mask_to_width():
    t = B.var("h", 3)
    assert B.evaluate(t, {"h": 0b101}) == 5
