"""Term DAG tests: hash consing, folding, and evaluator correctness."""

from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_hash_consing_gives_identical_objects():
    x = B.var("x")
    assert B.add(x, B.const(1)) is B.add(x, B.const(1))
    # commutative ops are normalized by argument order
    assert B.add(x, B.const(1)) is B.add(B.const(1), x)


def test_constant_folding():
    assert B.add(B.const(2), B.const(3)) is B.const(5)
    assert B.is_true(B.slt(B.const(-1), B.const(0)))
    assert B.and_(B.TRUE, B.FALSE) is B.FALSE
    x = B.var("x")
    assert B.ite(B.TRUE, x, B.const(0)) is x
    assert B.and_(B.bvar("p"), B.TRUE) is B.bvar("p")


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
    assert B.evaluate(B.ule(x, y), env) is (to_u(a) <= to_u(b))


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.booleans(), st.booleans())
def test_connectives_match_oracle(p, q, r):
    env = {"p": p, "q": q, "r": r}
    P, Q, R = B.bvar("p"), B.bvar("q"), B.bvar("r")
    assert B.evaluate(B.and_(P, Q), env) is (p and q)
    assert B.evaluate(B.or_(P, Q), env) is (p or q)
    assert B.evaluate(B.not_(P), env) is (not p)
    assert B.evaluate(B.implies(P, Q), env) is ((not p) or q)
    assert B.evaluate(B.iff(P, Q), env) is (p == q)
    assert B.evaluate(B.conj([P, Q, R]), env) is (p and q and r)


@settings(max_examples=100, deadline=None)
@given(st.booleans(), ints, ints)
def test_ite_matches_oracle(c, a, b):
    env = {"c": c, "x": to_u(a), "y": to_u(b)}
    t = B.ite(B.bvar("c"), B.var("x"), B.var("y"))
    assert B.evaluate(t, env) == (to_u(a) if c else to_u(b))


def test_narrow_variables_mask_to_width():
    t = B.var("h", 3)
    assert B.evaluate(t, {"h": 0b101}) == 5
