"""32-bit bitvector and boolean terms with constant folding.

Terms are plain immutable values: building the same term twice gives two
objects.  Structural sharing is left to the consumer that needs it, the
per-solve bit-blaster (``cnf.CnfBuilder``), so no state outlives a solve.
Arithmetic follows 32-bit two's-complement wraparound; division truncates
toward zero.
"""

from __future__ import annotations

WIDTH = 32
MASK = (1 << WIDTH) - 1
SIGN_BIT = 1 << (WIDTH - 1)


class Term:
    __slots__ = ("op", "args", "payload", "is_bool")

    def __init__(self, op, args=(), payload=None, is_bool=False):
        self.op = op
        self.args = args
        self.payload = payload
        self.is_bool = is_bool

    def __repr__(self):
        if self.op in ("const", "bconst", "var"):
            return f"{self.op}({self.payload})"
        return f"{self.op}({', '.join(map(repr, self.args))})"


def postorder(term, done):
    """Yield the terms under ``term`` that are not in ``done``, children
    before parents and left to right, each once.  The caller must add each
    yielded term to ``done`` before asking for the next.  The walk keeps
    its own stack, so term depth is not bounded by Python's recursion
    limit."""
    stack = [term]
    while stack:
        t = stack[-1]
        if t in done:
            stack.pop()
            continue
        pending = [a for a in t.args if a not in done]
        if pending:
            stack.extend(reversed(pending))
        else:
            stack.pop()
            yield t


def to_signed(u):
    return u - (1 << WIDTH) if u & SIGN_BIT else u


def to_unsigned(v):
    return v & MASK


# -- leaves ----------------------------------------------------------------


def const(v):
    return Term("const", payload=v & MASK)


def var(name, width=WIDTH):
    """Fresh-by-name variable; bits at and above ``width`` are zero."""
    return Term("var", payload=(name, width))


TRUE = Term("bconst", payload=True, is_bool=True)
FALSE = Term("bconst", payload=False, is_bool=True)


def bconst(v):
    return TRUE if v else FALSE


def is_const(t):
    return t.op == "const"


def is_true(t):
    return t is TRUE


def is_false(t):
    return t is FALSE


def const_value(t):
    assert t.op in ("const", "bconst")
    return t.payload


# -- bitvector arithmetic --------------------------------------------------


def add(a, b):
    if a.op == "const" and b.op == "const":
        return const(a.payload + b.payload)
    if a.op == "const" and a.payload == 0:
        return b
    if b.op == "const" and b.payload == 0:
        return a
    return Term("add", (a, b))


def sub(a, b):
    if a.op == "const" and b.op == "const":
        return const(a.payload - b.payload)
    if b.op == "const" and b.payload == 0:
        return a
    if a is b:
        return const(0)
    return Term("sub", (a, b))


def neg(a):
    return sub(const(0), a)


def mul(a, b):
    if a.op == "const" and b.op == "const":
        return const(a.payload * b.payload)
    for x, y in ((a, b), (b, a)):
        if x.op == "const":
            if x.payload == 0:
                return const(0)
            if x.payload == 1:
                return y
    return Term("mul", (a, b))


def sdiv(a, b):
    """Java-style truncating division; behavior for b == 0 is unconstrained
    (the interpreter guards division by zero separately)."""
    if a.op == "const" and b.op == "const" and b.payload != 0:
        sa, sb = to_signed(a.payload), to_signed(b.payload)
        q = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        return const(q)
    if b.op == "const" and b.payload == 1:
        return a
    return Term("sdiv", (a, b))


def srem(a, b):
    if a.op == "const" and b.op == "const" and b.payload != 0:
        sa, sb = to_signed(a.payload), to_signed(b.payload)
        r = abs(sa) % abs(sb)
        if sa < 0:
            r = -r
        return const(r)
    return Term("srem", (a, b))


def ite(c, a, b):
    if c.op == "bconst":
        return a if c.payload else b
    if a is b:
        return a
    if a.is_bool:
        return or_(and_(c, a), and_(not_(c), b))
    return Term("ite", (c, a, b))


# -- comparisons -----------------------------------------------------------


def eq(a, b):
    if a is b:
        return TRUE
    if a.is_bool:
        return iff(a, b)
    if a.op == "const" and b.op == "const":
        return bconst(a.payload == b.payload)
    return Term("eq", (a, b), is_bool=True)


def ne(a, b):
    return not_(eq(a, b))


def slt(a, b):
    if a is b:
        return FALSE
    if a.op == "const" and b.op == "const":
        return bconst(to_signed(a.payload) < to_signed(b.payload))
    return Term("slt", (a, b), is_bool=True)


def sle(a, b):
    if a is b:
        return TRUE
    return not_(slt(b, a))


def ult(a, b):
    if a is b:
        return FALSE
    if a.op == "const" and b.op == "const":
        return bconst(a.payload < b.payload)
    return Term("ult", (a, b), is_bool=True)


# -- boolean connectives ---------------------------------------------------


def not_(a):
    if a.op == "bconst":
        return bconst(not a.payload)
    if a.op == "not":
        return a.args[0]
    return Term("not", (a,), is_bool=True)


def _negates(a, b):
    """Whether one argument is ``not`` of the other."""
    return (a.op == "not" and a.args[0] is b) or \
        (b.op == "not" and b.args[0] is a)


def and_(a, b):
    if a.op == "bconst":
        return b if a.payload else FALSE
    if b.op == "bconst":
        return a if b.payload else FALSE
    if a is b:
        return a
    if _negates(a, b):
        return FALSE
    return Term("and", (a, b), is_bool=True)


def or_(a, b):
    if a.op == "bconst":
        return TRUE if a.payload else b
    if b.op == "bconst":
        return TRUE if b.payload else a
    if a is b:
        return a
    if _negates(a, b):
        return TRUE
    return Term("or", (a, b), is_bool=True)


def implies(a, b):
    return or_(not_(a), b)


def iff(a, b):
    if a is b:
        return TRUE
    if a.op == "bconst":
        return b if a.payload else not_(b)
    if b.op == "bconst":
        return a if b.payload else not_(a)
    return and_(implies(a, b), implies(b, a))


# -- evaluation under a concrete assignment --------------------------------


def evaluate(term, env):
    """Evaluate a term given ``env`` mapping variable names to ints.

    Variables absent from ``env`` default to 0.  This is the reference
    semantics of terms that the tests hold folding and blasting to; the
    pipeline itself never evaluates a term.
    """
    value = {}
    for t in postorder(term, value):
        op = t.op
        if op in ("const", "bconst"):
            r = t.payload
        elif op == "var":
            r = int(env.get(t.payload[0], 0)) & MASK
        elif op == "not":
            r = not value[t.args[0]]
        elif op == "ite":
            c, a, b = (value[x] for x in t.args)
            r = a if c else b
        else:
            a, b = value[t.args[0]], value[t.args[1]]
            if op == "and":
                r = a and b
            elif op == "or":
                r = a or b
            elif op == "add":
                r = (a + b) & MASK
            elif op == "sub":
                r = (a - b) & MASK
            elif op == "mul":
                r = (a * b) & MASK
            elif op == "sdiv":
                sa, sb = to_signed(a), to_signed(b)
                if sb == 0:
                    r = 0
                else:
                    q = abs(sa) // abs(sb)
                    r = to_unsigned(-q if (sa < 0) != (sb < 0) else q)
            elif op == "srem":
                sa, sb = to_signed(a), to_signed(b)
                if sb == 0:
                    r = 0
                else:
                    m = abs(sa) % abs(sb)
                    r = to_unsigned(-m if sa < 0 else m)
            elif op == "eq":
                r = a == b
            elif op == "slt":
                r = to_signed(a) < to_signed(b)
            elif op == "ult":
                r = a < b
            else:
                raise AssertionError(f"unknown op {op}")
        value[t] = r
    return value[term]
