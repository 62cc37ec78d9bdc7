"""Bit-blasting of bitvector/boolean terms to CNF.

A "bit" is either the Python constants True/False or a DIMACS-style literal
(positive/negative nonzero int).  Constant bits are propagated through every
gate before any clause is emitted, so a clause holds literals only, and
terms over mostly-constant words (the common case: small holes
zero-extended to 32 bits) produce compact CNF.

All structural sharing happens here, per builder; terms are not interned.
A term is blasted once per object.  One memo, keyed by op, holds every
gate ("and"/"or"/"xor" over literal values), constant word and word
operation (over the identity of its operands' bit lists).  So a term built
twice, or with its operands swapped, costs no new variables or clauses.  Blasting walks the term with an explicit stack.
"""

from __future__ import annotations

from . import bitvec as B

W = B.WIDTH


class CnfBuilder:
    def __init__(self):
        self.nvars = 0
        self.clauses = []
        self.var_bits = {}      # term var name -> [bit] * width
        self._blasted = {}      # term -> bits list (bv) or single bit (bool)
        self._memo = {}         # (op, inputs) -> result; see the module doc
        self.contradiction = False

    # -- raw CNF -----------------------------------------------------------

    def new_var(self):
        self.nvars += 1
        return self.nvars

    # -- gates (with constant/structural sharing) --------------------------

    def g_not(self, a):
        if isinstance(a, bool):
            return not a
        return -a

    def g_and(self, a, b):
        if a is False or b is False:
            return False
        if a is True:
            return b
        if b is True:
            return a
        if a == b:
            return a
        if a == -b:
            return False
        key = ("and", a, b) if a < b else ("and", b, a)
        o = self._memo.get(key)
        if o is None:
            o = self.new_var()
            self.clauses += ([-o, a], [-o, b], [o, -a, -b])
            self._memo[key] = o
        return o

    def g_or(self, a, b):
        if a is True or b is True:
            return True
        if a is False:
            return b
        if b is False:
            return a
        if a == b:
            return a
        if a == -b:
            return True
        key = ("or", a, b) if a < b else ("or", b, a)
        o = self._memo.get(key)
        if o is None:
            o = self.new_var()
            self.clauses += ([o, -a], [o, -b], [-o, a, b])
            self._memo[key] = o
        return o

    def g_xor(self, a, b):
        if isinstance(a, bool):
            return self.g_not(b) if a else b
        if isinstance(b, bool):
            return self.g_not(a) if b else a
        if a == b:
            return False
        if a == -b:
            return True
        neg = (a < 0) != (b < 0)
        x, y = abs(a), abs(b)
        key = ("xor", x, y) if x < y else ("xor", y, x)
        o = self._memo.get(key)
        if o is None:
            o = self.new_var()
            self.clauses += ([-o, x, y], [-o, -x, -y], [o, -x, y], [o, x, -y])
            self._memo[key] = o
        return -o if neg else o

    def g_ite(self, c, a, b):
        if isinstance(c, bool):
            return a if c else b
        if a == b:
            return a
        return self.g_or(self.g_and(c, a), self.g_and(self.g_not(c), b))

    def full_adder(self, a, b, cin):
        s = self.g_xor(self.g_xor(a, b), cin)
        c = self.g_or(self.g_and(a, b), self.g_and(cin, self.g_xor(a, b)))
        return s, c

    # -- word-level helpers ------------------------------------------------

    def w_const(self, v, width=W):
        return [bool((v >> i) & 1) for i in range(width)]

    def w_add(self, xs, ys, cin=False):
        out = []
        c = cin
        for a, b in zip(xs, ys):
            s, c = self.full_adder(a, b, c)
            out.append(s)
        return out

    def w_neg_bits(self, xs):
        return [self.g_not(b) for b in xs]

    def w_sub(self, xs, ys):
        return self.w_add(xs, self.w_neg_bits(ys), cin=True)

    def w_mul(self, xs, ys):
        n = len(xs)
        acc = [False] * n
        for i, yi in enumerate(ys):
            if yi is False:
                continue
            row = [False] * i + [self.g_and(x, yi) for x in xs[: n - i]]
            acc = self.w_add(acc, row)
        return acc

    def w_eq(self, xs, ys):
        out = True
        for a, b in zip(xs, ys):
            out = self.g_and(out, self.g_not(self.g_xor(a, b)))
        return out

    def w_ult(self, xs, ys):
        # borrow chain: lt accumulates from LSB to MSB
        lt = False
        for a, b in zip(xs, ys):
            a_eq_b = self.g_not(self.g_xor(a, b))
            a_lt_b = self.g_and(self.g_not(a), b)
            lt = self.g_or(a_lt_b, self.g_and(a_eq_b, lt))
        return lt

    def w_slt(self, xs, ys):
        # flip sign bits and compare unsigned
        xs2 = xs[:-1] + [self.g_not(xs[-1])]
        ys2 = ys[:-1] + [self.g_not(ys[-1])]
        return self.w_ult(xs2, ys2)

    def w_mux(self, c, xs, ys):
        return [self.g_ite(c, a, b) for a, b in zip(xs, ys)]

    def w_udiv_urem(self, xs, ys):
        """Restoring division; quotient/remainder unconstrained for ys == 0."""
        n = len(xs)
        ext = lambda bits: bits + [False]          # n+1-bit working width
        yext = ext(ys)
        r = [False] * (n + 1)
        q = [False] * n
        for i in range(n - 1, -1, -1):
            r = [xs[i]] + r[:n]                    # shift left, bring down bit
            ge = self.g_not(self.w_ult(r, yext))
            r = self.w_mux(ge, self.w_sub(r, yext), r)
            q[i] = ge
        return q, r[:n]

    def w_abs(self, xs):
        s = xs[-1]
        return self.w_mux(s, self.w_negate(xs), xs), s

    def w_negate(self, xs):
        return self.w_add(self.w_neg_bits(xs), self.w_const(0, len(xs)), cin=True)

    # -- term blasting -----------------------------------------------------

    def blast(self, term):
        """Bool term -> bit; bitvector term -> list of W bits (LSB first),
        shared between terms: callers must not mutate it."""
        done = self._blasted
        for t in B.postorder(term, done):
            done[t] = self._blast_node(t, [done[a] for a in t.args])
        return done[term]

    def _blast_node(self, term, args):
        """Blast one term whose operands are already blasted to ``args``."""
        op = term.op
        if op == "bconst":
            return term.payload
        if op == "not":
            return self.g_not(args[0])
        if op == "and":
            return self.g_and(args[0], args[1])
        if op == "or":
            return self.g_or(args[0], args[1])
        if op == "var":
            name, width = term.payload
            bits = self.var_bits.get(name)
            if bits is None:
                bits = [self.new_var() for _ in range(width)] + [False] * (W - width)
                self.var_bits[name] = bits
            return bits
        if op == "ite":
            c, a, b = args
            if isinstance(c, bool):
                return a if c else b
            # c is a literal here, never True/False, so it keys by value
            key = ("ite", c, id(a), id(b))
        elif op == "const":
            key = (op, term.payload)
        else:
            i, j = id(args[0]), id(args[1])
            if op in ("add", "mul", "eq") and j < i:    # commutative
                i, j = j, i
            key = (op, i, j)
        r = self._memo.get(key)
        if r is None:
            r = self._memo[key] = self._blast_word(op, term.payload, args)
        return r

    def _blast_word(self, op, payload, args):
        if op == "const":
            return self.w_const(payload)
        if op == "ite":
            return self.w_mux(*args)
        a, b = args
        if op in ("sdiv", "srem"):
            aa, sa = self.w_abs(a)
            bb, sb = self.w_abs(b)
            q, rem = self.w_udiv_urem(aa, bb)
            if op == "sdiv":
                return self.w_mux(self.g_xor(sa, sb), self.w_negate(q), q)
            return self.w_mux(sa, self.w_negate(rem), rem)
        word = {"add": self.w_add, "sub": self.w_sub, "mul": self.w_mul,
                "eq": self.w_eq, "ult": self.w_ult, "slt": self.w_slt}
        return word[op](a, b)

    def assert_term(self, term):
        """Add ``term`` as a hard constraint."""
        bit = self.blast(term)
        if bit is False:
            self.contradiction = True
        elif bit is not True:
            self.clauses.append([bit])

    def model_value(self, name, model):
        """Integer value of a bitvector variable under a SAT model."""
        return bits_value(self.var_bits.get(name, ()), model)


def lit_true(bit, model):
    """Whether a bit holds under a SAT model (the set of true variables)."""
    if isinstance(bit, bool):
        return bit
    return bit in model if bit > 0 else -bit not in model


def bits_value(bits, model):
    """Unsigned integer value of blasted bits (LSB first) under a model."""
    v = 0
    for i, b in enumerate(bits):
        if lit_true(b, model):
            v |= 1 << i
    return v
