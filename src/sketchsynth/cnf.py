"""Bit-blasting of bitvector/boolean terms to CNF.

A "bit" is either the Python constants True/False or a DIMACS-style literal
(positive/negative nonzero int).  Constant bits are propagated through every
gate before any clause is emitted, so terms over mostly-constant words (the
common case: small holes zero-extended to 32 bits) produce compact CNF.
"""

from __future__ import annotations

from . import bitvec as B

W = B.WIDTH


class CnfBuilder:
    def __init__(self):
        self.nvars = 0
        self.clauses = []
        self.var_bits = {}      # term var name -> [bit] * width
        self.bool_vars = {}     # term bvar name -> literal
        self._bits = {}         # term tid -> bits list (bv) or single bit (bool)
        self._and_cache = {}
        self._or_cache = {}
        self._xor_cache = {}
        self.contradiction = False

    # -- raw CNF -----------------------------------------------------------

    def new_var(self):
        self.nvars += 1
        return self.nvars

    def add_clause(self, lits):
        out = []
        for l in lits:
            if l is True:
                return
            if l is False:
                continue
            out.append(l)
        if not out:
            self.contradiction = True
            return
        self.clauses.append(out)

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
        key = (a, b) if a < b else (b, a)
        o = self._and_cache.get(key)
        if o is None:
            o = self.new_var()
            self.add_clause([-o, a])
            self.add_clause([-o, b])
            self.add_clause([o, -a, -b])
            self._and_cache[key] = o
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
        key = (a, b) if a < b else (b, a)
        o = self._or_cache.get(key)
        if o is None:
            o = self.new_var()
            self.add_clause([o, -a])
            self.add_clause([o, -b])
            self.add_clause([-o, a, b])
            self._or_cache[key] = o
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
        ck = (min(abs(a), abs(b)), max(abs(a), abs(b)))
        o = self._xor_cache.get(ck)
        if o is None:
            x, y = ck
            o = self.new_var()
            self.add_clause([-o, x, y])
            self.add_clause([-o, -x, -y])
            self.add_clause([o, -x, y])
            self.add_clause([o, x, -y])
            self._xor_cache[ck] = o
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
        """Bool term -> bit; bitvector term -> list of W bits (LSB first)."""
        hit = self._bits.get(term.tid)
        if hit is not None:
            return hit
        op = term.op
        if op == "const":
            r = self.w_const(term.payload)
        elif op == "bconst":
            r = term.payload
        elif op == "var":
            name, width = term.payload
            bits = self.var_bits.get(name)
            if bits is None:
                bits = [self.new_var() for _ in range(width)] + [False] * (W - width)
                self.var_bits[name] = bits
            r = bits
        elif op == "bvar":
            lit = self.bool_vars.get(term.payload)
            if lit is None:
                lit = self.new_var()
                self.bool_vars[term.payload] = lit
            r = lit
        elif op == "ite":
            c = self.blast(term.args[0])
            r = self.w_mux(c, self.blast(term.args[1]), self.blast(term.args[2]))
        elif op == "not":
            r = self.g_not(self.blast(term.args[0]))
        elif op == "and":
            r = self.g_and(self.blast(term.args[0]), self.blast(term.args[1]))
        elif op == "or":
            r = self.g_or(self.blast(term.args[0]), self.blast(term.args[1]))
        else:
            a = self.blast(term.args[0])
            b = self.blast(term.args[1])
            if op == "add":
                r = self.w_add(a, b)
            elif op == "sub":
                r = self.w_sub(a, b)
            elif op == "mul":
                r = self.w_mul(a, b)
            elif op == "eq":
                r = self.w_eq(a, b)
            elif op == "ult":
                r = self.w_ult(a, b)
            elif op == "slt":
                r = self.w_slt(a, b)
            elif op in ("sdiv", "srem"):
                aa, sa = self.w_abs(a)
                bb, sb = self.w_abs(b)
                q, rem = self.w_udiv_urem(aa, bb)
                if op == "sdiv":
                    qs = self.g_xor(sa, sb)
                    r = self.w_mux(qs, self.w_negate(q), q)
                else:
                    r = self.w_mux(sa, self.w_negate(rem), rem)
            else:
                raise AssertionError(f"unknown op {op}")
        self._bits[term.tid] = r
        return r

    def assert_term(self, term):
        """Add ``term`` as a hard constraint."""
        bit = self.blast(term)
        if bit is False:
            self.contradiction = True
        elif bit is not True:
            self.add_clause([bit])

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
