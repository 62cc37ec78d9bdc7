"""Bit-blasting of bitvector/boolean terms to CNF.

A "bit" is a literal code, the one literal form from here to the solver
(``sat``): variable ``v`` has the codes ``2v`` (positive) and ``2v + 1``
(negative), so negation is ``code ^ 1``.  Variable 0 is reserved as
always true: ``TRUE`` is 0 and ``FALSE`` is 1, and a bit is constant
exactly when it is below 2.  Constant bits are propagated through every
gate before any clause is emitted, so a clause holds no constant and no
variable twice, and terms over mostly-constant words (the common case:
small holes zero-extended to 32 bits) produce compact CNF.

All structural sharing happens here, per builder; terms are not interned.
A term is blasted once per object.  One memo, keyed by op, holds every
gate ("and"/"or"/"xor" over literal codes), constant word and word
operation (over the identity of its operands' bit lists).  So a term built
twice, or with its operands swapped, costs no new variables or clauses.
Blasting walks the term with an explicit stack, and reads the deadline
once per ``CLOCK_CLAUSES`` clauses it emits.

Comparisons see through muxes.  An ``eq``, ``slt`` or ``ult`` with exactly
one ``ite`` operand (the tree; the other operand is ``z``) is blasted as
the tree's boolean muxes over its leaves' comparisons, ``cmp(ite(c, x, y),
z) = ite(c, cmp(x, z), cmp(y, z))``, and its word muxes are not blasted
(they still are wherever the tree has another use).  The lifted bit of
each tree node is memoized per builder on the node and the identity of
``z``'s bits, and each leaf comparison is a word operation of the one
memo: so ``state < num_state`` over every transition's state tree shares
one comparator per hole, and what the solver learns about it carries over.
Two guards bound the cost, and past them the word mux is blasted:

- only trees whose leaves are all ``var`` or ``const`` are lifted, so that
  their leaf comparisons are shared;
- at most ``W`` distinct ``z`` per builder, taken in postorder (inner
  comparisons first), so a tree node costs no more gates than the ``W``
  mux gates it replaces.
"""

from __future__ import annotations

from . import bitvec as B
from .errors import check_deadline

W = B.WIDTH
CLOCK_CLAUSES = 4096
_LIFTABLE = frozenset(("eq", "slt", "ult"))
TRUE, FALSE = 0, 1      # the codes of the reserved variable 0


class CnfBuilder:
    def __init__(self, deadline=None):
        self.nvars = 0          # variables 1..nvars; 0 is the constant
        self.clauses = []       # lists of literal codes; a solver that
                                # takes one owns it and reorders it
        self.deadline = deadline    # time.monotonic() value or None
        self._next_check = 0        # clause count that reads the deadline
        self.var_bits = {}      # term var name -> [bit] * width
        self._blasted = {}      # term -> bits list (bv) or single bit (bool)
        self._memo = {}         # (op, inputs) -> result; see the module doc
        self._plain = {}        # ite tree node -> its leaves are var/const
        self._ready = set()     # ite tree nodes whose conditions and
                                # leaves are blasted
        self._lifted = {}       # (op, flip, id(z bits)) -> {node: bit}
        self._targets = set()   # id(z bits) lifted against, at most W
        self.contradiction = False

    # -- raw CNF -----------------------------------------------------------

    def new_var(self):
        """The positive code of a fresh variable."""
        self.nvars += 1
        return 2 * self.nvars

    # -- gates (with constant/structural sharing) --------------------------

    def g_and(self, a, b):
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == b:
            return a
        if a == b ^ 1:
            return FALSE
        key = ("and", a, b) if a < b else ("and", b, a)
        o = self._memo.get(key)
        if o is None:
            o = self.new_var()
            self.clauses += ([o ^ 1, a], [o ^ 1, b], [o, a ^ 1, b ^ 1])
            self._memo[key] = o
        return o

    def g_or(self, a, b):
        if a == TRUE or b == TRUE:
            return TRUE
        if a == FALSE:
            return b
        if b == FALSE:
            return a
        if a == b:
            return a
        if a == b ^ 1:
            return TRUE
        key = ("or", a, b) if a < b else ("or", b, a)
        o = self._memo.get(key)
        if o is None:
            o = self.new_var()
            self.clauses += ([o, a ^ 1], [o, b ^ 1], [o ^ 1, a, b])
            self._memo[key] = o
        return o

    def g_xor(self, a, b):
        if a < 2:
            return b ^ a ^ 1        # TRUE flips b, FALSE keeps it
        if b < 2:
            return a ^ b ^ 1
        if a == b:
            return FALSE
        if a == b ^ 1:
            return TRUE
        neg = (a ^ b) & 1
        x, y = a & ~1, b & ~1
        key = ("xor", x, y) if x < y else ("xor", y, x)
        o = self._memo.get(key)
        if o is None:
            o = self.new_var()
            self.clauses += ([o ^ 1, x, y], [o ^ 1, x ^ 1, y ^ 1],
                             [o, x ^ 1, y], [o, x, y ^ 1])
            self._memo[key] = o
        return o ^ neg

    def g_ite(self, c, a, b):
        if c < 2:
            return a if c == TRUE else b
        if a == b:
            return a
        return self.g_or(self.g_and(c, a), self.g_and(c ^ 1, b))

    def full_adder(self, a, b, cin):
        s = self.g_xor(self.g_xor(a, b), cin)
        c = self.g_or(self.g_and(a, b), self.g_and(cin, self.g_xor(a, b)))
        return s, c

    # -- word-level helpers ------------------------------------------------

    def w_const(self, v, width=W):
        return [((v >> i) & 1) ^ 1 for i in range(width)]

    def w_add(self, xs, ys, cin=FALSE):
        out = []
        c = cin
        for a, b in zip(xs, ys):
            s, c = self.full_adder(a, b, c)
            out.append(s)
        return out

    def w_neg_bits(self, xs):
        return [b ^ 1 for b in xs]

    def w_sub(self, xs, ys):
        return self.w_add(xs, self.w_neg_bits(ys), cin=TRUE)

    def w_mul(self, xs, ys):
        n = len(xs)
        acc = [FALSE] * n
        for i, yi in enumerate(ys):
            if yi == FALSE:
                continue
            row = [FALSE] * i + [self.g_and(x, yi) for x in xs[: n - i]]
            acc = self.w_add(acc, row)
        return acc

    def w_eq(self, xs, ys):
        out = TRUE
        for a, b in zip(xs, ys):
            if a < 2 and b < 2:     # a constant pair adds no gate
                if a != b:
                    out = FALSE
                continue
            out = self.g_and(out, self.g_xor(a, b) ^ 1)
        return out

    def w_ult(self, xs, ys):
        # borrow chain: lt accumulates from LSB to MSB
        lt = FALSE
        for a, b in zip(xs, ys):
            if a < 2 and b < 2:     # a constant pair adds no gate
                if a != b:
                    lt = b
                continue
            a_eq_b = self.g_xor(a, b) ^ 1
            a_lt_b = self.g_and(a ^ 1, b)
            lt = self.g_or(a_lt_b, self.g_and(a_eq_b, lt))
        return lt

    def w_slt(self, xs, ys):
        # flip sign bits and compare unsigned
        xs2 = xs[:-1] + [xs[-1] ^ 1]
        ys2 = ys[:-1] + [ys[-1] ^ 1]
        return self.w_ult(xs2, ys2)

    def w_mux(self, c, xs, ys):
        return [self.g_ite(c, a, b) for a, b in zip(xs, ys)]

    def w_udiv_urem(self, xs, ys):
        """Restoring division; quotient/remainder unconstrained for ys == 0."""
        n = len(xs)
        yext = ys + [FALSE]                        # n+1-bit working width
        r = [FALSE] * (n + 1)
        q = [FALSE] * n
        for i in range(n - 1, -1, -1):
            r = [xs[i]] + r[:n]                    # shift left, bring down bit
            ge = self.w_ult(r, yext) ^ 1
            r = self.w_mux(ge, self.w_sub(r, yext), r)
            q[i] = ge
        return q, r[:n]

    def w_abs(self, xs):
        s = xs[-1]
        return self.w_mux(s, self.w_negate(xs), xs), s

    def w_negate(self, xs):
        return self.w_add(self.w_neg_bits(xs), self.w_const(0, len(xs)), cin=TRUE)

    # -- term blasting -----------------------------------------------------

    def blast(self, term):
        """Bool term -> bit; bitvector term -> list of W bits (LSB first),
        shared between terms: callers must not mutate it."""
        done = self._blasted
        ready = self._ready
        clauses = self.clauses
        # postorder, children left to right, each term once: a term on top
        # of the stack is blasted once none of its operands is pushed.  A
        # 1-tuple ``(node,)`` on the stack blasts the conditions and leaves
        # of the ``ite`` tree at ``node``, but not its muxes.
        stack = [term]
        push = stack.append
        while stack:
            t = stack[-1]
            if t.__class__ is tuple:
                node = t[0]
                if node in ready:
                    stack.pop()
                    continue
                c, x, y = node.args
                n = len(stack)
                for a in (y, x):
                    if a.op == "ite":
                        if a not in ready:
                            push((a,))
                    elif a not in done:
                        push(a)
                if c not in done:
                    push(c)
                if len(stack) == n:
                    stack.pop()
                    ready.add(node)
                continue
            if t in done:
                stack.pop()
                continue
            args = t.args
            r = None
            if t.op in _LIFTABLE and \
                    (args[0].op == "ite") != (args[1].op == "ite"):
                flip = args[1].op == "ite"      # the tree is on the right
                z, tree = args if flip else args[::-1]
                if self._plain_leaves(tree):
                    if z not in done:
                        push(z)
                        continue
                    if tree not in ready:
                        push((tree,))
                        continue
                    r = self._lift(t.op, tree, done[z], flip)
            if r is None:
                n = len(stack)
                for a in reversed(args):
                    if a not in done:
                        push(a)
                if len(stack) > n:
                    continue
                r = self._blast_node(t, [done[a] for a in args])
            stack.pop()
            done[t] = r
            if len(clauses) > self._next_check:
                check_deadline(self.deadline)
                self._next_check = len(clauses) + CLOCK_CLAUSES
        return done[term]

    def _lift(self, op, tree, zbits, flip):
        """``op(tree, z)`` (``op(z, tree)`` if ``flip``) as the boolean muxes
        of the ``ite`` tree over its leaves' comparisons with ``zbits``, or
        None once the target cap keeps the word mux.  The tree's conditions
        and leaves are blasted."""
        flip = flip and op != "eq"
        key = (op, flip, id(zbits))
        table = self._lifted.get(key)
        if table is None:
            targets = self._targets
            if id(zbits) not in targets:
                if len(targets) >= W:
                    return None
                targets.add(id(zbits))
            table = self._lifted[key] = {}
        done = self._blasted
        stack = [tree]
        while stack:
            t = stack[-1]
            if t in table:
                stack.pop()
            elif t.op != "ite":
                bits = done[t]
                table[t] = self._word(op, zbits, bits) if flip \
                    else self._word(op, bits, zbits)
                stack.pop()
            else:
                c, x, y = t.args
                n = len(stack)
                if y not in table:
                    stack.append(y)
                if x not in table:
                    stack.append(x)
                if len(stack) == n:
                    stack.pop()
                    table[t] = self.g_ite(done[c], table[x], table[y])
        return table[tree]

    def _plain_leaves(self, tree):
        """Whether every leaf of the ``ite`` tree is a var or a const."""
        plain = self._plain
        stack = [tree]
        while stack:
            t = stack[-1]
            if t in plain:
                stack.pop()
            elif t.op != "ite":
                plain[t] = t.op in ("var", "const")
                stack.pop()
            else:
                _, x, y = t.args
                n = len(stack)
                if y not in plain:
                    stack.append(y)
                if x not in plain:
                    stack.append(x)
                if len(stack) == n:
                    stack.pop()
                    plain[t] = plain[x] and plain[y]
        return plain[tree]

    def _blast_node(self, term, args):
        """Blast one term whose operands are already blasted to ``args``."""
        op = term.op
        if op == "bconst":
            return TRUE if term.payload else FALSE
        if op == "not":
            return args[0] ^ 1
        if op == "and":
            return self.g_and(args[0], args[1])
        if op == "or":
            return self.g_or(args[0], args[1])
        if op == "var":
            name, width = term.payload
            bits = self.var_bits.get(name)
            if bits is None:
                bits = [self.new_var() for _ in range(width)] + [FALSE] * (W - width)
                self.var_bits[name] = bits
            return bits
        if op == "ite":
            c, a, b = args
            if c < 2:
                return a if c == TRUE else b
            key = ("ite", c, id(a), id(b))
        elif op == "const":
            key = (op, term.payload)
        else:
            return self._word(op, args[0], args[1])
        r = self._memo.get(key)
        if r is None:
            r = self._memo[key] = self._blast_word(op, term.payload, args)
        return r

    def _word(self, op, a, b):
        """The word operation ``op`` on two blasted operands, memoized on
        their identities."""
        i, j = id(a), id(b)
        if op in ("add", "mul", "eq") and j < i:    # commutative
            i, j = j, i
        key = (op, i, j)
        r = self._memo.get(key)
        if r is None:
            r = self._memo[key] = self._blast_word(op, None, (a, b))
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
        if bit == FALSE:
            self.contradiction = True
        elif bit != TRUE:
            self.clauses.append([bit])


def bits_value(bits, model):
    """Unsigned integer value of blasted bits (LSB first) under a model
    (``sat.Solver.solve``'s, positive on every true literal code)."""
    v = 0
    for i, b in enumerate(bits):
        if model[b] > 0:
            v |= 1 << i
    return v
