"""Guarded interpreter over the flat IR.

One evaluator serves both phases of synthesis:

* encoding: unknowns are bitvector variables, branch conditions become path
  guards, writes under a guard ``g`` become ``ite(g, new, old)`` muxes, and
  assertions/traps accumulate as boolean constraints over the unknowns;
* replay: unknowns are constants, every term folds, and a failed constraint
  raises :class:`HarnessFailure` on the spot.

Dispatch: ``eval`` (per expression) and ``exec_block`` (per instruction)
each take one step and then call the handler that ``_EVAL`` or ``_EXEC``
holds for the node's exact class.  Both tables are built once, when the
module is imported, and never written again; no IR node carries code of
its own.

Guards: path guards are Bool terms, and most of them are the constant
``TRUE``.  The guard algebra is skipped where its result is known: a block
runs under its caller's guard as is until its frame has returned on some
path, a write under ``TRUE`` replaces the old value without a mux, and a
plain (non-mux) reference needs no null check or case split.  Each
shortcut gives the very value the general rule would build, so the
constraints are the same either way.

Object references stay concrete (allocation is unconditional); a reference
that depends on unknowns is a :class:`RefMux`, an exhaustive guarded case
split over concrete records.  A virtual call runs, for each case, the
override that the class table's vtable names for that record's class, and
muxes the results.

Calls nest at most ``MAX_CALL_DEPTH`` deep.  Like the step limit, the bound
is a resource limit: overrunning it leaves the current run undecided
rather than failing the candidate.
"""

from __future__ import annotations

from . import bitvec as B
from . import ir as I
from . import typetags as T
from .errors import EncodingError, InternalError
from .stdlib import BuiltinTrap

TRUE, FALSE = B.TRUE, B.FALSE

# A call nests 9 Python frames in the usual shape (a call in a binary
# operator in a return in an if) and a level of expression nesting 2.  So
# MAX_CALL_DEPTH calls with an expression ``parser.MAX_NESTING`` deep below
# them take 40 * 9 + 160 * 2 = 680 frames.  That leaves room under Python's
# default recursion limit of 1000 for the CLI or a test runner underneath
# and for calls made from deeper inside their statements.
MAX_CALL_DEPTH = 40


class HarnessFailure(Exception):
    """A constraint is false regardless of the unknowns (or, during replay,
    false for the candidate under test)."""

    def __init__(self, reason, span=None):
        super().__init__(reason)
        self.reason = reason
        self.span = span


class ResourceLimit(Exception):
    """A run needs more of a bounded resource than it may use, so it
    cannot tell whether the candidate passes."""


class StepLimitExceeded(ResourceLimit):
    def __init__(self, limit):
        super().__init__(f"step limit of {limit} exceeded")


class CallDepthExceeded(ResourceLimit):
    def __init__(self):
        super().__init__(f"call depth limit of {MAX_CALL_DEPTH} exceeded")


class ObjRecord:
    __slots__ = ("class_id", "class_name", "fields", "payload")

    def __init__(self, class_id, class_name, payload=None):
        self.class_id = class_id
        self.class_name = class_name
        self.fields = {}
        self.payload = payload

    def __repr__(self):
        return f"<{self.class_name}#{id(self) & 0xffff:x}>"


class RefMux:
    """Exhaustive guarded choice between concrete references (or null)."""

    __slots__ = ("cases",)

    def __init__(self, cases):
        self.cases = cases      # [(guard Bool term, ObjRecord | None)]

    def __repr__(self):
        return f"RefMux({self.cases!r})"


def _as_cases(v):
    if type(v) is RefMux:
        return v.cases
    return ((TRUE, v),)


def _merge_refs(g, new, old):
    cases = []
    seen = {}
    for cg, ref in _as_cases(new):
        gg = B.and_(g, cg)
        if gg is not FALSE:
            _add_case(cases, seen, gg, ref)
    ng = B.not_(g)
    for cg, ref in _as_cases(old):
        gg = B.and_(ng, cg)
        if gg is not FALSE:
            _add_case(cases, seen, gg, ref)
    if len(cases) == 1:
        return cases[0][1]
    return RefMux(cases)


def _add_case(cases, seen, g, ref):
    key = id(ref)
    if key in seen:
        i = seen[key]
        cases[i] = (B.or_(cases[i][0], g), ref)
    else:
        seen[key] = len(cases)
        cases.append((g, ref))


def mux_value(g, new, old):
    """Value of a guarded write: ``new`` when ``g`` holds, else ``old``."""
    if g is TRUE:
        return new
    if g is FALSE:
        return old
    if new is old and type(new) is not RefMux:
        return new          # what ``ite`` or a reference merge gives
    if isinstance(new, B.Term) and isinstance(old, B.Term):
        return B.ite(g, new, old)
    if isinstance(new, str) or isinstance(old, str):
        if new == old:
            return new
        raise EncodingError(
            "cannot choose between distinct string values under a symbolic "
            "condition")
    if _is_ref(new) and _is_ref(old):
        return _merge_refs(g, new, old)
    raise InternalError(f"cannot merge values {new!r} and {old!r}")


def _is_ref(v):
    return v is None or isinstance(v, (ObjRecord, RefMux))


def _value(kind, payload):
    """A constant of type ``kind`` (a ``TypeTag.kind``) as the interpreter
    holds it, from the payload an IR ``Const`` holds."""
    if kind == "int" or kind == "char":
        return B.const(payload)
    if kind == "boolean":
        return B.bconst(payload)
    return payload       # a String, or null


def default_value(tag):
    """The value of a ``tag``-typed slot before its first write; None for
    no tag and for void."""
    return None if tag is None else _value(tag.kind, T.default(tag))


# -- unknown providers -----------------------------------------------------


class SymbolicUnknowns:
    """Bitvector variables for every unknown instance."""

    def __init__(self, hole_width):
        self.hole_width = hole_width

    def hole(self, uid, iteration):
        name = uid.instance_name(iteration)
        if uid.is_bool:
            return B.eq(B.var(name, 1), B.const(1))
        return B.var(name, self.hole_width)

    def choice(self, uid, iteration):
        return B.var(uid.instance_name(iteration), uid.bit_width)


class ConcreteUnknowns:
    """Fixed values (a candidate being replayed)."""

    def __init__(self, values):
        self.values = values        # instance name -> int

    def _get(self, uid, iteration):
        name = uid.instance_name(iteration)
        if name not in self.values:
            raise InternalError(f"no value for unknown '{name}'")
        return self.values[name]

    def hole(self, uid, iteration):
        v = self._get(uid, iteration)
        if uid.is_bool:
            return B.bconst(bool(v))
        return B.const(v)

    def choice(self, uid, iteration):
        return B.const(self._get(uid, iteration))


# -- interpreter -----------------------------------------------------------


class _Frame:
    __slots__ = ("locals", "retval", "returned")

    def __init__(self, locals, retval):
        self.locals = locals
        self.retval = retval
        self.returned = FALSE     # Bool term: the paths that have returned


class Interp:
    def __init__(self, program, unknowns, repeat_counts,
                 loop_bound=64, step_limit=2_000_000):
        self.program = program
        self.table = program.table
        self.unknowns = unknowns
        self.repeat_counts = repeat_counts   # repeat name -> count
        self.loop_bound = loop_bound
        self.step_limit = step_limit
        self.steps = 0
        self.depth = 0                       # calls now running
        self.constraints = []
        self.statics = {}
        self.rep_iter = {}                   # repeat name -> current iteration

    # -- bookkeeping -------------------------------------------------------

    def constrain(self, term, reason, span=None):
        if term is TRUE:
            return
        if term is FALSE:
            raise HarnessFailure(reason, span)
        self.constraints.append(term)

    def alloc_builtin(self, cls_name, payload):
        return ObjRecord(self.table.id_of(cls_name), cls_name, payload)

    # -- entry points ------------------------------------------------------

    def init_statics(self):
        for owner, name, tag in self.table.static_fields:
            self.statics[(owner, name)] = default_value(tag)
        self.call_function(self.program.static_init, [], TRUE)

    def run_harness(self, name):
        self.init_statics()
        self.call_function(name, [], TRUE)

    def eval_objective(self, expr):
        return self.eval(expr, _Frame({}, None), TRUE)

    # -- functions ---------------------------------------------------------

    def call_function(self, name, args, guard):
        """Run function ``name`` on the paths ``guard`` holds on; one step.
        An exception ends the whole run, so ``depth`` need not unwind."""
        fn = self.program.functions.get(name)
        if fn is None:
            raise InternalError(f"undefined function '{name}'")
        if len(args) != len(fn.params):
            raise InternalError(f"arity mismatch calling '{name}'")
        self.steps += 1
        if self.steps > self.step_limit:
            raise StepLimitExceeded(self.step_limit)
        if self.depth == MAX_CALL_DEPTH:
            raise CallDepthExceeded()
        self.depth += 1
        frame = _Frame(dict(zip(fn.params, args)), default_value(fn.ret_tag))
        self.exec_block(fn.body, frame, guard)
        self.depth -= 1
        return frame.retval

    # -- statements --------------------------------------------------------

    def exec_block(self, instrs, frame, guard):
        """Run ``instrs`` on the paths ``guard`` holds on and the frame has
        not returned on; one step per instruction."""
        for instr in instrs:
            returned = frame.returned
            active = guard if returned is FALSE else \
                B.and_(guard, B.not_(returned))
            if active is FALSE:
                return
            self.steps += 1
            if self.steps > self.step_limit:
                raise StepLimitExceeded(self.step_limit)
            _EXEC[type(instr)](self, instr, frame, active)

    def _exec_assign_local(self, instr, frame, active):
        v = self.eval(instr.expr, frame, active)
        name = instr.name
        if active is TRUE:
            frame.locals[name] = v
        elif name in frame.locals:
            frame.locals[name] = mux_value(active, v, frame.locals[name])
        else:
            frame.locals[name] = mux_value(active, v, _zero_like(v))

    def _exec_assign_field(self, instr, frame, active):
        objv = self.eval(instr.obj, frame, active)
        v = self.eval(instr.expr, frame, active)
        key = (instr.owner, instr.name)
        self._null_check(objv, active, instr)
        for cg, ref in _as_cases(objv):
            if ref is None:
                continue
            g = B.and_(active, cg)
            if g is TRUE:
                ref.fields[key] = v
            elif g is not FALSE:
                ref.fields[key] = mux_value(g, v, self._read_field(ref, key))

    def _exec_assign_static(self, instr, frame, active):
        v = self.eval(instr.expr, frame, active)
        key = (instr.cls, instr.name)       # set by init_statics
        self.statics[key] = mux_value(active, v, self.statics[key])

    def _exec_if(self, instr, frame, active):
        c = self.eval(instr.cond, frame, active)
        g_then = B.and_(active, c)
        g_else = B.and_(active, B.not_(c))
        if g_then is not FALSE:
            self.exec_block(instr.then, frame, g_then)
        if g_else is not FALSE:
            self.exec_block(instr.els, frame, g_else)

    def _exec_while(self, instr, frame, active):
        g = active
        k = 0
        while True:
            c = self.eval(instr.cond, frame, g)
            g = B.and_(g, c)
            if frame.returned is not FALSE:
                g = B.and_(g, B.not_(frame.returned))
            if g is FALSE:
                break
            if k >= self.loop_bound:
                # candidates needing more iterations are rejected
                self.constrain(B.not_(g), "loop bound exceeded")
                break
            self.exec_block(instr.body, frame, g)
            if frame.returned is not FALSE:
                g = B.and_(g, B.not_(frame.returned))
            k += 1

    def _exec_return(self, instr, frame, active):
        if instr.expr is not None:
            v = self.eval(instr.expr, frame, active)
            frame.retval = mux_value(active, v, frame.retval)
        frame.returned = B.or_(frame.returned, active)

    def _exec_assert(self, instr, frame, active):
        c = self.eval(instr.expr, frame, active)
        self.constrain(B.implies(active, c), "assertion failed", instr.span)

    def _exec_eval(self, instr, frame, active):
        self.eval(instr.expr, frame, active)

    def _exec_repeat(self, instr, frame, active):
        name = instr.uid.name
        outer = self.rep_iter.get(name)
        for i in range(self.repeat_counts.get(name, 0)):
            self.rep_iter[name] = i
            g = active if frame.returned is FALSE else \
                B.and_(active, B.not_(frame.returned))
            if g is FALSE:
                break
            self.exec_block(instr.body, frame, g)
        if outer is None:
            self.rep_iter.pop(name, None)
        else:
            self.rep_iter[name] = outer

    # -- expressions -------------------------------------------------------

    def eval(self, e, frame, active):
        """The value of ``e`` on the paths ``active`` holds on; one step."""
        self.steps += 1
        if self.steps > self.step_limit:
            raise StepLimitExceeded(self.step_limit)
        return _EVAL[type(e)](self, e, frame, active)

    def _eval_const(self, e, frame, active):
        return _value(e.tag.kind, e.value)

    def _eval_local(self, e, frame, active):
        try:
            return frame.locals[e.name]
        except KeyError:
            raise InternalError(f"read of unset local '{e.name}'") from None

    def _eval_field(self, e, frame, active):
        objv = self.eval(e.obj, frame, active)
        key = (e.owner, e.name)
        if type(objv) is ObjRecord:
            return self._read_field(objv, key)
        self._null_check(objv, active, e)
        acc = default_value(self.table.field_tags[key])
        for cg, ref in _as_cases(objv):
            if ref is not None:
                v = self._read_field(ref, key)
                acc = v if cg is TRUE else mux_value(cg, v, acc)
        return acc

    def _read_field(self, ref, key):
        fields = ref.fields
        if key in fields:
            return fields[key]
        return default_value(self.table.field_tags[key])

    def _eval_static(self, e, frame, active):
        return self.statics[(e.cls, e.name)]

    def _eval_hole(self, e, frame, active):
        return self.unknowns.hole(e.uid, self._iteration_of(e.uid))

    def _iteration_of(self, uid):
        if uid.template_of is None:
            return None
        it = self.rep_iter.get(uid.template_of.name)
        if it is None:
            raise InternalError(
                f"unknown '{uid.name}' used outside its repeat block")
        return it

    def _eval_choice(self, e, frame, active):
        c = self.unknowns.choice(e.uid, self._iteration_of(e.uid))
        if B.is_const(c):
            i = B.const_value(c)
            if not 0 <= i < len(e.alts):
                raise InternalError(f"choice '{e.uid.name}' out of range")
            return self.eval(e.alts[i], frame, active)
        acc = None
        for i, alt in enumerate(e.alts):
            gi = B.eq(c, B.const(i))
            v = self.eval(alt, frame, B.and_(active, gi))
            acc = v if acc is None else mux_value(gi, v, acc)
        return acc

    def _eval_bin(self, e, frame, active):
        op = e.op
        if op == "&&":
            l = self.eval(e.left, frame, active)
            if l is FALSE:
                return FALSE
            r = self.eval(e.right, frame, B.and_(active, l))
            return B.and_(l, r)
        if op == "||":
            l = self.eval(e.left, frame, active)
            if l is TRUE:
                return TRUE
            r = self.eval(e.right, frame, B.and_(active, B.not_(l)))
            return B.or_(l, r)
        l = self.eval(e.left, frame, active)
        r = self.eval(e.right, frame, active)
        arith = _BIN_OPS.get(op)
        if arith is not None:
            return arith(l, r)
        if op == "==" or op == "!=":
            res = self._eq_values(l, r)
            return B.not_(res) if op == "!=" else res
        if op == "/" or op == "%":
            self.constrain(B.implies(active, B.ne(r, B.const(0))),
                           "division by zero", getattr(e, "span", None))
            return B.sdiv(l, r) if op == "/" else B.srem(l, r)
        raise InternalError(f"unknown operator '{op}'")

    def _eq_values(self, l, r):
        if isinstance(l, str) or isinstance(r, str):
            if isinstance(l, str) and isinstance(r, str):
                return B.bconst(l == r)
            raise EncodingError("'==' between a string and a non-string")
        if _is_ref(l) or _is_ref(r):
            if not (_is_ref(l) and _is_ref(r)):
                raise EncodingError("'==' between a reference and a value")
            out = FALSE
            for ga, ra in _as_cases(l):
                for gb, rb in _as_cases(r):
                    if ra is rb:
                        out = B.or_(out, B.and_(ga, gb))
            return out
        return B.eq(l, r)

    def _eval_un(self, e, frame, active):
        v = self.eval(e.operand, frame, active)
        return B.not_(v) if e.op == "!" else B.neg(v)

    def _eval_call(self, e, frame, active):
        args = []
        for a in e.args:   # a loop: a comprehension nests one more frame
            args.append(self.eval(a, frame, active))
        return self.call_function(e.fn, args, active)

    def _eval_alloc(self, e, frame, active):
        return ObjRecord(self.table.id_of(e.cls), e.cls)

    # -- references --------------------------------------------------------

    def _null_check(self, objv, active, node, what="null dereference"):
        if type(objv) is ObjRecord:
            return
        nullg = FALSE
        for cg, ref in _as_cases(objv):
            if ref is None:
                nullg = B.or_(nullg, cg)
        if nullg is not FALSE:
            self.constrain(B.not_(B.and_(active, nullg)), what,
                           getattr(node, "span", None))

    # -- calls -------------------------------------------------------------

    def _eval_virtual(self, e, frame, active):
        """Run the receiver's override of ``e.sig``, one case per class."""
        recv = self.eval(e.receiver, frame, active)
        args = []
        for a in e.args:
            args.append(self.eval(a, frame, active))
        self._null_check(recv, active, e, what="dynamic dispatch on null")
        acc = None
        for cg, ref in _as_cases(recv):
            g = B.and_(active, cg)
            if ref is None or g is FALSE:
                continue
            impl = self.table.vtable.get((ref.class_id, e.sig))
            if impl is None:
                self.constrain(B.not_(g), f"no implementation of '{e.sig[0]}'",
                               e.span)
                continue
            if impl.builtin is None:
                v = self.call_function(impl.mangled, [ref] + args, g)
            else:
                v = self._run_builtin(impl.builtin, ref, args, g, e.span)
            acc = v if acc is None else mux_value(cg, v, acc)
        return default_value(e.ret_tag) if acc is None else acc

    def _eval_builtin(self, e, frame, active):
        """String methods and builtins without a receiver."""
        recv = None
        if e.receiver is not None:
            recv = self.eval(e.receiver, frame, active)
        args = []
        for a in e.args:
            args.append(self.eval(a, frame, active))
        if e.receiver is not None and recv is None:
            self.constrain(B.not_(active), "null dereference", e.span)
            return default_value(e.method.ret)
        return self._run_builtin(e.method, recv, args, active, e.span)

    def _run_builtin(self, method, recv, args, guard, span):
        """Run a library method natively on concrete arguments; a trap
        rejects the candidate unless ``guard`` is false."""
        if method.mutates and guard is not TRUE:
            # its effect could not be undone on the paths that skip it
            raise EncodingError(
                f"library call {method!r} with side effects under "
                "a symbolic condition is not supported", span)
        conc = []
        for a in args:
            if isinstance(a, B.Term) and not a.is_bool:
                if B.is_const(a):
                    conc.append(B.to_signed(B.const_value(a)))
                else:
                    raise EncodingError(
                        f"library call {method!r} needs concrete arguments",
                        span)
            elif isinstance(a, B.Term):
                if a.op != "bconst":
                    raise EncodingError(
                        f"library call {method!r} needs concrete arguments",
                        span)
                conc.append(a.payload)
            else:
                conc.append(a)
        try:
            out = method.run(self, recv, conc)
        except BuiltinTrap as t:
            self.constrain(B.not_(guard), f"library trap: {t.reason}", span)
            return default_value(method.ret)
        if isinstance(out, bool):
            return B.bconst(out)
        if isinstance(out, int):
            return B.const(out)
        return out


def _zero_like(v):
    if isinstance(v, B.Term):
        return FALSE if v.is_bool else B.const(0)
    if isinstance(v, str):
        return ""
    return None


# Binary operators that map straight to one term constructor.
_BIN_OPS = {
    "+": B.add, "-": B.sub, "*": B.mul, "<": B.slt, "<=": B.sle,
    ">": lambda l, r: B.slt(r, l), ">=": lambda l, r: B.sle(r, l),
}

# The handler of each IR node class.
_EVAL = {
    I.Const: Interp._eval_const,
    I.LocalRead: Interp._eval_local,
    I.FieldRead: Interp._eval_field,
    I.StaticRead: Interp._eval_static,
    I.HoleRead: Interp._eval_hole,
    I.ChoiceRead: Interp._eval_choice,
    I.Bin: Interp._eval_bin,
    I.Un: Interp._eval_un,
    I.Call: Interp._eval_call,
    I.VirtualCall: Interp._eval_virtual,
    I.CallBuiltin: Interp._eval_builtin,
    I.AllocObj: Interp._eval_alloc,
}
_EXEC = {
    I.AssignLocal: Interp._exec_assign_local,
    I.AssignField: Interp._exec_assign_field,
    I.AssignStatic: Interp._exec_assign_static,
    I.IfInstr: Interp._exec_if,
    I.WhileInstr: Interp._exec_while,
    I.ReturnInstr: Interp._exec_return,
    I.AssertInstr: Interp._exec_assert,
    I.EvalInstr: Interp._exec_eval,
    I.RepeatInstr: Interp._exec_repeat,
}
