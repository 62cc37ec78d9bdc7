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

Calls: every callee is a class-table method.  ``Call`` names one, ``New``
allocates a record and names the constructor that fills it, and a virtual
call finds one per receiver case; all of them run it through
:meth:`Interp.call`, the one place that tells a library method, which runs
natively, from one that runs its IR function.

A run bounds how deeply its calls nest by Python's own recursion limit,
which it sets, for its duration, to ``STACK_FRAMES`` frames above its
caller's: the bound counts the frames that calls and the statements
around their call sites really take, whatever the host process's stack
or limit.  A ``RecursionError`` becomes ``CallDepthExceeded``.  Like the
step limit, the bound is a resource limit: overrunning it leaves the
current run undecided rather than failing the candidate.  The search's
deadline is read with the step count: a step compares ``steps`` with
``next_check`` only, and every ``CLOCK_STEPS`` steps the comparison fails
and reads the clock.
"""

from __future__ import annotations

import sys
from collections import namedtuple

from . import bitvec as B
from . import ir as I
from .errors import EncodingError, InternalError, check_deadline
from .stdlib import OBJECT, BuiltinTrap

TRUE, FALSE, ZERO = B.TRUE, B.FALSE, B.ZERO

# The Python frames a run's calls may nest in.  A call takes 3 (``eval``,
# its handler and ``call``) and 2 for each IR statement or expression
# around its call site (an ``exec_block`` or ``eval`` and its handler):
# 9 in the usual shape, a call in a binary operator in a return in an if.
# So 1620 frames hold about 180 such calls, or the parser's deepest
# nesting (160 levels, 2 frames each) below 140 of them.
STACK_FRAMES = 1620
CLOCK_STEPS = 1024


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
    def __init__(self, depth):
        super().__init__(f"call nesting exceeds {STACK_FRAMES} Python "
                         f"frames at call depth {depth}")


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


# the result of a virtual call before any case has given one (a case may
# give null)
_NO_CASE = object()


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
    if _is_ref(new) and _is_ref(old):
        return _merge_refs(g, new, old)
    raise InternalError(f"cannot merge values {new!r} and {old!r}")


def _is_ref(v):
    return v is None or isinstance(v, (ObjRecord, RefMux))


def default_value(tag):
    """The value of a ``tag``-typed slot before its first write: one
    shared zero or ``FALSE``, or None for a reference, for no tag and for
    void."""
    if tag is None:
        return None
    kind = tag.kind
    if kind == "int" or kind == "char":
        return ZERO
    return FALSE if kind == "boolean" else None


class SymbolicCount(namedtuple("SymbolicCount", "term floor")):
    """A repeat count that is a solver variable, ``term``: the block runs
    ``unroll_max`` copies, copy ``i`` on the paths where ``i < term``, and
    the copies below ``floor`` wherever the block runs."""

    __slots__ = ()


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
    def __init__(self, program, unknowns, repeat_counts, cfg, deadline=None):
        self.program = program
        self.table = program.table
        self.unknowns = unknowns
        # repeat name -> count: an int, or a SymbolicCount
        self.repeat_counts = repeat_counts
        self.unroll_max = cfg.unroll_max
        self.loop_bound = cfg.loop_bound     # cfg: an engine.EngineConfig
        self.step_limit = cfg.step_limit
        self.deadline = deadline             # time.monotonic() value or None
        self.steps = 0
        self.next_check = 0                  # a step past it runs _checkpoint
        self.depth = 1                       # calls now running, the entry's
        self.constraints = []
        self.objectives = {}                 # objective name -> its value
        self.statics = {}
        self.rep_iter = {}                   # repeat name -> current iteration
        self.literals = {}                   # text -> its String record

    # -- bookkeeping -------------------------------------------------------

    def constrain(self, term, reason, span=None):
        if term is TRUE:
            return
        if term is FALSE:
            raise HarnessFailure(reason, span)
        self.constraints.append(term)

    def _checkpoint(self):
        """Run once ``steps`` passes ``next_check``: enforces the step
        limit and the deadline, and sets the next checkpoint."""
        if self.steps > self.step_limit:
            raise StepLimitExceeded(self.step_limit)
        check_deadline(self.deadline)
        self.next_check = min(self.step_limit, self.steps + CLOCK_STEPS)

    def alloc_builtin(self, cls_name, payload):
        """A record of the library class of simple name ``cls_name``."""
        name = self.table.library[cls_name]
        return ObjRecord(self.table.id_of(name), name, payload)

    # -- entry points ------------------------------------------------------

    def init_statics(self):
        for owner, name, tag in self.table.static_fields:
            self.statics[(owner, name)] = default_value(tag)
        self._run_entry(I.STATIC_INIT)

    def run_harness(self, name):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + STACK_FRAMES)
        try:
            self.init_statics()
            return self._run_entry(name)
        except RecursionError:
            pass    # raised below, so that it holds no overflowed stack
        finally:
            sys.setrecursionlimit(limit)
        raise CallDepthExceeded(self.depth)

    def _run_entry(self, name):
        """Run the parameterless function ``name``, the outermost call of
        its run; one step."""
        self.steps += 1
        self.exec_block(self.program.functions[name].body,
                        _Frame({}, None), TRUE)

    # -- calls -------------------------------------------------------------

    def call(self, method, args, guard, span):
        """Run class-table method ``method`` on ``args``, its receiver
        first unless it is static, on the paths ``guard`` holds on, for
        the call at ``span``: a library method natively, any other as its
        IR function, which takes one step and one level of call depth.  An
        exception ends the whole run, so ``depth`` need not unwind."""
        native = method.builtin
        if native is not None:
            return self._run_builtin(native, args, guard, span)
        fn = self.program.functions.get(method.function)
        if fn is None or len(args) != len(fn.params):
            raise InternalError(f"no function fits a call of {method!r}")
        self.steps += 1
        if self.steps > self.next_check:
            self._checkpoint()
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
            if self.steps > self.next_check:
                self._checkpoint()
            _EXEC[type(instr)](self, instr, frame, active)

    def _exec_assign_local(self, instr, frame, active):
        v = self.eval(instr.expr, frame, active)
        name = instr.name
        # a local's first write is its declaration, and no path reads it
        # outside the declaration's scope: that write needs no mux
        if active is TRUE or name not in frame.locals:
            frame.locals[name] = v
        else:
            frame.locals[name] = mux_value(active, v, frame.locals[name])

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

    def _exec_minimize(self, instr, frame, active):
        # an assignment to an implicit int of the harness that starts at 0
        v = self.eval(instr.expr, frame, active)
        name = instr.name
        self.objectives[name] = mux_value(active, v,
                                          self.objectives.get(name, ZERO))

    def _exec_repeat(self, instr, frame, active):
        name = instr.uid.name
        outer = self.rep_iter.get(name)
        count = self.repeat_counts.get(name, 0)
        if type(count) is int:
            copies = floor = count
        else:
            copies, floor, count = self.unroll_max, count.floor, count.term
        for i in range(copies):
            self.rep_iter[name] = i
            g = active if frame.returned is FALSE else \
                B.and_(active, B.not_(frame.returned))
            if i >= floor:
                g = B.and_(g, B.ult(B.const(i), count))
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
        if self.steps > self.next_check:
            self._checkpoint()
        return _EVAL[type(e)](self, e, frame, active)

    def _eval_const(self, e, frame, active):
        term = e.term
        if term is not None:
            return term
        value = e.value
        if value is None:
            return None
        # a String literal: one record per text
        rec = self.literals.get(value)
        if rec is None:
            rec = self.literals[value] = self.alloc_builtin("String", value)
        return rec

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
        for i, alt in enumerate(e.alts):
            gi = B.eq(c, B.const(i))
            v = self.eval(alt, frame, B.and_(active, gi))
            acc = v if i == 0 else mux_value(gi, v, acc)
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
        if op in _GUARDED_OPS:
            if op == "/" or op == "%":
                self.constrain(B.implies(active, B.ne(r, ZERO)),
                               "division by zero", getattr(e, "span", None))
            elif _is_ref(l) or _is_ref(r):
                # lowering rejects `==` between a reference and a value
                same = FALSE
                for ga, ra in _as_cases(l):
                    for gb, rb in _as_cases(r):
                        if ra is rb:
                            same = B.or_(same, B.and_(ga, gb))
                return B.not_(same) if op == "!=" else same
        return I.BIN_OPS[op](l, r)

    def _eval_un(self, e, frame, active):
        return I.UN_OPS[e.op](self.eval(e.operand, frame, active))

    def _eval_call(self, e, frame, active):
        args = []
        for a in e.args:   # a loop: a comprehension nests one more frame
            args.append(self.eval(a, frame, active))
        return self.call(e.method, args, active, e.span)

    def _eval_new(self, e, frame, active):
        # allocation comes before the arguments (JLS 15.9.4)
        obj = ObjRecord(self.table.id_of(e.cls), e.cls)
        args = [obj]
        for a in e.args:
            args.append(self.eval(a, frame, active))
        self.call(e.ctor, args, active, e.span)
        return obj

    def _eval_seq(self, e, frame, active):
        self.eval(e.first, frame, active)
        return self.eval(e.value, frame, active)

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

    def _eval_virtual(self, e, frame, active):
        """Run the receiver's override of ``e.sig``, one case per class."""
        recv = self.eval(e.receiver, frame, active)
        args = [recv]
        for a in e.args:
            args.append(self.eval(a, frame, active))
        if type(recv) is ObjRecord:
            # what the loop below does with its one case, whose guard is
            # ``active``, when the receiver's class implements the call
            impl = self.table.vtable.get((recv.class_id, e.sig))
            if impl is not None:
                return self.call(impl, args, active, e.span)
        self._null_check(recv, active, e, what="dynamic dispatch on null")
        acc = _NO_CASE
        for cg, ref in _as_cases(recv):
            g = B.and_(active, cg)
            if ref is None or g is FALSE:
                continue
            impl = self.table.vtable.get((ref.class_id, e.sig))
            if impl is None:
                self.constrain(B.not_(g), f"no implementation of '{e.sig[0]}'",
                               e.span)
                continue
            args[0] = ref
            v = self.call(impl, args, g, e.span)
            acc = v if acc is _NO_CASE else mux_value(cg, v, acc)
        return default_value(e.ret_tag) if acc is _NO_CASE else acc

    def _run_builtin(self, method, args, guard, span):
        """Run a library method natively: ``args`` hold its receiver first,
        unless it is static, and then concrete arguments:
        constant ints (no library method takes a boolean) and references,
        which must be one record or null unless the method only stores
        them (an ``Object`` parameter); a trap rejects the candidate unless
        ``guard`` is false."""
        if method.mutates and guard is not TRUE:
            # its effect could not be undone on the paths that skip it
            raise EncodingError(
                f"library call {method!r} with side effects under "
                "a symbolic condition is not supported", span)
        recv = None
        if not method.is_static:
            recv, args = args[0], args[1:]
        conc = []
        for a, tag in zip(args, method.param_tags):
            if isinstance(a, B.Term) and B.is_const(a):
                a = B.to_signed(B.const_value(a))
            elif isinstance(a, B.Term) or (type(a) is RefMux and tag != OBJECT):
                raise EncodingError(
                    f"library call {method!r} needs concrete arguments", span)
            conc.append(a)
        try:
            out = method.run(self, recv, conc)
        except BuiltinTrap as t:
            self.constrain(B.not_(guard), f"library trap: {t.reason}", span)
            return default_value(method.ret)
        except EncodingError as e:
            raise EncodingError(e.message, span) from None
        if isinstance(out, bool):
            return B.bconst(out)
        if isinstance(out, int):
            return B.const(out)
        return out


def _stack_depth():
    """The Python frames below the caller's."""
    depth, f = 0, sys._getframe(1)
    while f is not None:
        depth += 1
        f = f.f_back
    return depth


# Binary operators whose term the interpreter guards: a division's divisor
# must be nonzero, and `==` over references compares identities.
_GUARDED_OPS = frozenset(("/", "%", "==", "!="))

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
    I.New: Interp._eval_new,
    I.Seq: Interp._eval_seq,
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
    I.MinimizeInstr: Interp._exec_minimize,
    I.RepeatInstr: Interp._exec_repeat,
}
