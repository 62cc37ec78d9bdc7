"""Guarded interpreter over the flat IR.

One evaluator serves both phases of synthesis:

* encoding: unknowns are bitvector variables, branch conditions become path
  guards, writes under a guard ``g`` become ``ite(g, new, old)`` muxes, and
  assertions/traps accumulate as boolean constraints over the unknowns;
* replay: unknowns are constants, every term folds, and a failed constraint
  raises :class:`HarnessFailure` on the spot.

Object references stay concrete (allocation is unconditional); a reference
that depends on unknowns is a :class:`RefMux`, an exhaustive guarded case
split over concrete records.  A virtual call runs, for each case, the
override that the class table's vtable names for that record's class, and
muxes the results.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bitvec as B
from . import ir as I
from . import typetags as T
from .errors import EncodingError, InternalError
from .stdlib import BuiltinTrap


class HarnessFailure(Exception):
    """A constraint is false regardless of the unknowns (or, during replay,
    false for the candidate under test)."""

    def __init__(self, reason, span=None):
        super().__init__(reason)
        self.reason = reason
        self.span = span


class StepLimitExceeded(Exception):
    pass


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
    if isinstance(v, RefMux):
        return v.cases
    return [(B.TRUE, v)]


def _merge_refs(g, new, old):
    cases = []
    seen = {}
    for cg, ref in _as_cases(new):
        gg = B.and_(g, cg)
        if not B.is_false(gg):
            _add_case(cases, seen, gg, ref)
    ng = B.not_(g)
    for cg, ref in _as_cases(old):
        gg = B.and_(ng, cg)
        if not B.is_false(gg):
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
    if B.is_true(g):
        return new
    if B.is_false(g):
        return old
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


def default_value(tag):
    if tag is None or tag == T.VOID:
        return None
    if tag.is_numeric:
        return B.const(0)
    if tag == T.BOOL:
        return B.FALSE
    if tag == T.STR:
        return ""
    return None          # null reference


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


@dataclass
class _Frame:
    locals: dict
    retval: object
    returned: object = B.FALSE     # Bool term


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
        self.constraints = []
        self.statics = {}
        self.rep_iter = {}                   # repeat name -> current iteration

    # -- bookkeeping -------------------------------------------------------

    def tick(self, n=1):
        self.steps += n
        if self.steps > self.step_limit:
            raise StepLimitExceeded()

    def constrain(self, term, reason, span=None):
        if B.is_true(term):
            return
        if B.is_false(term):
            raise HarnessFailure(reason, span)
        self.constraints.append(term)

    def alloc_builtin(self, cls_name, payload):
        return ObjRecord(self.table.id_of(cls_name), cls_name, payload)

    # -- entry points ------------------------------------------------------

    def init_statics(self):
        for owner, name, tag in self.table.static_fields:
            self.statics[(owner, name)] = default_value(tag)
        self.call_function(self.program.static_init, [], B.TRUE)

    def run_harness(self, name):
        self.init_statics()
        self.call_function(name, [], B.TRUE)

    def eval_objective(self, expr):
        frame = _Frame(locals={}, retval=None)
        return self.eval(expr, frame, B.TRUE)

    # -- functions ---------------------------------------------------------

    def call_function(self, name, args, guard):
        fn = self.program.functions.get(name)
        if fn is None:
            raise InternalError(f"undefined function '{name}'")
        if len(args) != len(fn.params):
            raise InternalError(f"arity mismatch calling '{name}'")
        self.tick()
        frame = _Frame(locals=dict(zip(fn.params, args)),
                       retval=default_value(fn.ret_tag))
        self.exec_block(fn.body, frame, guard)
        return frame.retval

    # -- statements --------------------------------------------------------

    def exec_block(self, instrs, frame, guard):
        for instr in instrs:
            active = B.and_(guard, B.not_(frame.returned))
            if B.is_false(active):
                return
            self.exec_instr(instr, frame, active)

    def exec_instr(self, instr, frame, active):
        self.tick()
        if isinstance(instr, I.AssignLocal):
            v = self.eval(instr.expr, frame, active)
            old = frame.locals.get(instr.name)
            if old is None and instr.name not in frame.locals:
                frame.locals[instr.name] = v if B.is_true(active) else \
                    mux_value(active, v, _zero_like(v))
            else:
                frame.locals[instr.name] = mux_value(active, v, old)
        elif isinstance(instr, I.AssignField):
            objv = self.eval(instr.obj, frame, active)
            v = self.eval(instr.expr, frame, active)
            tag = self.table.field_tags[(instr.owner, instr.name)]
            self._null_check(objv, active, instr)
            for cg, ref in _as_cases(objv):
                if ref is None:
                    continue
                g = B.and_(active, cg)
                if B.is_false(g):
                    continue
                key = (instr.owner, instr.name)
                old = ref.fields.get(key, default_value(tag))
                ref.fields[key] = mux_value(g, v, old)
        elif isinstance(instr, I.AssignStatic):
            v = self.eval(instr.expr, frame, active)
            key = (instr.cls, instr.name)
            old = self.statics.get(key)
            if old is None and key not in self.statics:
                old = default_value(self.table.field_tags[key])
            self.statics[key] = mux_value(active, v, old)
        elif isinstance(instr, I.IfInstr):
            c = self.eval(instr.cond, frame, active)
            g_then = B.and_(active, c)
            g_else = B.and_(active, B.not_(c))
            if not B.is_false(g_then):
                self.exec_block(instr.then, frame, g_then)
            if not B.is_false(g_else):
                self.exec_block(instr.els, frame, g_else)
        elif isinstance(instr, I.WhileInstr):
            g = active
            k = 0
            while True:
                c = self.eval(instr.cond, frame, g)
                g = B.and_(B.and_(g, c), B.not_(frame.returned))
                if B.is_false(g):
                    break
                if k >= self.loop_bound:
                    # candidates needing more iterations are rejected
                    self.constrain(B.not_(g), "loop bound exceeded")
                    break
                self.exec_block(instr.body, frame, g)
                g = B.and_(g, B.not_(frame.returned))
                k += 1
        elif isinstance(instr, I.ReturnInstr):
            v = None
            if instr.expr is not None:
                v = self.eval(instr.expr, frame, active)
                frame.retval = mux_value(active, v, frame.retval)
            frame.returned = B.or_(frame.returned, active)
        elif isinstance(instr, I.AssertInstr):
            c = self.eval(instr.expr, frame, active)
            self.constrain(B.implies(active, c), "assertion failed",
                           instr.span)
        elif isinstance(instr, I.EvalInstr):
            self.eval(instr.expr, frame, active)
        elif isinstance(instr, I.RepeatInstr):
            count = self.repeat_counts.get(instr.uid.name, 0)
            outer = self.rep_iter.get(instr.uid.name)
            for i in range(count):
                self.rep_iter[instr.uid.name] = i
                g = B.and_(active, B.not_(frame.returned))
                if B.is_false(g):
                    break
                self.exec_block(instr.body, frame, g)
            if outer is None:
                self.rep_iter.pop(instr.uid.name, None)
            else:
                self.rep_iter[instr.uid.name] = outer
        else:
            raise InternalError(f"unknown instruction {type(instr).__name__}")

    # -- expressions -------------------------------------------------------

    def eval(self, e, frame, active):
        self.tick()
        if isinstance(e, I.Const):
            return self._const_value(e)
        if isinstance(e, I.LocalRead):
            try:
                return frame.locals[e.name]
            except KeyError:
                raise InternalError(f"read of unset local '{e.name}'") from None
        if isinstance(e, I.FieldRead):
            objv = self.eval(e.obj, frame, active)
            tag = self.table.field_tags[(e.owner, e.name)]
            self._null_check(objv, active, e)
            return self._read_cases(
                objv, default_value(tag),
                lambda ref: ref.fields.get((e.owner, e.name),
                                           default_value(tag)))
        if isinstance(e, I.StaticRead):
            return self.statics[(e.cls, e.name)]
        if isinstance(e, I.HoleRead):
            return self.unknowns.hole(e.uid, self._iteration_of(e.uid))
        if isinstance(e, I.ChoiceRead):
            return self._eval_choice(e, frame, active)
        if isinstance(e, I.Bin):
            return self._eval_bin(e, frame, active)
        if isinstance(e, I.Un):
            v = self.eval(e.operand, frame, active)
            return B.not_(v) if e.op == "!" else B.neg(v)
        if isinstance(e, I.Call):
            args = [self.eval(a, frame, active) for a in e.args]
            return self.call_function(e.fn, args, active)
        if isinstance(e, I.VirtualCall):
            return self._eval_virtual(e, frame, active)
        if isinstance(e, I.CallBuiltin):
            return self._eval_builtin(e, frame, active)
        if isinstance(e, I.AllocObj):
            return ObjRecord(self.table.id_of(e.cls), e.cls)
        raise InternalError(f"unknown expression {type(e).__name__}")

    def _const_value(self, e):
        if e.tag == T.STR:
            return e.value
        if e.tag == T.NULL:
            return None
        if e.tag == T.BOOL:
            return B.bconst(e.value)
        return B.const(e.value)

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
            if B.is_false(l):
                return B.FALSE
            r = self.eval(e.right, frame, B.and_(active, l))
            return B.and_(l, r)
        if op == "||":
            l = self.eval(e.left, frame, active)
            if B.is_true(l):
                return B.TRUE
            r = self.eval(e.right, frame, B.and_(active, B.not_(l)))
            return B.or_(l, r)
        l = self.eval(e.left, frame, active)
        r = self.eval(e.right, frame, active)
        if op in ("==", "!="):
            res = self._eq_values(l, r)
            return B.not_(res) if op == "!=" else res
        if op == "+":
            return B.add(l, r)
        if op == "-":
            return B.sub(l, r)
        if op == "*":
            return B.mul(l, r)
        if op in ("/", "%"):
            self.constrain(B.implies(active, B.ne(r, B.const(0))),
                           "division by zero", getattr(e, "span", None))
            return B.sdiv(l, r) if op == "/" else B.srem(l, r)
        if op == "<":
            return B.slt(l, r)
        if op == "<=":
            return B.sle(l, r)
        if op == ">":
            return B.slt(r, l)
        if op == ">=":
            return B.sle(r, l)
        raise InternalError(f"unknown operator '{op}'")

    def _eq_values(self, l, r):
        if isinstance(l, str) or isinstance(r, str):
            if isinstance(l, str) and isinstance(r, str):
                return B.bconst(l == r)
            raise EncodingError("'==' between a string and a non-string")
        if _is_ref(l) or _is_ref(r):
            if not (_is_ref(l) and _is_ref(r)):
                raise EncodingError("'==' between a reference and a value")
            out = B.FALSE
            for ga, ra in _as_cases(l):
                for gb, rb in _as_cases(r):
                    if ra is rb:
                        out = B.or_(out, B.and_(ga, gb))
            return out
        return B.eq(l, r)

    # -- references --------------------------------------------------------

    def _null_check(self, objv, active, node, what="null dereference"):
        nullg = B.FALSE
        for cg, ref in _as_cases(objv):
            if ref is None:
                nullg = B.or_(nullg, cg)
        if not B.is_false(nullg):
            self.constrain(B.not_(B.and_(active, nullg)), what,
                           getattr(node, "span", None))

    def _read_cases(self, objv, default, fn):
        acc = default
        for cg, ref in _as_cases(objv):
            if ref is None:
                continue
            acc = mux_value(cg, fn(ref), acc) if not B.is_true(cg) else fn(ref)
        return acc

    # -- calls -------------------------------------------------------------

    def _eval_virtual(self, e, frame, active):
        """Run the receiver's override of ``e.sig``, one case per class."""
        recv = self.eval(e.receiver, frame, active)
        args = [self.eval(a, frame, active) for a in e.args]
        self._null_check(recv, active, e, what="dynamic dispatch on null")
        acc = None
        for cg, ref in _as_cases(recv):
            g = B.and_(active, cg)
            if ref is None or B.is_false(g):
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
        args = [self.eval(a, frame, active) for a in e.args]
        if e.receiver is not None and recv is None:
            self.constrain(B.not_(active), "null dereference", e.span)
            return default_value(e.method.ret)
        return self._run_builtin(e.method, recv, args, active, e.span)

    def _run_builtin(self, method, recv, args, guard, span):
        """Run a library method natively on concrete arguments; a trap
        rejects the candidate unless ``guard`` is false."""
        if method.mutates and not B.is_true(guard):
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
        return B.FALSE if v.is_bool else B.const(0)
    if isinstance(v, str):
        return ""
    return None
