"""Flat imperative IR: functions over scalars and uniform object records.

Each method and each constructor of the program lowers to one function;
the library's run natively.  A call names its callee one of two ways:
``Call`` and ``New`` name one class-table method, the program's or the
library's, and ``VirtualCall`` names a plain signature, which the
interpreter resolves per receiver class through the vtable.
"""

from __future__ import annotations

from . import bitvec as B
from .records import Record

# the function that runs every static initializer before each harness
STATIC_INIT = "__static_init__"

# -- expressions -----------------------------------------------------------


class IrExpr(Record):
    pass


class Const(IrExpr):
    _hidden = ("term",)

    def __init__(self, value, tag=None):
        self.value = value  # int | bool | str (a String literal) | None (null)
        self.tag = tag
        # the interpreter's value of an int, char or boolean constant, built
        # once here; None for a String literal and for null
        self.term = (B.bconst(value) if type(value) is bool
                     else B.const(value) if type(value) is int else None)


class LocalRead(IrExpr):
    def __init__(self, name):
        self.name = name


class FieldRead(IrExpr):
    def __init__(self, obj, owner, name):
        self.obj = obj
        self.owner = owner
        self.name = name


class StaticRead(IrExpr):
    def __init__(self, cls, name):
        self.cls = cls
        self.name = name


class HoleRead(IrExpr):
    def __init__(self, uid):
        self.uid = uid  # UnknownId


class ChoiceRead(IrExpr):
    def __init__(self, uid, alts):
        self.uid = uid
        self.alts = alts


class Bin(IrExpr):
    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right


class Un(IrExpr):
    def __init__(self, op, operand):
        self.op = op
        self.operand = operand


# The term each operator of a ``Bin`` or ``Un`` computes from its operands'
# terms, read by constant folding in lowering and by the interpreter, which
# guards `&&`, `||`, `/`, `%` and `==` over references itself.
BIN_OPS = {
    "+": B.add, "-": B.sub, "*": B.mul, "/": B.sdiv, "%": B.srem,
    "<": B.slt, "<=": B.sle, ">": lambda l, r: B.slt(r, l),
    ">=": lambda l, r: B.sle(r, l), "==": B.eq, "!=": B.ne,
    "&&": B.and_, "||": B.or_,
}
UN_OPS = {"!": B.not_, "-": B.neg}


class Call(IrExpr):
    """A call of one class-table method: a static method, a library
    function, or (from a constructor) a superclass constructor's body,
    whose first argument is the receiver."""

    def __init__(self, method, args, span=None):
        self.method = method  # classtable.MethodInfo
        self.args = args
        self.span = span


class New(IrExpr):
    """``new cls(args)``: a fresh record of class ``cls``, which
    constructor ``ctor`` (a class-table MethodInfo) then initializes."""

    def __init__(self, cls, ctor, args, span=None):
        self.cls = cls
        self.ctor = ctor
        self.args = args
        self.span = span


class Seq(IrExpr):
    """``value``, after ``first`` is evaluated and its value dropped: the
    expression through which a static member is reached (JLS 15.11.1,
    15.12.4.1), which throws nothing when it is null."""

    def __init__(self, first, value):
        self.first = first
        self.value = value


class VirtualCall(IrExpr):
    """Instance-method call, resolved per receiver class through the vtable."""

    def __init__(self, sig, receiver, args, ret_tag, span=None):
        self.sig = sig  # plain signature (name, mangled param types)
        self.receiver = receiver
        self.args = args
        self.ret_tag = ret_tag
        self.span = span


# -- instructions ----------------------------------------------------------


class IrInstr(Record):
    pass


class AssignLocal(IrInstr):
    def __init__(self, name, expr):
        self.name = name
        self.expr = expr


class AssignField(IrInstr):
    def __init__(self, obj, owner, name, expr):
        self.obj = obj
        self.owner = owner
        self.name = name
        self.expr = expr


class AssignStatic(IrInstr):
    def __init__(self, cls, name, expr):
        self.cls = cls
        self.name = name
        self.expr = expr


class IfInstr(IrInstr):
    def __init__(self, cond, then, els=None):
        self.cond = cond
        self.then = then
        self.els = [] if els is None else els


class WhileInstr(IrInstr):
    def __init__(self, cond, body):
        self.cond = cond
        self.body = body


class ReturnInstr(IrInstr):
    def __init__(self, expr=None):
        self.expr = expr  # IrExpr or None


class AssertInstr(IrInstr):
    def __init__(self, expr, span=None):
        self.expr = expr
        self.span = span


class EvalInstr(IrInstr):
    def __init__(self, expr):
        self.expr = expr


class MinimizeInstr(IrInstr):
    """``minimize(expr)``: sets objective ``name``, an implicit ``int`` of
    its harness that is 0 until this runs, to the value of ``expr``."""

    def __init__(self, name, expr):
        self.name = name
        self.expr = expr


class RepeatInstr(IrInstr):
    def __init__(self, uid, body):
        self.uid = uid  # repeat UnknownId
        self.body = body  # template instructions


# -- program ---------------------------------------------------------------


class IrFunction(Record):
    def __init__(self, name, params, body, ret_tag=None, is_harness=False):
        self.name = name
        self.params = params
        self.body = body
        self.ret_tag = ret_tag
        self.is_harness = is_harness


class IrProgram(Record):
    def __init__(self, functions=None, harnesses=None, objectives=None,
                 registry=None, table=None, max_literal=0):
        self.functions = {} if functions is None else functions
        self.harnesses = [] if harnesses is None else harnesses
        # the names of the MinimizeInstrs, in lowering order: their
        # priority in lexicographic minimization
        self.objectives = [] if objectives is None else objectives
        self.registry = registry
        self.table = table
        self.max_literal = max_literal

