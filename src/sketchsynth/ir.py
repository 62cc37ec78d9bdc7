"""Flat imperative IR: functions over scalars and uniform object records."""

from __future__ import annotations

from .records import Record

# -- expressions -----------------------------------------------------------


class IrExpr(Record):
    pass


class Const(IrExpr):
    def __init__(self, value, tag=None):
        self.value = value  # int | bool | str | None (null)
        self.tag = tag


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


class Call(IrExpr):
    def __init__(self, fn, args, span=None):
        self.fn = fn
        self.args = args
        self.span = span


class CallBuiltin(IrExpr):
    def __init__(self, method, receiver, args, span=None):
        self.method = method  # stdlib.BuiltinMethod
        self.receiver = receiver  # IrExpr, or None for a free function
        self.args = args
        self.span = span


class AllocObj(IrExpr):
    def __init__(self, cls):
        self.cls = cls


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
                 static_init="__static_init__", registry=None, table=None,
                 max_literal=0):
        self.functions = {} if functions is None else functions
        self.harnesses = [] if harnesses is None else harnesses
        # (name, IrExpr)
        self.objectives = [] if objectives is None else objectives
        self.static_init = static_init
        self.registry = registry
        self.table = table
        self.max_literal = max_literal


def walk_ir(node):
    """Pre-order traversal over IrExpr/IrInstr trees."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, (IrExpr, IrInstr)):
            yield node
            stack.extend(reversed(vars(node).values()))
        elif isinstance(node, list):
            stack.extend(reversed(node))
