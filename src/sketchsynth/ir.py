"""Flat imperative IR: functions over scalars and uniform object records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# -- expressions -----------------------------------------------------------


class IrExpr:
    pass


@dataclass
class Const(IrExpr):
    value: object        # int | bool | str | None (null)
    tag: object = None


@dataclass
class LocalRead(IrExpr):
    name: str


@dataclass
class FieldRead(IrExpr):
    obj: IrExpr
    owner: str
    name: str


@dataclass
class StaticRead(IrExpr):
    cls: str
    name: str


@dataclass
class HoleRead(IrExpr):
    uid: object          # UnknownId


@dataclass
class ChoiceRead(IrExpr):
    uid: object
    alts: list


@dataclass
class Bin(IrExpr):
    op: str
    left: IrExpr
    right: IrExpr


@dataclass
class Un(IrExpr):
    op: str
    operand: IrExpr


@dataclass
class Call(IrExpr):
    fn: str
    args: list
    span: object = None


@dataclass
class CallBuiltin(IrExpr):
    method: object       # stdlib.BuiltinMethod
    receiver: Optional[IrExpr]
    args: list
    span: object = None


@dataclass
class AllocObj(IrExpr):
    cls: str


@dataclass
class VirtualCall(IrExpr):
    """Instance-method call, resolved per receiver class through the vtable."""
    sig: tuple           # plain signature (name, mangled param types)
    receiver: IrExpr
    args: list
    ret_tag: object
    span: object = None


# -- instructions ----------------------------------------------------------


class IrInstr:
    pass


@dataclass
class AssignLocal(IrInstr):
    name: str
    expr: IrExpr


@dataclass
class AssignField(IrInstr):
    obj: IrExpr
    owner: str
    name: str
    expr: IrExpr


@dataclass
class AssignStatic(IrInstr):
    cls: str
    name: str
    expr: IrExpr


@dataclass
class IfInstr(IrInstr):
    cond: IrExpr
    then: list
    els: list = field(default_factory=list)


@dataclass
class WhileInstr(IrInstr):
    cond: IrExpr
    body: list


@dataclass
class ReturnInstr(IrInstr):
    expr: Optional[IrExpr] = None


@dataclass
class AssertInstr(IrInstr):
    expr: IrExpr
    span: object = None


@dataclass
class EvalInstr(IrInstr):
    expr: IrExpr


@dataclass
class RepeatInstr(IrInstr):
    uid: object          # repeat UnknownId
    body: list           # template instructions


# -- program ---------------------------------------------------------------


@dataclass
class IrFunction:
    name: str
    params: list
    body: list
    ret_tag: object = None
    is_harness: bool = False


@dataclass
class IrProgram:
    functions: dict = field(default_factory=dict)
    harnesses: list = field(default_factory=list)
    objectives: list = field(default_factory=list)   # (name, IrExpr)
    static_init: str = "__static_init__"
    registry: object = None
    table: object = None
    max_literal: int = 0


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
