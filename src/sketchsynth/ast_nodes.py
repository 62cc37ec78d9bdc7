"""Syntax tree of the subject language, including sketch constructs.

The tree is produced by the parser and rewritten in place-preserving steps by
the desugarer.  ``Hole``, ``Choice`` and ``MinRepeat`` nodes carry no
identifier at parse time; the desugarer assigns :class:`UnknownId` labels
(stored on the ``uid`` attribute) before lowering.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import NamedTuple, Optional


class SourceSpan(NamedTuple):
    file: str
    line: int  # 1-based
    col: int   # 1-based
    length: int = 0

    def __str__(self):
        return f"{self.file}:{self.line}:{self.col}"


def synthetic_span(label="<synthetic>"):
    return SourceSpan(label, 1, 1, 0)


class Node:
    """Base for all AST nodes; subclasses are dataclasses with a ``span``."""

    def clone(self):
        return copy.deepcopy(self)


# --------------------------------------------------------------------------
# types


@dataclass
class TypeRef(Node):
    """A surface type: primitive name or class/interface name.  Generic
    arguments are parsed and dropped: every type is already erased."""
    name: str
    span: Optional[SourceSpan] = None

    def __str__(self):
        return self.name


# --------------------------------------------------------------------------
# declarations


@dataclass
class CompilationUnit(Node):
    file: str
    types: list = field(default_factory=list)  # TypeDecl


@dataclass
class ClassDecl(Node):
    name: str
    is_interface: bool = False
    is_generator: bool = False
    superclass: Optional[TypeRef] = None
    interfaces: list = field(default_factory=list)  # TypeRef
    members: list = field(default_factory=list)     # FieldDecl | MethodDecl | ClassDecl
    modifiers: list = field(default_factory=list)
    span: Optional[SourceSpan] = None

    def fields(self):
        return [m for m in self.members if isinstance(m, FieldDecl)]

    def methods(self):
        return [m for m in self.members if isinstance(m, MethodDecl)]

    def inner_classes(self):
        return [m for m in self.members if isinstance(m, ClassDecl)]


@dataclass
class FieldDecl(Node):
    type: TypeRef = None
    name: str = ""
    init: Optional["Expr"] = None
    is_static: bool = False
    modifiers: list = field(default_factory=list)
    span: Optional[SourceSpan] = None


@dataclass
class Param(Node):
    type: TypeRef = None
    name: str = ""
    span: Optional[SourceSpan] = None


@dataclass
class MethodDecl(Node):
    name: str = ""
    return_type: Optional[TypeRef] = None  # None for constructors
    params: list = field(default_factory=list)
    body: Optional["Block"] = None         # None for abstract/interface methods
    is_static: bool = False
    is_harness: bool = False
    is_constructor: bool = False
    modifiers: list = field(default_factory=list)
    span: Optional[SourceSpan] = None


# --------------------------------------------------------------------------
# statements


class Stmt(Node):
    pass


@dataclass
class Block(Stmt):
    stmts: list = field(default_factory=list)
    span: Optional[SourceSpan] = None


@dataclass
class LocalDecl(Stmt):
    type: TypeRef = None
    name: str = ""
    init: Optional["Expr"] = None
    span: Optional[SourceSpan] = None


@dataclass
class IfStmt(Stmt):
    cond: "Expr" = None
    then: Stmt = None
    els: Optional[Stmt] = None
    span: Optional[SourceSpan] = None


@dataclass
class WhileStmt(Stmt):
    cond: "Expr" = None
    body: Stmt = None
    span: Optional[SourceSpan] = None


@dataclass
class ReturnStmt(Stmt):
    value: Optional["Expr"] = None
    span: Optional[SourceSpan] = None


@dataclass
class AssertStmt(Stmt):
    cond: "Expr" = None
    span: Optional[SourceSpan] = None


@dataclass
class ExprStmt(Stmt):
    expr: "Expr" = None
    span: Optional[SourceSpan] = None


@dataclass
class MinRepeat(Stmt):
    body: Block = None
    uid: Optional[object] = None  # UnknownId, assigned by desugar
    span: Optional[SourceSpan] = None


# --------------------------------------------------------------------------
# expressions


class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int = 0
    span: Optional[SourceSpan] = None


@dataclass
class BoolLit(Expr):
    value: bool = False
    span: Optional[SourceSpan] = None


@dataclass
class CharLit(Expr):
    value: int = 0  # code point
    span: Optional[SourceSpan] = None


@dataclass
class StringLit(Expr):
    value: str = ""
    span: Optional[SourceSpan] = None


@dataclass
class NullLit(Expr):
    span: Optional[SourceSpan] = None


@dataclass
class Name(Expr):
    ident: str = ""
    span: Optional[SourceSpan] = None


@dataclass
class ThisExpr(Expr):
    span: Optional[SourceSpan] = None


@dataclass
class FieldAccess(Expr):
    target: Expr = None
    name: str = ""
    span: Optional[SourceSpan] = None


@dataclass
class MethodCall(Expr):
    target: Optional[Expr] = None  # None = unqualified call
    name: str = ""
    args: list = field(default_factory=list)
    span: Optional[SourceSpan] = None


@dataclass
class NewObject(Expr):
    type: TypeRef = None
    args: list = field(default_factory=list)
    anon_members: Optional[list] = None  # inline body of an anonymous class
    span: Optional[SourceSpan] = None


# binding strength of the binary operators, loosest first; every level
# associates to the left.  Assignment (1) binds looser, unary operators tighter.
BINARY_PREC = {
    "||": 2, "&&": 3,
    "==": 4, "!=": 4, "<": 5, "<=": 5, ">": 5, ">=": 5,
    "+": 6, "-": 6, "*": 7, "/": 7, "%": 7,
}


@dataclass
class BinOp(Expr):
    op: str = ""
    left: Expr = None
    right: Expr = None
    span: Optional[SourceSpan] = None


@dataclass
class UnOp(Expr):
    op: str = ""
    operand: Expr = None
    span: Optional[SourceSpan] = None


@dataclass
class Assign(Expr):
    target: Expr = None  # Name or FieldAccess
    value: Expr = None
    span: Optional[SourceSpan] = None


@dataclass
class Hole(Expr):
    uid: Optional[object] = None
    span: Optional[SourceSpan] = None


@dataclass
class Choice(Expr):
    alternatives: list = field(default_factory=list)
    uid: Optional[object] = None
    span: Optional[SourceSpan] = None

    def __post_init__(self):
        assert len(self.alternatives) >= 1


# --------------------------------------------------------------------------
# program root


@dataclass
class SketchAst(Node):
    units: list = field(default_factory=list)  # CompilationUnit

    def top_level_types(self):
        for unit in self.units:
            yield from unit.types


def walk(node):
    """Pre-order traversal over every Node reachable from ``node``.  A
    node's fields are read when the caller resumes after it is yielded."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Node):
            yield node
            stack.extend(reversed(vars(node).values()))
        elif isinstance(node, list):
            stack.extend(reversed(node))
