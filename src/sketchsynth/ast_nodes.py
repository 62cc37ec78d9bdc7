"""Syntax tree of the subject language, including sketch constructs.

The tree is produced by the parser and rewritten in place-preserving steps by
the desugarer.  ``Hole``, ``Choice`` and ``MinRepeat`` nodes carry no
identifier at parse time; before lowering, the desugarer gives each its
:class:`UnknownId` record (the ``uid`` attribute), the one the registry
holds.  It also binds every simple name: each ``Param`` and ``LocalDecl``
gets the ``slot`` (IR local) it declares, and each ``Name`` the ``slot``
it denotes, :data:`CLASS`, or None for a field.
"""

from __future__ import annotations

import copy
from collections import namedtuple

from .records import Record


class SourceSpan(namedtuple("SourceSpan", "file line col length",
                            defaults=(0,))):
    """``file:line:col`` of a token (both 1-based) and its length."""

    __slots__ = ()

    def __str__(self):
        return f"{self.file}:{self.line}:{self.col}"


class Node(Record):
    """Base for all AST nodes; every node has a ``span`` field (a
    SourceSpan or None) except ``CompilationUnit`` and ``SketchAst``."""

    def clone(self):
        """A copy of every node and list of the subtree; other values, such
        as spans and the unknowns' records, are shared.  Each node's fields
        are swapped for copies before :func:`walk` reads them, so the walk
        goes on through the copies."""
        root = copy.copy(self)
        for node in walk(root):
            for name, value in list(vars(node).items()):
                if isinstance(value, Node):
                    setattr(node, name, copy.copy(value))
                elif type(value) is list:
                    setattr(node, name, [copy.copy(v) if isinstance(v, Node)
                                         else v for v in value])
        return root


# --------------------------------------------------------------------------
# types


class TypeRef(Node):
    """A surface type: primitive name or class/interface name.  Generic
    arguments are parsed and dropped: every type is already erased."""

    def __init__(self, name, span=None):
        self.name = name
        self.span = span

    def __str__(self):
        return self.name


# --------------------------------------------------------------------------
# declarations


class CompilationUnit(Node):
    def __init__(self, file, types=None):
        self.file = file
        self.types = [] if types is None else types  # TypeDecl


class ClassDecl(Node):
    def __init__(self, name, is_interface=False, is_generator=False,
                 superclass=None, interfaces=None, members=None,
                 modifiers=None, span=None):
        self.name = name
        self.is_interface = is_interface
        self.is_generator = is_generator
        self.superclass = superclass  # TypeRef or None
        self.interfaces = [] if interfaces is None else interfaces  # TypeRef
        # FieldDecl | MethodDecl | ClassDecl
        self.members = [] if members is None else members
        self.modifiers = [] if modifiers is None else modifiers
        self.span = span

    def fields(self):
        return [m for m in self.members if isinstance(m, FieldDecl)]

    def methods(self):
        return [m for m in self.members if isinstance(m, MethodDecl)]

    def inner_classes(self):
        return [m for m in self.members if isinstance(m, ClassDecl)]


class FieldDecl(Node):
    def __init__(self, type=None, name="", init=None, is_static=False,
                 modifiers=None, span=None):
        self.type = type
        self.name = name
        self.init = init  # Expr or None
        self.is_static = is_static
        self.modifiers = [] if modifiers is None else modifiers
        self.span = span


class Param(Node):
    def __init__(self, type=None, name="", span=None):
        self.type = type
        self.name = name
        self.span = span
        self.slot = None


class MethodDecl(Node):
    def __init__(self, name="", return_type=None, params=None, body=None,
                 is_static=False, is_harness=False, is_constructor=False,
                 modifiers=None, span=None):
        self.name = name
        self.return_type = return_type  # None for constructors
        self.params = [] if params is None else params
        self.body = body  # Block; None for abstract/interface methods
        self.is_static = is_static
        self.is_harness = is_harness
        self.is_constructor = is_constructor
        self.modifiers = [] if modifiers is None else modifiers
        self.span = span


# --------------------------------------------------------------------------
# statements


class Stmt(Node):
    pass


class Block(Stmt):
    def __init__(self, stmts=None, span=None):
        self.stmts = [] if stmts is None else stmts
        self.span = span


class LocalDecl(Stmt):
    def __init__(self, type=None, name="", init=None, span=None):
        self.type = type
        self.name = name
        self.init = init  # Expr or None
        self.span = span
        self.slot = None


class IfStmt(Stmt):
    def __init__(self, cond=None, then=None, els=None, span=None):
        self.cond = cond
        self.then = then
        self.els = els  # Stmt or None
        self.span = span


class WhileStmt(Stmt):
    def __init__(self, cond=None, body=None, span=None):
        self.cond = cond
        self.body = body
        self.span = span


class ReturnStmt(Stmt):
    def __init__(self, value=None, span=None):
        self.value = value  # Expr or None
        self.span = span


class AssertStmt(Stmt):
    def __init__(self, cond=None, span=None):
        self.cond = cond
        self.span = span


class ExprStmt(Stmt):
    def __init__(self, expr=None, span=None):
        self.expr = expr
        self.span = span


class MinRepeat(Stmt):
    def __init__(self, body=None, uid=None, span=None):
        self.body = body  # Block
        self.uid = uid  # UnknownId, assigned by desugar
        self.span = span


# --------------------------------------------------------------------------
# expressions


class Expr(Node):
    pass


class IntLit(Expr):
    def __init__(self, value=0, span=None):
        self.value = value
        self.span = span


class BoolLit(Expr):
    def __init__(self, value=False, span=None):
        self.value = value
        self.span = span


class CharLit(Expr):
    def __init__(self, value=0, span=None):
        self.value = value  # code point
        self.span = span


class StringLit(Expr):
    def __init__(self, value="", span=None):
        self.value = value
        self.span = span


class NullLit(Expr):
    def __init__(self, span=None):
        self.span = span


# a Name's ``slot`` when it denotes a class: a keyword, so no local's
CLASS = "class"


class Name(Expr):
    def __init__(self, ident="", span=None, slot=None):
        self.ident = ident
        self.span = span
        self.slot = slot


class ThisExpr(Expr):
    def __init__(self, span=None):
        self.span = span


class FieldAccess(Expr):
    def __init__(self, target=None, name="", span=None):
        self.target = target
        self.name = name
        self.span = span


class MethodCall(Expr):
    def __init__(self, target=None, name="", args=None, span=None):
        self.target = target  # None = unqualified call
        self.name = name
        self.args = [] if args is None else args
        self.span = span


class NewObject(Expr):
    def __init__(self, type=None, args=None, anon_members=None, span=None):
        self.type = type
        self.args = [] if args is None else args
        self.anon_members = anon_members  # inline body of an anonymous class
        self.span = span


# binding strength of the binary operators, loosest first; every level
# associates to the left.  Assignment (1) binds looser, unary operators tighter.
BINARY_PREC = {
    "||": 2, "&&": 3,
    "==": 4, "!=": 4, "<": 5, "<=": 5, ">": 5, ">=": 5,
    "+": 6, "-": 6, "*": 7, "/": 7, "%": 7,
}


class BinOp(Expr):
    def __init__(self, op="", left=None, right=None, span=None):
        self.op = op
        self.left = left
        self.right = right
        self.span = span


class UnOp(Expr):
    def __init__(self, op="", operand=None, span=None):
        self.op = op
        self.operand = operand
        self.span = span


class Assign(Expr):
    def __init__(self, target=None, value=None, span=None, initializer=False):
        self.target = target  # Name or FieldAccess
        self.value = value
        self.span = span
        # a field's initializer, which desugar moved into a constructor
        self.initializer = initializer


class Hole(Expr):
    def __init__(self, uid=None, span=None):
        self.uid = uid
        self.span = span


class Choice(Expr):
    def __init__(self, alternatives=None, uid=None, span=None):
        self.alternatives = [] if alternatives is None else alternatives
        self.uid = uid
        self.span = span
        assert len(self.alternatives) >= 1


# --------------------------------------------------------------------------
# program root


class SketchAst(Node):
    def __init__(self, units=None):
        self.units = [] if units is None else units  # CompilationUnit

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
